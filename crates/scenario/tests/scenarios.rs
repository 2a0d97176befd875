//! Full-mode scenario runs: each test executes a catalog scenario on
//! *both* runtimes — the deterministic simulator and the threaded fabric
//! — letting the scenario's own cross-runtime assertions fire
//! (byte-identical ledgers for the fault-free scenarios, honest-replica agreement plus a progress floor
//! for the fault scripts). The Byzantine-primary matrix runs in
//! `tests/consensus_safety.rs` at the workspace root; the quick
//! (simulator-only) catalog is exercised by `repro_scenarios --quick`
//! and the CI determinism diff.

use rdb_scenario::{healing_partition, smallbank, token_rmw, Mode};

/// Hot-account transfers with surfaced underflow aborts: the simulator
/// and the fabric must commit byte-identical chains,
/// and the independent replay must find aborts on every one of them.
#[test]
fn smallbank_commits_identically_on_both_runtimes() {
    let outcome = smallbank(Mode::Full);
    assert!(outcome.aborts > 0, "no underflow ever surfaced");
    assert!(outcome.aborts < outcome.programs, "every transfer aborted");
}

/// Multi-key token mints (5-key RMWs) conserve
/// supply on the replayed final state of both runtimes, with the same
/// byte-identity check as SmallBank.
#[test]
fn token_rmw_conserves_supply_on_both_runtimes() {
    let outcome = token_rmw(Mode::Full);
    assert!(outcome.programs > 0);
}

/// A 2+2 partition from deployment start heals mid-run: with no side
/// holding a prepare quorum, every committed block proves post-heal
/// recovery — in virtual time and in wall-clock time.
#[test]
fn healing_partition_recovers_on_both_runtimes() {
    let outcome = healing_partition(Mode::Full);
    assert!(outcome.blocks > 0, "nothing committed after the heal");
}
