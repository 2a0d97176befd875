//! Deterministic transaction-program workloads.
//!
//! A workload here is a *source factory*: given a client id and the run
//! seed it returns a [`BatchSource`] producing that client's batches. The
//! same factory is installed in the simulator
//! (`Scenario::source_factory`) and the fabric
//! (`Fabric::spawn_source_clients`), and every choice below is a pure
//! function of `(seed, client, batch_seq, position)` — so both runtimes
//! propose byte-identical batches and the committed chains can be
//! compared byte for byte.
//!
//! Stores are preloaded with the YCSB records (`Value::from_u64(key)`),
//! so account `k` starts with balance `k`: the low-numbered "hot"
//! accounts are chronically underfunded, which is what makes the
//! SmallBank underflow abort a *natural* outcome of the workload rather
//! than an injected error.

use rdb_common::ids::ClientId;
use rdb_consensus::clients::BatchSource;
use rdb_consensus::types::{ClientBatch, Transaction};
use rdb_store::{Operation, TxnProgram};
use std::sync::Arc;

/// A shared, cloneable source factory: the shape both runtimes accept.
pub type SourceFactory = Arc<dyn Fn(ClientId, u64) -> BatchSource + Send + Sync>;

/// SplitMix64-style finalizer: a well-mixed pure function of its input,
/// used to derive every workload choice deterministically.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

/// Derive a 64-bit stream for one operation slot.
fn slot_rng(seed: u64, client: ClientId, batch_seq: u64, i: u64) -> u64 {
    let c = ((client.cluster.0 as u64) << 32) | client.index as u64;
    mix(seed
        ^ mix(c)
        ^ mix(batch_seq
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i)))
}

/// Number of chronically underfunded "hot" accounts at the bottom of the
/// key space (balances 0..4 at preload).
pub const HOT_ACCOUNTS: u64 = 4;

/// SmallBank-style transfer mix over `accounts` preloaded balances.
///
/// Per batch slot:
/// * ~1/4 transfers *from* a hot account — amounts far above the hot
///   balance, so most of these surface [`rdb_store::TxnAbort::Underflow`]
///   (committed-but-aborted transfers, visible in the replicated
///   outcomes);
/// * ~1/4 transfers *to* a hot account (tops hot balances back up, so
///   some hot-sourced transfers later succeed — aborts stay data-, not
///   schedule-dependent);
/// * ~1/4 transfers between well-funded accounts (commits);
/// * ~1/4 guarded [`TxnProgram::transfer_checked`] transfers, exercising
///   the branch path instead of the abort path.
pub fn smallbank_factory(accounts: u64, batch: usize) -> SourceFactory {
    assert!(accounts > HOT_ACCOUNTS + 2, "need room for rich accounts");
    Arc::new(move |client, seed| smallbank_source(client, seed, accounts, batch))
}

/// One client's SmallBank batch stream (see [`smallbank_factory`]).
pub fn smallbank_source(client: ClientId, seed: u64, accounts: u64, batch: usize) -> BatchSource {
    Box::new(move |batch_seq| ClientBatch {
        client,
        batch_seq,
        txns: (0..batch as u64)
            .map(|i| {
                let r = slot_rng(seed, client, batch_seq, i);
                let rich_span = accounts - HOT_ACCOUNTS;
                let rich = |x: u64| HOT_ACCOUNTS + x % rich_span;
                let hot = |x: u64| x % HOT_ACCOUNTS;
                let prog = match r % 4 {
                    // Hot account pays out far more than it holds.
                    0 => TxnProgram::transfer(hot(r >> 2), rich(r >> 8), 10 + (r >> 16) % 40),
                    // Top a hot account back up.
                    1 => TxnProgram::transfer(rich(r >> 2), hot(r >> 8), 1 + (r >> 16) % 4),
                    // Rich-to-rich, usually funded.
                    2 => TxnProgram::transfer(rich(r >> 2), rich(r >> 8), 1 + (r >> 16) % 16),
                    // Guarded transfer: branches instead of aborting.
                    _ => {
                        TxnProgram::transfer_checked(rich(r >> 2), hot(r >> 8), 1 + (r >> 16) % 16)
                    }
                };
                Transaction {
                    client,
                    seq: batch_seq * batch as u64 + i,
                    op: Operation::Txn(prog),
                }
            })
            .collect(),
    })
}

/// The supply record of the token workload (preloaded balance 0).
pub const TOKEN_SUPPLY_KEY: u64 = 0;

/// Multi-key token read-modify-write mix over accounts `1..=accounts`.
///
/// Every third slot is a [`TxnProgram::mint`] over a 4-account window
/// plus the supply record — a 5-key read-modify-write. The rest are
/// transfers within the token account set, so the conservation
/// invariant holds on the final state:
///
/// `sum(balances) - sum(preloaded balances) == supply - 0`
pub fn token_factory(accounts: u64, batch: usize) -> SourceFactory {
    assert!(accounts >= 8, "need a 4-account mint window");
    Arc::new(move |client, seed| token_source(client, seed, accounts, batch))
}

/// One client's token batch stream (see [`token_factory`]).
pub fn token_source(client: ClientId, seed: u64, accounts: u64, batch: usize) -> BatchSource {
    Box::new(move |batch_seq| ClientBatch {
        client,
        batch_seq,
        txns: (0..batch as u64)
            .map(|i| {
                let r = slot_rng(seed, client, batch_seq, i).wrapping_add(0x70CE);
                let acct = |x: u64| 1 + x % accounts;
                let prog = if r.is_multiple_of(3) {
                    let base = 1 + (r >> 2) % (accounts - 3);
                    TxnProgram::mint(
                        TOKEN_SUPPLY_KEY,
                        &[base, base + 1, base + 2, base + 3],
                        1 + (r >> 16) % 8,
                    )
                } else {
                    TxnProgram::transfer(acct(r >> 2), acct(r >> 8), 1 + (r >> 16) % 12)
                };
                Transaction {
                    client,
                    seq: batch_seq * batch as u64 + i,
                    op: Operation::Txn(prog),
                }
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_bytes(src: &mut BatchSource, seq: u64) -> Vec<u8> {
        let b = (src)(seq);
        let mut out = Vec::new();
        for t in &b.txns {
            if let Operation::Txn(p) = &t.op {
                out.extend(p.canonical_bytes());
            }
        }
        out
    }

    #[test]
    fn sources_are_deterministic_across_instances() {
        let cid = ClientId::new(0, 0);
        for factory in [smallbank_factory(500, 5), token_factory(64, 5)] {
            let mut a = factory(cid, 7);
            let mut b = factory(cid, 7);
            for seq in 0..10 {
                assert_eq!(batch_bytes(&mut a, seq), batch_bytes(&mut b, seq));
            }
        }
    }

    #[test]
    fn distinct_clients_and_seeds_produce_distinct_streams() {
        let f = smallbank_factory(500, 5);
        let mut a = f(ClientId::new(0, 0), 7);
        let mut b = f(ClientId::new(0, 1), 7);
        let mut c = f(ClientId::new(0, 0), 8);
        let base = batch_bytes(&mut a, 0);
        assert_ne!(base, batch_bytes(&mut b, 0), "client id must matter");
        assert_ne!(base, batch_bytes(&mut c, 0), "seed must matter");
    }

    #[test]
    fn smallbank_surfaces_underflow_aborts_on_preloaded_balances() {
        // Run the first batches of one client against the preloaded
        // store: the hot-account mix must produce both commits and
        // underflow aborts (the scenario assertions rely on both).
        let mut store = rdb_store::KvStore::with_ycsb_records(500);
        let mut src = smallbank_factory(500, 5)(ClientId::new(0, 0), 7);
        let mut commits = 0;
        let mut aborts = 0;
        for seq in 0..20 {
            let batch = (src)(seq);
            for t in &batch.txns {
                match store.execute(&t.op) {
                    rdb_store::ExecOutcome::Txn(o) if o.is_aborted() => aborts += 1,
                    rdb_store::ExecOutcome::Txn(_) => commits += 1,
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
        assert!(commits > 0, "no transfer ever committed");
        assert!(aborts > 0, "no transfer ever aborted");
    }

    #[test]
    fn token_mix_conserves_supply() {
        let accounts = 64u64;
        let mut store = rdb_store::KvStore::with_ycsb_records(accounts + 1);
        let initial: u64 = (1..=accounts).sum();
        let mut src = token_factory(accounts, 5)(ClientId::new(0, 0), 7);
        for seq in 0..30 {
            let batch = (src)(seq);
            for t in &batch.txns {
                store.execute(&t.op);
            }
        }
        let total: u64 = (1..=accounts)
            .map(|k| store.get(k).map(|v| v.counter()).unwrap_or(0))
            .sum();
        let supply = store
            .get(TOKEN_SUPPLY_KEY)
            .map(|v| v.counter())
            .unwrap_or(0);
        assert!(supply > 0, "no mint ever ran");
        assert_eq!(total - initial, supply, "token conservation violated");
    }
}
