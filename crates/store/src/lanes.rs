//! Key-sharded execution lanes.
//!
//! The fabric's execute stage (see `resilientdb::pipeline`) can apply
//! committed batches on several *lanes* — threads that each own a
//! key-disjoint slice of the table ([`KvStore::split_lanes`]). This module
//! holds the pure partitioning logic: which lane a key belongs to, how a
//! batch's operations fan out across lanes, and how per-lane outcomes
//! reassemble into the exact [`TxnEffect`] sequential execution would have
//! produced.
//!
//! Correctness rests on two invariants:
//!
//! 1. **Per-key order.** `lane_of` is a pure function of the key, so every
//!    operation on a given key lands on the same lane; dispatching each
//!    lane's items in commit order therefore preserves the sequential
//!    per-key version history — which is all the XOR fingerprint observes.
//! 2. **Single counting.** An operation has exactly one *home* lane (its
//!    primary key's lane; lane 0 for `NoOp`). Only the home item bumps
//!    `StoreStats`/`applied_txns`, so summed lane stats equal sequential
//!    stats even for scans, which fan out to every lane whose keys the
//!    range crosses and report per-lane partial counts.

use crate::ops::{ExecOutcome, Operation, TxnEffect};
use crate::table::KvStore;
use crate::txn::TxnProgram;

/// Upper bound on lane count: lane footprints travel as `u64` bitmasks.
pub const MAX_LANES: usize = 64;

/// The lane owning `key`: a plain modulus, so a contiguous key range (and
/// hence a uniform YCSB draw) spreads evenly across lanes.
#[inline]
pub fn lane_of(key: u64, lanes: usize) -> usize {
    debug_assert!(lanes >= 1);
    (key % lanes as u64) as usize
}

/// The home lane of an operation — the lane that owns its primary key and
/// is charged with counting it. `NoOp` (keyless) homes on lane 0.
#[inline]
pub fn home_lane(op: &Operation, lanes: usize) -> usize {
    op.primary_key().map_or(0, |k| lane_of(k, lanes))
}

/// One operation routed to a lane by [`partition_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneItem {
    /// Index of the operation within the original batch.
    pub op_index: usize,
    /// The operation itself (scans keep their full range; a lane store
    /// only holds its own keys, so executing the range yields the lane's
    /// partial count).
    pub op: Operation,
    /// Whether this lane is the operation's home (counts stats, owns the
    /// outcome slot for non-scan operations).
    pub home: bool,
}

/// Bitmask of lanes a batch touches. Lane counts are capped at
/// [`MAX_LANES`] so the footprint always fits a `u64`; the scheduler uses
/// this for conflict accounting and the metrics layer for per-lane
/// occupancy.
pub fn lane_mask(ops: &[Operation], lanes: usize) -> u64 {
    debug_assert!((1..=MAX_LANES).contains(&lanes));
    let mut mask = 0u64;
    for op in ops {
        match op {
            Operation::Scan { key, count } => {
                mask |= 1 << lane_of(*key, lanes);
                let span = (*count as usize).min(lanes) as u64;
                for k in *key..key.saturating_add(span) {
                    mask |= 1 << lane_of(k, lanes);
                }
            }
            Operation::Txn(prog) => {
                mask |= 1 << home_lane(op, lanes);
                for key in prog.keys() {
                    mask |= 1 << lane_of(key, lanes);
                }
            }
            _ => mask |= 1 << home_lane(op, lanes),
        }
        if mask == ((1u128 << lanes) - 1) as u64 {
            break;
        }
    }
    mask
}

/// The lanes a program's static footprint spans. `None` when the program
/// fits a single lane (or touches no keys): such programs execute
/// lane-locally like any other operation.
pub fn program_span(prog: &TxnProgram, lanes: usize) -> Option<u64> {
    let mut mask = 0u64;
    for key in prog.keys() {
        mask |= 1 << lane_of(key, lanes);
    }
    (mask.count_ones() > 1).then_some(mask)
}

/// Fan a batch's operations out to `lanes` work lists, preserving batch
/// order within each lane. Single-key operations go to their home lane
/// only; scans go to every lane whose keys the range crosses (the first
/// `min(count, lanes)` keys of a contiguous range already visit each such
/// lane), with the home lane always included so empty scans still count.
///
/// Transaction programs are routed to their home lane, which is only
/// correct when their footprint fits that lane — batches that may carry
/// cross-lane programs must go through [`plan_batch`] instead.
pub fn partition_batch(ops: &[Operation], lanes: usize) -> Vec<Vec<LaneItem>> {
    let mut out: Vec<Vec<LaneItem>> = (0..lanes).map(|_| Vec::new()).collect();
    route_ops(ops.iter().enumerate(), lanes, &mut out);
    out
}

/// Route `(op_index, op)` pairs into per-lane work lists (the body of
/// [`partition_batch`], reused by [`plan_batch`] for the segments between
/// cross-lane programs).
fn route_ops<'a>(
    ops: impl Iterator<Item = (usize, &'a Operation)>,
    lanes: usize,
    out: &mut [Vec<LaneItem>],
) {
    for (op_index, op) in ops {
        match op {
            Operation::Scan { key, count } => {
                let home = lane_of(*key, lanes);
                let mut touched = vec![false; lanes];
                touched[home] = true;
                let span = (*count as usize).min(lanes) as u64;
                for k in *key..key.saturating_add(span) {
                    touched[lane_of(k, lanes)] = true;
                }
                for (lane, hit) in touched.into_iter().enumerate() {
                    if hit {
                        out[lane].push(LaneItem {
                            op_index,
                            op: op.clone(),
                            home: lane == home,
                        });
                    }
                }
            }
            _ => {
                let lane = home_lane(op, lanes);
                out[lane].push(LaneItem {
                    op_index,
                    op: op.clone(),
                    home: true,
                });
            }
        }
    }
}

/// A program whose static footprint spans multiple lanes: the executor
/// must gather its reads from their owning lanes, evaluate once, and
/// scatter the writes back — after every earlier operation on those lanes
/// and before every later one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramStep {
    /// Index of the program's operation within the original batch.
    pub op_index: usize,
    /// The program.
    pub prog: TxnProgram,
    /// The home lane (owns stats and the `applied_txns` count).
    pub home: usize,
    /// Bitmask of lanes the footprint spans.
    pub span: u64,
}

/// One step of a batch execution plan (see [`plan_batch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// Lane-local items (indexed by lane), freely executable in parallel
    /// across lanes; per-lane order is batch order.
    Items(Vec<Vec<LaneItem>>),
    /// A cross-lane program — a synchronization point between the
    /// surrounding [`PlanStep::Items`] segments.
    Program(ProgramStep),
}

/// Compile a batch into an ordered execution plan. Operations between
/// cross-lane programs form [`PlanStep::Items`] segments with the exact
/// [`partition_batch`] routing; each cross-lane program becomes its own
/// [`PlanStep::Program`]. Programs whose footprint fits one lane stay
/// ordinary lane items. For a batch without cross-lane programs the plan
/// is a single `Items` step identical to [`partition_batch`].
pub fn plan_batch<'a>(ops: impl IntoIterator<Item = &'a Operation>, lanes: usize) -> Vec<PlanStep> {
    let mut plan = Vec::new();
    let mut segment: Vec<Vec<LaneItem>> = (0..lanes).map(|_| Vec::new()).collect();
    let mut segment_empty = true;
    for (op_index, op) in ops.into_iter().enumerate() {
        let cross = match op {
            Operation::Txn(prog) => program_span(prog, lanes),
            _ => None,
        };
        match cross {
            Some(span) => {
                if !segment_empty {
                    plan.push(PlanStep::Items(std::mem::replace(
                        &mut segment,
                        (0..lanes).map(|_| Vec::new()).collect(),
                    )));
                    segment_empty = true;
                }
                let Operation::Txn(prog) = op else {
                    unreachable!("cross is Some only for Txn")
                };
                plan.push(PlanStep::Program(ProgramStep {
                    op_index,
                    prog: prog.clone(),
                    home: home_lane(op, lanes),
                    span,
                }));
            }
            None => {
                route_ops(std::iter::once((op_index, op)), lanes, &mut segment);
                segment_empty = false;
            }
        }
    }
    if !segment_empty {
        plan.push(PlanStep::Items(segment));
    }
    plan
}

/// Reassemble per-lane outcomes into the batch's [`TxnEffect`], in
/// operation order. Scan partials sum; every other operation takes its
/// home lane's outcome. `lane_outcomes[l]` must parallel `lane_items[l]`.
pub fn assemble_effect(
    ops: &[Operation],
    lane_items: &[Vec<LaneItem>],
    lane_outcomes: &[Vec<ExecOutcome>],
) -> TxnEffect {
    let mut outcomes: Vec<ExecOutcome> = ops
        .iter()
        .map(|op| match op {
            Operation::Scan { .. } => ExecOutcome::Scanned(0),
            _ => ExecOutcome::Done,
        })
        .collect();
    fold_outcomes(&mut outcomes, lane_items, lane_outcomes);
    TxnEffect { outcomes }
}

/// Merge per-lane outcomes into `outcomes` slots (the body of
/// [`assemble_effect`], reused for plan segments).
pub fn fold_outcomes(
    outcomes: &mut [ExecOutcome],
    lane_items: &[Vec<LaneItem>],
    lane_outcomes: &[Vec<ExecOutcome>],
) {
    for (items, outs) in lane_items.iter().zip(lane_outcomes) {
        debug_assert_eq!(items.len(), outs.len());
        for (item, out) in items.iter().zip(outs) {
            match out {
                ExecOutcome::Scanned(partial) => {
                    if let ExecOutcome::Scanned(total) = &mut outcomes[item.op_index] {
                        *total += partial;
                    }
                }
                other => {
                    if item.home {
                        outcomes[item.op_index] = other.clone();
                    }
                }
            }
        }
    }
}

/// Placeholder outcomes for a batch, to be filled by
/// [`fold_outcomes`]/program steps: scans start at `Scanned(0)` so lane
/// partials can sum, everything else at `Done`.
pub fn seed_outcomes(ops: &[Operation]) -> Vec<ExecOutcome> {
    ops.iter()
        .map(|op| match op {
            Operation::Scan { .. } => ExecOutcome::Scanned(0),
            _ => ExecOutcome::Done,
        })
        .collect()
}

/// Execute a cross-lane program step against lane stores in place:
/// gather reads from the owning lanes, evaluate once, scatter the writes
/// back. The home lane counts the program (and its abort); write
/// application bumps no per-class stats, mirroring sequential execution.
pub fn execute_program_sharded(
    lanes: &mut [KvStore],
    step: &ProgramStep,
    fingerprint: bool,
) -> ExecOutcome {
    let n = lanes.len();
    let (outcome, writes) = step.prog.eval_values(|k| lanes[lane_of(k, n)].get(k));
    for (key, value) in writes {
        lanes[lane_of(key, n)].apply_program_write(key, value, fingerprint);
    }
    lanes[step.home].note_program(outcome.is_aborted());
    ExecOutcome::Txn(outcome)
}

/// Execute a batch across lane stores (in-place, single-threaded),
/// returning the effect sequential [`KvStore::execute_batch`] would have
/// produced on the merged table. The threaded lane pool in
/// `resilientdb::pipeline` is the concurrent version of exactly this loop.
pub fn execute_batch_sharded(
    lanes: &mut [KvStore],
    ops: &[Operation],
    fingerprint: bool,
) -> TxnEffect {
    let mut outcomes = seed_outcomes(ops);
    for step in plan_batch(ops, lanes.len()) {
        match step {
            PlanStep::Items(items) => {
                let outs: Vec<Vec<ExecOutcome>> = items
                    .iter()
                    .zip(lanes.iter_mut())
                    .map(|(list, store)| {
                        list.iter()
                            .map(|it| store.execute_partial(&it.op, it.home, fingerprint))
                            .collect()
                    })
                    .collect();
                fold_outcomes(&mut outcomes, &items, &outs);
            }
            PlanStep::Program(step) => {
                outcomes[step.op_index] = execute_program_sharded(lanes, &step, fingerprint);
            }
        }
    }
    TxnEffect { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Value;

    #[test]
    fn lane_of_is_stable_modulus() {
        assert_eq!(lane_of(0, 4), 0);
        assert_eq!(lane_of(5, 4), 1);
        assert_eq!(lane_of(7, 1), 0);
    }

    #[test]
    fn partition_routes_single_key_ops_home() {
        let ops = vec![
            Operation::Write {
                key: 2,
                value: Value::from_u64(9),
            },
            Operation::Read { key: 3 },
            Operation::NoOp,
        ];
        let parts = partition_batch(&ops, 4);
        assert_eq!(parts[2].len(), 1, "write homes on lane 2");
        assert_eq!(parts[2][0].op_index, 0);
        assert_eq!(parts[3].len(), 1, "read homes on lane 3");
        assert_eq!(parts[0].len(), 1, "NoOp homes on lane 0");
        assert!(parts[1].is_empty());
        assert!(parts.iter().flatten().all(|it| it.home));
    }

    #[test]
    fn scan_fans_out_and_sums() {
        let mut whole = KvStore::with_ycsb_records(20);
        let mut parts = KvStore::with_ycsb_records(20).split_lanes(3);
        let ops = vec![Operation::Scan { key: 4, count: 9 }];
        let expect = whole.execute_batch(&ops);
        let got = execute_batch_sharded(&mut parts, &ops, true);
        assert_eq!(expect, got);
        let scans: u64 = parts.iter().map(|p| p.stats().scans).sum();
        assert_eq!(scans, 1, "only the home lane counts the scan");
        let applied: u64 = parts.iter().map(|p| p.applied_txns()).sum();
        assert_eq!(applied, whole.applied_txns());
    }

    #[test]
    fn empty_scan_still_counts_once() {
        let mut whole = KvStore::with_ycsb_records(8);
        let mut parts = KvStore::with_ycsb_records(8).split_lanes(4);
        let ops = vec![Operation::Scan { key: 100, count: 0 }];
        let expect = whole.execute_batch(&ops);
        let got = execute_batch_sharded(&mut parts, &ops, true);
        assert_eq!(expect, got);
        assert_eq!(parts.iter().map(|p| p.stats().scans).sum::<u64>(), 1);
    }

    #[test]
    fn sharded_batch_matches_sequential_all_lane_counts() {
        let ops = vec![
            Operation::Write {
                key: 1,
                value: Value::from_u64(5),
            },
            Operation::Rmw { key: 1, delta: 3 },
            Operation::Read { key: 1 },
            Operation::Scan { key: 0, count: 12 },
            Operation::Insert {
                key: 40,
                value: Value::from_u64(40),
            },
            Operation::Rmw { key: 40, delta: 1 },
            Operation::NoOp,
        ];
        let mut whole = KvStore::with_ycsb_records(16);
        let expect = whole.execute_batch(&ops);
        for lanes in [1usize, 2, 3, 4, 7, 16] {
            let mut parts = KvStore::with_ycsb_records(16).split_lanes(lanes);
            let got = execute_batch_sharded(&mut parts, &ops, true);
            assert_eq!(expect, got, "lanes={lanes}");
            assert_eq!(
                KvStore::combined_state_digest(&parts),
                whole.state_digest(),
                "lanes={lanes}"
            );
            let merged = KvStore::merge_lanes(parts);
            assert_eq!(merged.stats(), whole.stats(), "lanes={lanes}");
            assert_eq!(merged.applied_txns(), whole.applied_txns());
        }
    }

    #[test]
    fn cross_lane_programs_match_sequential() {
        use crate::txn::TxnProgram;
        // A batch mixing plain ops with single-lane and cross-lane
        // programs, including a program that reads what an earlier
        // program wrote on a different lane.
        let ops = vec![
            Operation::Write {
                key: 1,
                value: Value::from_u64(100),
            },
            Operation::Txn(TxnProgram::transfer(1, 2, 30)), // cross-lane at 2+
            Operation::Read { key: 2 },
            Operation::Txn(TxnProgram::transfer(2, 5, 25)),
            Operation::Txn(TxnProgram::transfer(4, 4, 1_000_000)), // aborts
            Operation::Rmw { key: 2, delta: 7 },
        ];
        let mut whole = KvStore::with_ycsb_records(16);
        let expect = whole.execute_batch(&ops);
        for lanes in [1usize, 2, 3, 4, 8] {
            let mut parts = KvStore::with_ycsb_records(16).split_lanes(lanes);
            let got = execute_batch_sharded(&mut parts, &ops, true);
            assert_eq!(expect, got, "lanes={lanes}");
            assert_eq!(
                KvStore::combined_state_digest(&parts),
                whole.state_digest(),
                "lanes={lanes}"
            );
            let merged = KvStore::merge_lanes(parts);
            assert_eq!(merged.stats(), whole.stats(), "lanes={lanes}");
            assert_eq!(merged.applied_txns(), whole.applied_txns());
        }
    }

    #[test]
    fn plan_batch_degenerates_to_partition_for_plain_batches() {
        let ops = vec![
            Operation::Write {
                key: 2,
                value: Value::from_u64(9),
            },
            Operation::Scan { key: 0, count: 6 },
            Operation::NoOp,
        ];
        let plan = plan_batch(&ops, 4);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0], PlanStep::Items(partition_batch(&ops, 4)));
        // Single-lane programs stay ordinary items too.
        let ops = vec![Operation::Txn(crate::txn::TxnProgram::transfer(0, 4, 1))];
        let plan = plan_batch(&ops, 4);
        assert_eq!(plan.len(), 1, "keys 0 and 4 share lane 0 at 4 lanes");
        // ...but span lanes at 3 lanes, forcing a program step.
        let plan = plan_batch(&ops, 3);
        assert!(matches!(&plan[0], PlanStep::Program(p) if p.span == 0b011));
    }

    #[test]
    fn lane_mask_covers_footprint() {
        let ops = vec![
            Operation::Write {
                key: 5,
                value: Value::from_u64(0),
            },
            Operation::NoOp,
        ];
        assert_eq!(lane_mask(&ops, 4), 0b0010 | 0b0001);
        let scan = vec![Operation::Scan { key: 0, count: 64 }];
        assert_eq!(lane_mask(&scan, 4), 0b1111);
        assert_eq!(lane_mask(&[], 4), 0);
        let one = vec![Operation::Read { key: 9 }];
        assert_eq!(lane_mask(&one, 1), 0b1);
    }
}
