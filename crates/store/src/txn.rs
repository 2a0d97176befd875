//! Deterministic register-machine transaction programs.
//!
//! The paper evaluates ResilientDB under YCSB only; this module supplies
//! the minimal smart-contract-style execution layer the "Beyond YCSB"
//! roadmap item calls for. A [`TxnProgram`] is *data*: it serializes over
//! the wire inside a client batch like any other operation and executes
//! identically on every replica and in the simulator, which is exactly
//! the determinism requirement of §2.1 ("on identical inputs, all
//! non-faulty replicas must produce identical outputs").
//!
//! The machine is deliberately tiny:
//!
//! * [`REGISTERS`] 64-bit registers, zero-initialised;
//! * straight-line instructions with **forward-only** branches
//!   ([`TxnInstr::BranchIf`] skips ahead), so every program terminates in
//!   at most `instrs.len()` steps — no gas metering needed;
//! * reads and writes name record keys *statically* in the instruction
//!   stream, so a program's key footprint ([`TxnProgram::keys`]) is known
//!   before execution.
//!
//! Arithmetic aborts — [`TxnAbort::Underflow`] on `Sub` below zero,
//! [`TxnAbort::Overflow`] on `Add` past `u64::MAX` — model the SmallBank
//! "insufficient funds" rule: an aborted program leaves the store
//! untouched, but the *batch still commits*; the abort is surfaced in the
//! [`crate::ExecOutcome`] so a client can hold a committed-but-aborted
//! transfer with an `f + 1` proof.
//!
//! Reads observe the program's own earlier writes (read-your-writes
//! within a program); committed writes are applied to the store in
//! ascending key order, once per key, after the program halts without
//! aborting.

use crate::table::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of 64-bit registers in the transaction machine.
pub const REGISTERS: usize = 8;

/// Upper bound on instructions per program (bounds wire size and
/// execution cost; programs are rejected as [`TxnAbort::Invalid`] past
/// it).
pub const MAX_INSTRS: usize = 64;

/// Comparison predicate for [`TxnInstr::BranchIf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cmp {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
}

impl Cmp {
    fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }
}

/// One instruction of the transaction machine.
///
/// Register operands are indices into the [`REGISTERS`]-wide register
/// file; out-of-range indices abort the program with
/// [`TxnAbort::Invalid`] (a malformed program must fail identically on
/// every replica, never panic).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TxnInstr {
    /// `r[dst] = counter(store[key])` — absent keys read as 0.
    Read {
        /// Destination register.
        dst: u8,
        /// Record key to read.
        key: u64,
    },
    /// Stage `store[key].counter = r[src]` into the write set.
    Write {
        /// Record key to write.
        key: u64,
        /// Source register.
        src: u8,
    },
    /// `r[dst] = imm`.
    Set {
        /// Destination register.
        dst: u8,
        /// Immediate value.
        imm: u64,
    },
    /// `r[dst] = r[dst] + r[src]`, aborting on overflow.
    Add {
        /// Destination (and left operand) register.
        dst: u8,
        /// Right operand register.
        src: u8,
    },
    /// `r[dst] = r[dst] - r[src]`, aborting on underflow — the SmallBank
    /// "insufficient funds" check.
    Sub {
        /// Destination (and left operand) register.
        dst: u8,
        /// Right operand register.
        src: u8,
    },
    /// If `cmp(r[a], r[b])`, skip the next `skip` instructions
    /// (forward-only, so execution always terminates).
    BranchIf {
        /// Left comparison operand register.
        a: u8,
        /// Comparison predicate.
        cmp: Cmp,
        /// Right comparison operand register.
        b: u8,
        /// Instructions to skip when the predicate holds.
        skip: u8,
    },
    /// Abort explicitly with an application-defined code.
    Abort {
        /// Application-defined abort code.
        code: u32,
    },
    /// Halt successfully; `r[0]` is the program's return value. Falling
    /// off the end of the instruction stream halts the same way.
    Halt,
}

/// Why a program aborted. Aborts are deterministic program outcomes, not
/// errors: the enclosing batch still commits and the abort is visible in
/// the replicated [`crate::ExecOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TxnAbort {
    /// A `Sub` would have gone below zero (insufficient funds).
    Underflow {
        /// Program counter of the faulting instruction.
        pc: u32,
    },
    /// An `Add` would have exceeded `u64::MAX`.
    Overflow {
        /// Program counter of the faulting instruction.
        pc: u32,
    },
    /// The program executed [`TxnInstr::Abort`].
    Explicit {
        /// Application-defined abort code.
        code: u32,
        /// Program counter of the abort instruction.
        pc: u32,
    },
    /// The program was malformed: a register index out of range, a branch
    /// target past the end, or more than [`MAX_INSTRS`] instructions.
    Invalid {
        /// Program counter of the faulting instruction (0 for a
        /// too-long program).
        pc: u32,
    },
}

/// The outcome of running one program: committed with a return value, or
/// aborted (store untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TxnOutcome {
    /// The program halted; its writes were applied. Carries `r[0]`.
    Committed {
        /// The value of register 0 at halt.
        ret: u64,
    },
    /// The program aborted; no writes were applied.
    Aborted(TxnAbort),
}

impl TxnOutcome {
    /// True when the program aborted.
    pub fn is_aborted(&self) -> bool {
        matches!(self, TxnOutcome::Aborted(_))
    }

    /// The canonical byte encoding fed into result digests (see
    /// `rdb-consensus`): a tag byte plus little-endian payload. Two
    /// replicas reporting different outcomes for the same program
    /// therefore produce different reply digests, so clients can prove
    /// an abort with `f + 1` matching replies like any other result.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(14);
        match self {
            TxnOutcome::Committed { ret } => {
                out.push(0);
                out.extend_from_slice(&ret.to_le_bytes());
            }
            TxnOutcome::Aborted(abort) => {
                out.push(1);
                match abort {
                    TxnAbort::Underflow { pc } => {
                        out.push(0);
                        out.extend_from_slice(&pc.to_le_bytes());
                    }
                    TxnAbort::Overflow { pc } => {
                        out.push(1);
                        out.extend_from_slice(&pc.to_le_bytes());
                    }
                    TxnAbort::Explicit { code, pc } => {
                        out.push(2);
                        out.extend_from_slice(&code.to_le_bytes());
                        out.extend_from_slice(&pc.to_le_bytes());
                    }
                    TxnAbort::Invalid { pc } => {
                        out.push(3);
                        out.extend_from_slice(&pc.to_le_bytes());
                    }
                }
            }
        }
        out
    }
}

/// A deterministic transaction program: the unit that rides inside
/// [`crate::Operation::Txn`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TxnProgram {
    /// The instruction stream.
    pub instrs: Vec<TxnInstr>,
}

impl TxnProgram {
    /// Build a program from instructions.
    pub fn new(instrs: Vec<TxnInstr>) -> TxnProgram {
        TxnProgram { instrs }
    }

    /// The static key footprint: every key any instruction could read or
    /// write, regardless of branch outcomes, in ascending order.
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .instrs
            .iter()
            .filter_map(|i| match i {
                TxnInstr::Read { key, .. } | TxnInstr::Write { key, .. } => Some(*key),
                _ => None,
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The static write footprint (keys any `Write` names), ascending.
    pub fn write_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .instrs
            .iter()
            .filter_map(|i| match i {
                TxnInstr::Write { key, .. } => Some(*key),
                _ => None,
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Number of instructions (the unit the simulator charges execution
    /// cost in, over and above the per-transaction baseline).
    pub fn cost(&self) -> usize {
        self.instrs.len()
    }

    /// Execute against `read` (current committed counter per key; absent
    /// keys read as 0). Returns the outcome plus the final write set as
    /// `(key, counter)` pairs in ascending key order — empty when
    /// aborted. Pure: the caller applies the writes.
    pub fn eval(&self, mut read: impl FnMut(u64) -> u64) -> (TxnOutcome, Vec<(u64, u64)>) {
        if self.instrs.len() > MAX_INSTRS {
            return (TxnOutcome::Aborted(TxnAbort::Invalid { pc: 0 }), Vec::new());
        }
        let mut regs = [0u64; REGISTERS];
        // Program-local write overlay: reads observe earlier writes.
        let mut writes: BTreeMap<u64, u64> = BTreeMap::new();
        let mut pc = 0usize;
        let invalid = |pc: usize| {
            (
                TxnOutcome::Aborted(TxnAbort::Invalid { pc: pc as u32 }),
                Vec::new(),
            )
        };
        while pc < self.instrs.len() {
            match &self.instrs[pc] {
                TxnInstr::Read { dst, key } => {
                    let Some(slot) = regs.get_mut(*dst as usize) else {
                        return invalid(pc);
                    };
                    *slot = match writes.get(key) {
                        Some(v) => *v,
                        None => read(*key),
                    };
                }
                TxnInstr::Write { key, src } => {
                    let Some(v) = regs.get(*src as usize) else {
                        return invalid(pc);
                    };
                    writes.insert(*key, *v);
                }
                TxnInstr::Set { dst, imm } => {
                    let Some(slot) = regs.get_mut(*dst as usize) else {
                        return invalid(pc);
                    };
                    *slot = *imm;
                }
                TxnInstr::Add { dst, src } => {
                    let (Some(&b), Some(&a)) = (regs.get(*src as usize), regs.get(*dst as usize))
                    else {
                        return invalid(pc);
                    };
                    match a.checked_add(b) {
                        Some(v) => regs[*dst as usize] = v,
                        None => {
                            return (
                                TxnOutcome::Aborted(TxnAbort::Overflow { pc: pc as u32 }),
                                Vec::new(),
                            )
                        }
                    }
                }
                TxnInstr::Sub { dst, src } => {
                    let (Some(&b), Some(&a)) = (regs.get(*src as usize), regs.get(*dst as usize))
                    else {
                        return invalid(pc);
                    };
                    match a.checked_sub(b) {
                        Some(v) => regs[*dst as usize] = v,
                        None => {
                            return (
                                TxnOutcome::Aborted(TxnAbort::Underflow { pc: pc as u32 }),
                                Vec::new(),
                            )
                        }
                    }
                }
                TxnInstr::BranchIf { a, cmp, b, skip } => {
                    let (Some(&av), Some(&bv)) = (regs.get(*a as usize), regs.get(*b as usize))
                    else {
                        return invalid(pc);
                    };
                    if cmp.eval(av, bv) {
                        let target = pc + 1 + *skip as usize;
                        if target > self.instrs.len() {
                            return invalid(pc);
                        }
                        pc = target;
                        continue;
                    }
                }
                TxnInstr::Abort { code } => {
                    return (
                        TxnOutcome::Aborted(TxnAbort::Explicit {
                            code: *code,
                            pc: pc as u32,
                        }),
                        Vec::new(),
                    );
                }
                TxnInstr::Halt => break,
            }
            pc += 1;
        }
        (
            TxnOutcome::Committed { ret: regs[0] },
            writes.into_iter().collect(),
        )
    }

    /// Convenience interpreter over [`Value`]s: reads go through the
    /// value's embedded counter, and the returned write set carries full
    /// values produced with [`Value::with_counter`] over the key's
    /// current value (preserving non-counter bytes, like `Rmw` does).
    pub fn eval_values(
        &self,
        mut read: impl FnMut(u64) -> Option<Value>,
    ) -> (TxnOutcome, Vec<(u64, Value)>) {
        let mut cache: BTreeMap<u64, Option<Value>> = BTreeMap::new();
        let (outcome, writes) = self.eval(|key| {
            cache
                .entry(key)
                .or_insert_with(|| read(key))
                .map(|v| v.counter())
                .unwrap_or(0)
        });
        let writes = writes
            .into_iter()
            .map(|(key, counter)| {
                let current = cache
                    .entry(key)
                    .or_insert_with(|| read(key))
                    .unwrap_or(Value::from_u64(0));
                (key, current.with_counter(counter))
            })
            .collect();
        (outcome, writes)
    }

    /// The canonical byte encoding fed into batch digests (see
    /// `rdb-consensus`): instruction count, then one tag byte plus
    /// little-endian operands per instruction. Any change to a program
    /// changes these bytes, so equivocating on program contents changes
    /// the batch digest like any other payload tampering.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.instrs.len() * 10);
        out.extend_from_slice(&(self.instrs.len() as u64).to_le_bytes());
        for i in &self.instrs {
            match i {
                TxnInstr::Read { dst, key } => {
                    out.push(0);
                    out.push(*dst);
                    out.extend_from_slice(&key.to_le_bytes());
                }
                TxnInstr::Write { key, src } => {
                    out.push(1);
                    out.push(*src);
                    out.extend_from_slice(&key.to_le_bytes());
                }
                TxnInstr::Set { dst, imm } => {
                    out.push(2);
                    out.push(*dst);
                    out.extend_from_slice(&imm.to_le_bytes());
                }
                TxnInstr::Add { dst, src } => {
                    out.push(3);
                    out.push(*dst);
                    out.push(*src);
                }
                TxnInstr::Sub { dst, src } => {
                    out.push(4);
                    out.push(*dst);
                    out.push(*src);
                }
                TxnInstr::BranchIf { a, cmp, b, skip } => {
                    out.push(5);
                    out.push(*a);
                    out.push(match cmp {
                        Cmp::Eq => 0,
                        Cmp::Ne => 1,
                        Cmp::Lt => 2,
                        Cmp::Le => 3,
                        Cmp::Gt => 4,
                        Cmp::Ge => 5,
                    });
                    out.push(*b);
                    out.push(*skip);
                }
                TxnInstr::Abort { code } => {
                    out.push(6);
                    out.extend_from_slice(&code.to_le_bytes());
                }
                TxnInstr::Halt => out.push(7),
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Canned programs (used by the scenario layer, examples and tests)
    // ------------------------------------------------------------------

    /// SmallBank-style transfer: move `amount` from `from` to `to`,
    /// aborting with [`TxnAbort::Underflow`] when `from` holds less than
    /// `amount`. Returns the sender's post-transfer balance in `r[0]`.
    pub fn transfer(from: u64, to: u64, amount: u64) -> TxnProgram {
        TxnProgram::new(vec![
            TxnInstr::Read { dst: 0, key: from },
            TxnInstr::Set {
                dst: 1,
                imm: amount,
            },
            // Underflow-aborts when balance < amount: the SmallBank
            // insufficient-funds rule.
            TxnInstr::Sub { dst: 0, src: 1 },
            TxnInstr::Write { key: from, src: 0 },
            TxnInstr::Read { dst: 2, key: to },
            TxnInstr::Add { dst: 2, src: 1 },
            TxnInstr::Write { key: to, src: 2 },
            TxnInstr::Halt,
        ])
    }

    /// Guarded SmallBank transfer: branch on the balance check instead of
    /// relying on the `Sub` abort — moves nothing and returns `0` when
    /// funds are short, demonstrating `BranchIf`.
    pub fn transfer_checked(from: u64, to: u64, amount: u64) -> TxnProgram {
        TxnProgram::new(vec![
            TxnInstr::Read { dst: 0, key: from },
            TxnInstr::Set {
                dst: 1,
                imm: amount,
            },
            // If balance < amount, skip the 5 transfer instructions and
            // fall through to Halt with r[0] = 0.
            TxnInstr::BranchIf {
                a: 0,
                cmp: Cmp::Lt,
                b: 1,
                skip: 6,
            },
            TxnInstr::Sub { dst: 0, src: 1 },
            TxnInstr::Write { key: from, src: 0 },
            TxnInstr::Read { dst: 2, key: to },
            TxnInstr::Add { dst: 2, src: 1 },
            TxnInstr::Write { key: to, src: 2 },
            TxnInstr::Halt,
            TxnInstr::Set { dst: 0, imm: 0 },
            TxnInstr::Halt,
        ])
    }

    /// Multi-key token mint: atomically add `amount` to every account and
    /// the same total to a supply record — a read-modify-write over an
    /// arbitrary key set.
    pub fn mint(supply: u64, accounts: &[u64], amount: u64) -> TxnProgram {
        let mut instrs = vec![TxnInstr::Set {
            dst: 1,
            imm: amount,
        }];
        for &acct in accounts {
            instrs.push(TxnInstr::Read { dst: 2, key: acct });
            instrs.push(TxnInstr::Add { dst: 2, src: 1 });
            instrs.push(TxnInstr::Write { key: acct, src: 2 });
            instrs.push(TxnInstr::Read {
                dst: 0,
                key: supply,
            });
            instrs.push(TxnInstr::Add { dst: 0, src: 1 });
            instrs.push(TxnInstr::Write {
                key: supply,
                src: 0,
            });
        }
        instrs.push(TxnInstr::Halt);
        TxnProgram::new(instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(prog: &TxnProgram, state: &[(u64, u64)]) -> (TxnOutcome, Vec<(u64, u64)>) {
        prog.eval(|k| {
            state
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        })
    }

    #[test]
    fn transfer_moves_funds() {
        let p = TxnProgram::transfer(1, 2, 30);
        let (out, writes) = run(&p, &[(1, 100), (2, 5)]);
        assert_eq!(out, TxnOutcome::Committed { ret: 70 });
        assert_eq!(writes, vec![(1, 70), (2, 35)]);
    }

    #[test]
    fn transfer_underflow_aborts_without_writes() {
        let p = TxnProgram::transfer(1, 2, 30);
        let (out, writes) = run(&p, &[(1, 10)]);
        assert_eq!(out, TxnOutcome::Aborted(TxnAbort::Underflow { pc: 2 }));
        assert!(writes.is_empty());
    }

    #[test]
    fn checked_transfer_branches_instead_of_aborting() {
        let p = TxnProgram::transfer_checked(1, 2, 30);
        let (out, writes) = run(&p, &[(1, 10)]);
        assert_eq!(out, TxnOutcome::Committed { ret: 0 });
        assert!(writes.is_empty());
        let (out, writes) = run(&p, &[(1, 50)]);
        assert_eq!(out, TxnOutcome::Committed { ret: 20 });
        assert_eq!(writes, vec![(1, 20), (2, 30)]);
    }

    #[test]
    fn reads_observe_own_writes() {
        let p = TxnProgram::new(vec![
            TxnInstr::Set { dst: 0, imm: 7 },
            TxnInstr::Write { key: 9, src: 0 },
            TxnInstr::Read { dst: 3, key: 9 },
            TxnInstr::Set { dst: 0, imm: 0 },
            TxnInstr::Add { dst: 0, src: 3 },
        ]);
        let (out, writes) = run(&p, &[(9, 1)]);
        assert_eq!(out, TxnOutcome::Committed { ret: 7 });
        assert_eq!(writes, vec![(9, 7)]);
    }

    #[test]
    fn mint_touches_all_accounts_once() {
        let p = TxnProgram::mint(100, &[1, 2, 3], 10);
        let (out, writes) = run(&p, &[(100, 5)]);
        assert_eq!(out, TxnOutcome::Committed { ret: 35 });
        assert_eq!(writes, vec![(1, 10), (2, 10), (3, 10), (100, 35)]);
        assert_eq!(p.keys(), vec![1, 2, 3, 100]);
        assert_eq!(p.write_keys(), vec![1, 2, 3, 100]);
    }

    #[test]
    fn explicit_abort_and_codes() {
        let p = TxnProgram::new(vec![TxnInstr::Abort { code: 42 }]);
        let (out, _) = run(&p, &[]);
        assert_eq!(
            out,
            TxnOutcome::Aborted(TxnAbort::Explicit { code: 42, pc: 0 })
        );
    }

    #[test]
    fn overflow_aborts() {
        let p = TxnProgram::new(vec![
            TxnInstr::Set {
                dst: 0,
                imm: u64::MAX,
            },
            TxnInstr::Set { dst: 1, imm: 1 },
            TxnInstr::Add { dst: 0, src: 1 },
        ]);
        let (out, _) = run(&p, &[]);
        assert_eq!(out, TxnOutcome::Aborted(TxnAbort::Overflow { pc: 2 }));
    }

    #[test]
    fn malformed_programs_abort_deterministically() {
        // Register out of range.
        let p = TxnProgram::new(vec![TxnInstr::Set { dst: 8, imm: 1 }]);
        assert_eq!(
            run(&p, &[]).0,
            TxnOutcome::Aborted(TxnAbort::Invalid { pc: 0 })
        );
        // Branch past the end.
        let p = TxnProgram::new(vec![TxnInstr::BranchIf {
            a: 0,
            cmp: Cmp::Eq,
            b: 0,
            skip: 5,
        }]);
        assert_eq!(
            run(&p, &[]).0,
            TxnOutcome::Aborted(TxnAbort::Invalid { pc: 0 })
        );
        // Too long.
        let p = TxnProgram::new(vec![TxnInstr::Halt; MAX_INSTRS + 1]);
        assert_eq!(
            run(&p, &[]).0,
            TxnOutcome::Aborted(TxnAbort::Invalid { pc: 0 })
        );
    }

    #[test]
    fn branch_to_exact_end_halts() {
        let p = TxnProgram::new(vec![
            TxnInstr::Set { dst: 0, imm: 3 },
            TxnInstr::BranchIf {
                a: 0,
                cmp: Cmp::Gt,
                b: 1,
                skip: 1,
            },
            TxnInstr::Set { dst: 0, imm: 99 },
        ]);
        let (out, _) = run(&p, &[]);
        assert_eq!(out, TxnOutcome::Committed { ret: 3 });
    }

    #[test]
    fn eval_values_preserves_non_counter_bytes() {
        let mut base = Value::from_u64(10);
        base.0[8] = 0xAB;
        let p = TxnProgram::transfer(1, 2, 4);
        let (out, writes) = p.eval_values(|k| if k == 1 { Some(base) } else { None });
        assert_eq!(out, TxnOutcome::Committed { ret: 6 });
        let w1 = writes.iter().find(|(k, _)| *k == 1).unwrap().1;
        assert_eq!(w1.counter(), 6);
        assert_eq!(w1.0[8], 0xAB, "non-counter bytes preserved");
        let w2 = writes.iter().find(|(k, _)| *k == 2).unwrap().1;
        assert_eq!(w2.counter(), 4);
    }
}
