//! The log-structured persistent engine.
//!
//! A [`LogBackend`] owns one directory:
//!
//! ```text
//! <dir>/wal                      the write-ahead log (crate::wal)
//! <dir>/<keyspace>-<seq>.run     sorted immutable runs (crate::run)
//! ```
//!
//! Writes land in the WAL first (one record per batch, so a batch is
//! atomic under crash), then in per-keyspace in-memory memtables. When the
//! memtables exceed [`LogConfig::memtable_bytes`] — or on an explicit
//! [`flush`](crate::StorageBackend::flush) — each dirty memtable is streamed
//! out as a new sorted run and the WAL is reset (everything it protected is
//! now durable in runs). What stays in memory of a run is a [`Run`] handle
//! — path, entry count and a sparse key index — never its payload:
//! [`LogBackend::resident_bytes`] is bounded by the memtable threshold
//! however much has been written.
//!
//! ## Compaction policy, per keyspace
//!
//! * `blocks` and `checkpoints` are **append-only and never compact**.
//!   Their keys are heights, so each flush adds a run disjoint from every
//!   older one and a merge would only rewrite bytes. Never merging is
//!   always *correct* — reads go newest-first whatever the keys are — it
//!   only gives up reclaiming the space of overwritten keys, which these
//!   keyspaces do not have.
//! * `table` and `meta` compact **size-tiered**, with
//!   [`LogConfig::compact_runs`] as the fan-out `T`: whenever the oldest of
//!   the newest `T` runs is no bigger than the `T − 1` above it combined,
//!   those `T` age-contiguous runs are merged into one. Small runs merge
//!   among themselves, and a big old run is rewritten only once the tier
//!   above it rivals it in size.
//!
//! A merge is one streaming pass ([`Merge`]) from run files to a run file.
//! One invariant keeps it invisible to readers: **the merged run takes the
//! newest input's sequence number** (tmp + rename over that input; the
//! older inputs are deleted afterwards), so on reopen it still sorts
//! between its un-merged neighbours — a fresh number would make it shadow
//! newer runs. Its header records the oldest sequence number it covers;
//! inputs a crash left behind fall inside that range and are removed at
//! open. They only duplicate what the merged run holds, so reading them
//! would be waste and merging them again write amplification.
//!
//! ## Recovery state machine (at [`LogBackend::open`])
//!
//! 1. remove orphaned `*.tmp` files; validate and index every
//!    `<ks>-<seq>.run` ([`Run::open`]: magic, checksum, framing, key order
//!    — any failure fails the open, so a run of an older format is
//!    refused), order them by sequence number (older seq = older data),
//!    and drop the inputs of a merge that crashed before deleting them;
//! 2. replay the WAL (a WAL of an older format is refused too): every
//!    checksummed record re-applies one whole batch to the memtables; the
//!    first torn/corrupt frame truncates the file;
//! 3. serve reads newest-first: memtable, then runs from newest to oldest.

use crate::backend::{Keyspace, StorageBackend, StorageStats, WriteBatch, WriteOp};
use crate::run::{Memtable, Merge, Run, RunWriter};
use crate::wal::Wal;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Tuning knobs for [`LogBackend`].
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Flush memtables to runs once their resident payload exceeds this
    /// many bytes (keys + values, summed over keyspaces).
    pub memtable_bytes: usize,
    /// Fan-out of the size-tiered compaction of the `table` and `meta`
    /// keyspaces: this many age-contiguous runs of similar size merge into
    /// one (values below 2 act as 2). See the module docs.
    pub compact_runs: usize,
    /// `fsync` after WAL appends and run writes. Off in CI and benches;
    /// the crash-safety tests model torn writes by truncating files, which
    /// is independent of fsync.
    pub fsync: bool,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self {
            memtable_bytes: 1 << 20,
            compact_runs: 4,
            fsync: false,
        }
    }
}

/// One keyspace's mutable state: resident writes plus on-disk runs.
#[derive(Debug, Default)]
struct Space {
    memtable: Memtable,
    /// Runs oldest → newest, each paired with its sequence number.
    runs: Vec<(u64, Run)>,
}

/// Log-structured persistent engine over `std::fs`.
#[derive(Debug)]
pub struct LogBackend {
    dir: PathBuf,
    cfg: LogConfig,
    wal: Wal,
    spaces: [Space; 4],
    /// Payload bytes resident in memtables (flush trigger).
    memtable_bytes: usize,
    /// Next run-file sequence number.
    next_seq: u64,
    stats: StorageStats,
}

/// Keyspaces keyed by height: every flush is disjoint from the runs before
/// it, so they are never merged (module docs).
fn append_only(ks: Keyspace) -> bool {
    matches!(ks, Keyspace::Blocks | Keyspace::Checkpoints)
}

/// The size-tiered rule over run sizes ordered oldest → newest: the newest
/// `fan_out` runs, if the oldest of them is no bigger than the rest of them
/// combined.
fn tier_window(sizes: &[u64], fan_out: usize) -> Option<Range<usize>> {
    let start = sizes.len().checked_sub(fan_out.max(2))?;
    let newer: u64 = sizes[start + 1..].iter().sum();
    (sizes[start] <= newer).then_some(start..sizes.len())
}

impl LogBackend {
    /// Open (creating if needed) the engine rooted at `dir` and run the
    /// recovery state machine described at module level.
    pub fn open(dir: &Path, cfg: LogConfig) -> io::Result<LogBackend> {
        fs::create_dir_all(dir)?;
        let mut stats = StorageStats::default();

        // 1. Validate and index runs, ascending by sequence number.
        let mut spaces: [Space; 4] = Default::default();
        let mut next_seq = 1;
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                // A flush or merge that crashed before its rename.
                fs::remove_file(&path)?;
                continue;
            }
            let Some((ks, seq)) = parse_run_name(name) else {
                continue;
            };
            let run = Run::open(&path)?;
            if run.ks() != ks || run.covers_from() > seq {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: header does not match the file name", path.display()),
                ));
            }
            spaces[ks.index()].runs.push((seq, run));
            next_seq = next_seq.max(seq + 1);
        }
        for space in &mut spaces {
            space.runs.sort_by_key(|(seq, _)| *seq);
            // Newest → oldest: a run numbered inside the range a newer run
            // covers is an input of a merge that crashed before deleting
            // it. The merged run holds all it held, so it is not read.
            let mut covered_from = u64::MAX;
            let mut kept = Vec::new();
            for (seq, run) in space.runs.drain(..).rev() {
                if seq >= covered_from {
                    fs::remove_file(run.path())?;
                    continue;
                }
                covered_from = run.covers_from();
                stats.keys_recovered += run.count();
                kept.push((seq, run));
            }
            kept.reverse();
            space.runs = kept;
        }

        // 2. Replay the WAL into the memtables (truncating any torn tail).
        let (wal, replay) = Wal::open(&dir.join("wal"), cfg.fsync)?;
        stats.wal_truncated_bytes = replay.truncated_bytes;
        let mut backend = LogBackend {
            dir: dir.to_path_buf(),
            cfg,
            wal,
            spaces,
            memtable_bytes: 0,
            next_seq,
            stats,
        };
        for batch in replay.batches {
            backend.stats.keys_recovered += batch.ops.len() as u64;
            backend.apply_to_memtables(batch);
        }
        Ok(backend)
    }

    /// Number of on-disk runs currently serving `ks`.
    pub fn run_count(&self, ks: Keyspace) -> usize {
        self.spaces[ks.index()].runs.len()
    }

    /// Bytes of keys and values the engine holds in memory: the memtables'
    /// payload plus every run handle's sparse index.
    pub fn resident_bytes(&self) -> usize {
        let indexes: usize = self
            .spaces
            .iter()
            .flat_map(|space| &space.runs)
            .map(|(_, run)| run.resident_bytes())
            .sum();
        self.memtable_bytes + indexes
    }

    /// The live `(key, value)` pairs of `ks` in ascending key order, read
    /// from the run files as the iterator advances: one streaming merge
    /// over the keyspace's runs and its memtable, holding one entry at a
    /// time. [`StorageBackend::scan`] collects it.
    pub fn stream(
        &self,
        ks: Keyspace,
    ) -> impl Iterator<Item = io::Result<(Vec<u8>, Vec<u8>)>> + '_ {
        let space = &self.spaces[ks.index()];
        Merge::new(space.runs.iter().map(|(_, run)| run), Some(&space.memtable))
    }

    fn apply_to_memtables(&mut self, batch: WriteBatch) {
        for WriteOp { ks, key, value } in batch.ops {
            self.memtable_bytes += key.len() + value.len();
            self.spaces[ks.index()].memtable.insert(key, value);
            self.stats.puts += 1;
        }
    }

    /// Write every dirty memtable out as a run, reset the WAL, then let the
    /// compacting keyspaces merge whatever their policy now allows.
    fn flush_memtables(&mut self) -> io::Result<()> {
        let mut wrote = false;
        for ks in Keyspace::ALL {
            let space = &mut self.spaces[ks.index()];
            if space.memtable.is_empty() {
                continue;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let entries = space.memtable.iter().map(Ok);
            let run = write_run(&self.dir, self.cfg.fsync, ks, seq, seq, entries)?;
            space.memtable.clear();
            self.stats.flushes += 1;
            self.stats.run_bytes += run.bytes();
            space.runs.push((seq, run));
            wrote = true;
        }
        if wrote {
            // Every write the WAL protected now lives in a run; restart the
            // log so replay cost stays proportional to the unflushed tail.
            self.wal.reset()?;
            self.memtable_bytes = 0;
        }
        for ks in Keyspace::ALL {
            if append_only(ks) {
                continue;
            }
            while let Some(window) = self.mergeable(ks) {
                self.merge(ks, window)?;
            }
        }
        Ok(())
    }

    fn mergeable(&self, ks: Keyspace) -> Option<Range<usize>> {
        let sizes: Vec<u64> = self.spaces[ks.index()]
            .runs
            .iter()
            .map(|(_, run)| run.bytes())
            .collect();
        tier_window(&sizes, self.cfg.compact_runs)
    }

    /// Merge the age-contiguous runs `window` of `ks` into one, holding
    /// the invariant of the module docs.
    fn merge(&mut self, ks: Keyspace, window: Range<usize>) -> io::Result<()> {
        let space = &mut self.spaces[ks.index()];
        let inputs = &space.runs[window.clone()];
        let (newest_seq, _) = inputs[inputs.len() - 1];
        let entries = Merge::new(inputs.iter().map(|(_, run)| run), None);
        // The rename replaces the newest input; the older ones are garbage
        // from here on, and `open` removes any a crash leaves behind.
        let covers_from = inputs[0].1.covers_from();
        let merged = write_run(
            &self.dir,
            self.cfg.fsync,
            ks,
            newest_seq,
            covers_from,
            entries,
        )?;
        for (_, input) in &inputs[..inputs.len() - 1] {
            let _ = fs::remove_file(input.path());
        }
        self.stats.compactions += 1;
        self.stats.run_bytes += merged.bytes();
        space.runs.splice(window, [(newest_seq, merged)]);
        Ok(())
    }
}

/// Stream `entries`, in ascending key order, out as the run `seq` of `ks`
/// covering sequence numbers from `covers_from`, and rename it into place:
/// the one run-writing loop of flushes and merges.
fn write_run<K: AsRef<[u8]>, V: AsRef<[u8]>>(
    dir: &Path,
    fsync: bool,
    ks: Keyspace,
    seq: u64,
    covers_from: u64,
    entries: impl IntoIterator<Item = io::Result<(K, V)>>,
) -> io::Result<Run> {
    let mut writer = RunWriter::create(&dir.join(run_name(ks, seq)), ks, covers_from)?;
    for entry in entries {
        let (key, value) = entry?;
        writer.push(key.as_ref(), value.as_ref())?;
    }
    writer.finish(fsync)
}

/// The trait leaves `get`, `scan` and `len` no way to report an I/O error.
fn readable<T>(read: io::Result<T>) -> T {
    read.unwrap_or_else(|e| panic!("run file validated at open no longer reads: {e}"))
}

/// Reads go to the run files (see [`Run::get`]), which
/// [`LogBackend::open`] validated; `get`, `scan` and `len` panic if such a
/// file can no longer be read. [`LogBackend::stream`] is the fallible form
/// of `scan`.
impl StorageBackend for LogBackend {
    fn apply(&mut self, batch: WriteBatch) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let appended = self.wal.append(&batch)?;
        self.stats.wal_records += 1;
        self.stats.wal_bytes += appended;
        self.apply_to_memtables(batch);
        if self.memtable_bytes > self.cfg.memtable_bytes {
            self.flush_memtables()?;
        }
        Ok(())
    }

    fn get(&self, ks: Keyspace, key: &[u8]) -> Option<Vec<u8>> {
        let space = &self.spaces[ks.index()];
        if let Some(v) = space.memtable.get(key) {
            return Some(v.clone());
        }
        // The newest run that knows the key decides.
        space
            .runs
            .iter()
            .rev()
            .find_map(|(_, run)| readable(run.get(key)))
    }

    fn scan(&self, ks: Keyspace) -> Vec<(Vec<u8>, Vec<u8>)> {
        readable(self.stream(ks).collect())
    }

    fn len(&self, ks: Keyspace) -> usize {
        readable(self.stream(ks).try_fold(0, |n, entry| entry.map(|_| n + 1)))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_memtables()
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

fn run_name(ks: Keyspace, seq: u64) -> String {
    format!("{}-{seq:08}.run", ks.name())
}

/// Parse `<ks>-<seq>.run`; `None` for any other file (e.g. `wal`).
fn parse_run_name(name: &str) -> Option<(Keyspace, u64)> {
    let stem = name.strip_suffix(".run")?;
    let (ks_name, seq) = stem.rsplit_once('-')?;
    let ks = Keyspace::ALL.into_iter().find(|ks| ks.name() == ks_name)?;
    Some((ks, seq.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdb-log-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn put(b: &mut LogBackend, ks: Keyspace, k: u64, v: &[u8]) {
        let mut batch = WriteBatch::new();
        batch.put(ks, k.to_be_bytes(), v);
        b.apply(batch).unwrap();
    }

    #[test]
    fn survives_close_and_reopen() {
        let dir = tmp("reopen");
        let mut b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        for k in 0..50u64 {
            put(&mut b, Keyspace::Table, k, &[k as u8; 24]);
        }
        put(&mut b, Keyspace::Meta, 0, b"applied");
        b.flush().unwrap();
        for k in 50..80u64 {
            // These stay in the WAL (memtable under threshold, no flush).
            put(&mut b, Keyspace::Table, k, &[k as u8; 24]);
        }
        drop(b);

        let b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        for k in 0..80u64 {
            assert_eq!(
                b.get(Keyspace::Table, &k.to_be_bytes()),
                Some(vec![k as u8; 24]),
                "key {k}"
            );
        }
        assert_eq!(
            b.get(Keyspace::Meta, &0u64.to_be_bytes()),
            Some(b"applied".to_vec())
        );
        assert_eq!(b.len(Keyspace::Table), 80);
        assert!(b.stats().keys_recovered > 0);
    }

    #[test]
    fn memtable_threshold_triggers_flush_and_compaction() {
        let dir = tmp("compact");
        let cfg = LogConfig {
            memtable_bytes: 256,
            compact_runs: 3,
            fsync: false,
        };
        let mut b = LogBackend::open(&dir, cfg).unwrap();
        for k in 0..200u64 {
            put(&mut b, Keyspace::Table, k % 40, &k.to_le_bytes());
        }
        let stats = b.stats();
        assert!(stats.flushes > 0, "expected flushes, got {stats:?}");
        assert!(stats.compactions > 0, "expected compactions, got {stats:?}");
        // Compaction keeps reads identical: every key shows its last write.
        for k in 0..40u64 {
            let last = (0..200u64).rev().find(|x| x % 40 == k).unwrap();
            assert_eq!(
                b.get(Keyspace::Table, &k.to_be_bytes()),
                Some(last.to_le_bytes().to_vec())
            );
        }
        assert_eq!(b.len(Keyspace::Table), 40);

        // And the compacted directory still reopens to the same state.
        drop(b);
        let b = LogBackend::open(&dir, cfg).unwrap();
        assert_eq!(b.len(Keyspace::Table), 40);
    }

    #[test]
    fn scan_merges_runs_and_memtable_in_key_order() {
        let dir = tmp("scan");
        let mut b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        put(&mut b, Keyspace::Blocks, 2, b"two");
        b.flush().unwrap();
        put(&mut b, Keyspace::Blocks, 1, b"one");
        put(&mut b, Keyspace::Blocks, 2, b"TWO");
        let scan = b.scan(Keyspace::Blocks);
        assert_eq!(
            scan,
            vec![
                (1u64.to_be_bytes().to_vec(), b"one".to_vec()),
                (2u64.to_be_bytes().to_vec(), b"TWO".to_vec()),
            ]
        );
    }

    fn run_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != "wal")
            .collect();
        names.sort();
        names
    }

    #[test]
    fn tier_window_merges_similar_sizes_and_spares_a_big_base() {
        // Fewer runs than the fan-out: nothing to do.
        assert_eq!(tier_window(&[10, 10, 10], 4), None);
        assert_eq!(tier_window(&[], 4), None);
        // Four similar runs merge; a base they do not rival stays out.
        assert_eq!(tier_window(&[10, 10, 10, 10], 4), Some(0..4));
        assert_eq!(tier_window(&[4500, 25, 25, 25, 25], 4), Some(1..5));
        assert_eq!(tier_window(&[4500, 400, 100, 25], 4), None);
        assert_eq!(tier_window(&[4500, 1500, 1500, 1400], 4), None);
        assert_eq!(tier_window(&[4500, 1500, 1500, 1500], 4), Some(0..4));
        // Small runs of uneven size still merge among themselves.
        assert_eq!(tier_window(&[4500, 25, 3, 25, 2], 4), Some(1..5));
        // A fan-out below two acts as two.
        assert_eq!(tier_window(&[10, 10], 0), Some(0..2));
        assert_eq!(tier_window(&[10], 1), None);
    }

    #[test]
    fn orphaned_tmp_files_are_removed_at_open() {
        let dir = tmp("orphan");
        let mut b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        put(&mut b, Keyspace::Table, 1, b"one");
        b.flush().unwrap();
        put(&mut b, Keyspace::Table, 2, b"two");
        let before = b.scan(Keyspace::Table);
        drop(b);
        // What a crash mid-flush leaves: a partial run under its tmp name.
        let orphan = dir.join("table-00000009.tmp");
        fs::write(&orphan, b"RDBRUN03 torn").unwrap();

        let b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        assert!(!orphan.exists());
        assert_eq!(b.scan(Keyspace::Table), before);
        assert_eq!(run_files(&dir), ["table-00000001.run"]);
    }

    #[test]
    fn merged_run_takes_the_newest_inputs_sequence_number() {
        let dir = tmp("tiers");
        let cfg = LogConfig {
            compact_runs: 2,
            ..LogConfig::default()
        };
        let mut b = LogBackend::open(&dir, cfg).unwrap();
        // A base far bigger than what follows.
        for k in 0..100u64 {
            put(&mut b, Keyspace::Table, k, &[k as u8; 64]);
        }
        b.flush().unwrap();
        put(&mut b, Keyspace::Table, 7, b"seven");
        b.flush().unwrap();
        assert_eq!(b.run_count(Keyspace::Table), 2, "the base is not rivalled");
        put(&mut b, Keyspace::Table, 8, b"newer");
        b.flush().unwrap();
        // Runs 2 and 3 merged above the base, under run 3's number.
        assert_eq!(b.stats().compactions, 1);
        assert_eq!(
            run_files(&dir),
            ["table-00000001.run", "table-00000003.run"]
        );
        // So the next flush is newer than the merged run, after reopen too.
        put(&mut b, Keyspace::Table, 8, b"newest");
        b.flush().unwrap();
        assert_eq!(
            run_files(&dir),
            [
                "table-00000001.run",
                "table-00000003.run",
                "table-00000004.run"
            ]
        );
        drop(b);
        let b = LogBackend::open(&dir, cfg).unwrap();
        assert_eq!(
            b.get(Keyspace::Table, &8u64.to_be_bytes()),
            Some(b"newest".to_vec())
        );
        assert_eq!(
            b.get(Keyspace::Table, &7u64.to_be_bytes()),
            Some(b"seven".to_vec())
        );
        assert_eq!(b.len(Keyspace::Table), 100);
    }

    #[test]
    fn leftover_merge_inputs_are_pruned_at_open() {
        let dir = tmp("leftover");
        let cfg = LogConfig {
            compact_runs: 2,
            ..LogConfig::default()
        };
        let mut b = LogBackend::open(&dir, cfg).unwrap();
        put(&mut b, Keyspace::Table, 1, b"old");
        put(&mut b, Keyspace::Table, 2, b"kept");
        b.flush().unwrap();
        let base = fs::read(dir.join("table-00000001.run")).unwrap();
        // A second run as big as the first, overwriting key 1: both merge
        // into a new base.
        put(&mut b, Keyspace::Table, 1, b"new");
        put(&mut b, Keyspace::Table, 3, b"a longer value");
        b.flush().unwrap();
        assert_eq!(run_files(&dir), ["table-00000002.run"]);
        let expect = b.scan(Keyspace::Table);
        assert_eq!(expect.len(), 3);
        drop(b);

        // The crash window: merged run installed, old base not yet deleted.
        fs::write(dir.join("table-00000001.run"), base).unwrap();
        let b = LogBackend::open(&dir, cfg).unwrap();
        assert_eq!(b.scan(Keyspace::Table), expect);
        assert_eq!(
            b.get(Keyspace::Table, &1u64.to_be_bytes()),
            Some(b"new".to_vec())
        );
        assert_eq!(run_files(&dir), ["table-00000002.run"]);
    }

    #[test]
    fn runs_are_handles_so_residency_stays_bounded() {
        let dir = tmp("resident");
        let cfg = LogConfig::default();
        let mut b = LogBackend::open(&dir, cfg).unwrap();
        // Decision-shaped batches: one 64 KiB block, 50 record images, the
        // applied marker. 512 of them push 32 MiB of blocks through.
        let block = vec![0xabu8; 64 << 10];
        let mut pushed = 0usize;
        for h in 0..512u64 {
            let mut batch = WriteBatch::new();
            batch.put(Keyspace::Blocks, h.to_be_bytes(), block.clone());
            for i in 0..50u64 {
                let key = (h * 37 + i * 101) % 5000;
                batch.put(Keyspace::Table, key.to_be_bytes(), [h as u8; 32]);
            }
            batch.put(Keyspace::Meta, &b"applied"[..], h.to_le_bytes());
            pushed += block.len();
            b.apply(batch).unwrap();
            assert!(
                b.resident_bytes() < 2 * cfg.memtable_bytes,
                "{} bytes resident after {pushed} pushed",
                b.resident_bytes()
            );
        }
        assert!(pushed >= 32 << 20);
        b.flush().unwrap();
        // With the memtables empty only the run indexes are left.
        assert!(b.resident_bytes() < 64 << 10, "{}", b.resident_bytes());
        assert!(b.run_count(Keyspace::Blocks) >= 30);
        assert_eq!(b.len(Keyspace::Blocks), 512);
        assert_eq!(b.len(Keyspace::Table), 5000);
    }

    #[test]
    fn empty_batches_write_nothing() {
        let dir = tmp("empty");
        let mut b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        b.apply(WriteBatch::new()).unwrap();
        assert_eq!(b.stats().wal_records, 0);
    }

    #[test]
    fn the_newest_put_wins_across_runs_the_wal_and_reopen() {
        let dir = tmp("newest");
        let mut b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        for k in 1..=3 {
            put(&mut b, Keyspace::Table, k, b"run 1");
        }
        b.flush().unwrap();
        for k in 2..=3 {
            put(&mut b, Keyspace::Table, k, b"run 2");
        }
        b.flush().unwrap();
        put(&mut b, Keyspace::Table, 3, b"wal");
        assert_eq!(b.run_count(Keyspace::Table), 2);

        let newest: [&[u8]; 3] = [b"run 1", b"run 2", b"wal"];
        let check = |b: &LogBackend| {
            for (k, v) in (1..=3u64).zip(newest) {
                let got = b.get(Keyspace::Table, &k.to_be_bytes());
                assert_eq!(got.as_deref(), Some(v), "key {k}");
            }
            let scan = b.scan(Keyspace::Table);
            let values: Vec<&[u8]> = scan.iter().map(|(_, v)| v.as_slice()).collect();
            assert_eq!(values, newest);
        };
        check(&b);
        drop(b);
        let mut b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        check(&b);
        // The replayed put moves into a third run, still the newest.
        b.flush().unwrap();
        assert_eq!(b.run_count(Keyspace::Table), 3);
        check(&b);
    }

    #[test]
    fn a_run_whose_header_disagrees_with_its_name_is_refused() {
        let dir = tmp("misnamed");
        let mut b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        put(&mut b, Keyspace::Table, 1, b"one");
        b.flush().unwrap();
        drop(b);
        // Another keyspace's name, then a sequence number below the one
        // the header says the run covers from.
        let mut from = dir.join("table-00000001.run");
        for name in ["meta-00000001.run", "table-00000000.run"] {
            let to = dir.join(name);
            fs::rename(&from, &to).unwrap();
            let err = LogBackend::open(&dir, LogConfig::default()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert!(err.to_string().contains("header"), "{name}: {err}");
            from = to;
        }
    }

    #[test]
    fn stats_count_puts_records_and_bytes_written() {
        use crate::wal::{encode_batch, RECORD_OVERHEAD};
        let dir = tmp("stats");
        let mut b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        let mut batch = WriteBatch::new();
        batch.put(Keyspace::Table, *b"k", *b"v");
        batch.put(Keyspace::Meta, *b"m", *b"w");
        let framed = encode_batch(&batch).len() as u64 + RECORD_OVERHEAD;
        b.apply(batch.clone()).unwrap();
        b.apply(batch).unwrap();
        b.flush().unwrap();
        let stats = b.stats();
        assert_eq!(stats.puts, 4);
        assert_eq!((stats.wal_records, stats.wal_bytes), (2, 2 * framed));
        assert_eq!(stats.flushes, 2, "one run per dirty keyspace");
        assert_eq!(stats.compactions, 0);
        let on_disk: u64 = run_files(&dir)
            .iter()
            .map(|name| fs::metadata(dir.join(name)).unwrap().len())
            .sum();
        assert_eq!(stats.run_bytes, on_disk);
        drop(b);

        // A reopen counts what it recovered and nothing it wrote before.
        let b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        let stats = b.stats();
        assert_eq!(stats.keys_recovered, 2);
        assert_eq!((stats.puts, stats.wal_bytes, stats.run_bytes), (0, 0, 0));
    }

    #[test]
    fn run_names_round_trip_and_other_files_are_left_alone() {
        for ks in Keyspace::ALL {
            for seq in [0, 1, 12_345_678, 123_456_789] {
                assert_eq!(parse_run_name(&run_name(ks, seq)), Some((ks, seq)));
            }
        }
        for name in [
            "wal",
            "table-1.tmp",
            "table.run",
            "bogus-1.run",
            "table-x.run",
        ] {
            assert_eq!(parse_run_name(name), None, "{name}");
        }

        let dir = tmp("foreign");
        fs::create_dir_all(&dir).unwrap();
        for name in ["notes.txt", "bogus-00000001.run"] {
            fs::write(dir.join(name), b"not a run").unwrap();
        }
        let mut b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        put(&mut b, Keyspace::Table, 1, b"one");
        b.flush().unwrap();
        drop(b);
        let b = LogBackend::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(b.len(Keyspace::Table), 1);
        assert_eq!(
            run_files(&dir),
            ["bogus-00000001.run", "notes.txt", "table-00000001.run"]
        );
    }
}
