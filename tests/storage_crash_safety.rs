//! Crash-safety properties of the durable log-structured engine: a WAL
//! torn at an *arbitrary byte offset* must recover to exactly the longest
//! batch prefix whose records survive intact (batches are atomic — never
//! a partial batch), flushed runs must survive any WAL damage, and
//! flush/compaction must never change the observable key-value state —
//! not across a crash between a merge's rename and the deletion of its
//! inputs, not for a key overwritten above a run that still holds an older
//! value. A run file with any byte changed fails the open, and the
//! append-only `blocks` keyspace is written once, never rewritten.

mod support;

use proptest::prelude::*;
use rdb_storage::{Keyspace, LogBackend, LogConfig, StorageBackend, WriteBatch};
use std::collections::BTreeMap;
use std::path::Path;

/// One generated put: (keyspace tag 0..4, single-byte key, payload).
type Op = (u8, u8, u64);

/// Reference state: (keyspace tag, key) -> value.
type Model = BTreeMap<(u8, Vec<u8>), Vec<u8>>;

fn build_batch(ops: &[Op]) -> WriteBatch {
    let mut b = WriteBatch::new();
    for &(tag, key, val) in ops {
        b.put(
            Keyspace::ALL[tag as usize],
            vec![key],
            val.to_le_bytes().to_vec(),
        );
    }
    b
}

fn apply_model(model: &mut Model, ops: &[Op]) {
    for &(tag, key, val) in ops {
        model.insert((tag, vec![key]), val.to_le_bytes().to_vec());
    }
}

fn engine_state(be: &LogBackend) -> Model {
    let mut m = Model::new();
    for ks in Keyspace::ALL {
        for (k, v) in be.scan(ks) {
            m.insert((ks.index() as u8, k), v);
        }
    }
    m
}

fn truncate_wal(dir: &Path, offset: u64) {
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("wal"))
        .expect("open wal for truncation");
    f.set_len(offset).expect("truncate wal");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tear the WAL at an arbitrary byte offset and reopen: the engine
    /// must come back holding *exactly* the state after the last batch
    /// whose record still ends at or before the cut — plus everything a
    /// flush already moved into immutable runs — with the torn-tail byte
    /// count reported. Never a partial batch, never a lost flushed key.
    #[test]
    fn torn_wal_recovers_to_exact_batch_prefix(
        ops in proptest::collection::vec((0u8..4, 0u8..16, any::<u64>()), 4..64),
        per in 1usize..5,
        flush_every in 0usize..5,
        cut in any::<u64>(),
    ) {
        let tmp = support::TempDir::new("crash-wal");
        let cfg = LogConfig { fsync: false, ..LogConfig::default() };
        let mut be = LogBackend::open(tmp.path(), cfg).expect("open");

        // Apply the batches, tracking the reference state and the WAL
        // file length after every batch. A flush writes runs and resets
        // the WAL to just its 8-byte header; `wal_bytes` is cumulative
        // over the engine's life, so lengths are relative to the bytes
        // counted at the last flush.
        let mut model = Model::new();
        let mut prefixes = vec![model.clone()];         // state after batch k
        let mut boundaries = vec![8u64];                // WAL length after batch k
        let mut last_flush = 0usize;                    // runs hold prefixes[last_flush]
        let mut flush_base = 0u64;                      // wal_bytes at the last flush
        for (i, chunk) in ops.chunks(per).enumerate() {
            be.apply(build_batch(chunk)).expect("apply");
            apply_model(&mut model, chunk);
            prefixes.push(model.clone());
            boundaries.push(8 + (be.stats().wal_bytes - flush_base));
            if flush_every > 0 && (i + 1).is_multiple_of(flush_every) {
                be.flush().expect("flush");
                last_flush = prefixes.len() - 1;
                flush_base = be.stats().wal_bytes;
                boundaries[last_flush] = 8;
            }
        }
        drop(be);

        let full_len = std::fs::metadata(tmp.path().join("wal")).expect("wal meta").len();
        let offset = cut % (full_len + 1);

        if offset > 0 && offset < 8 {
            // The magic itself is torn: the file is recognizably not a
            // well-formed WAL, and open must refuse rather than guess.
            truncate_wal(tmp.path(), offset);
            prop_assert!(LogBackend::open(tmp.path(), cfg).is_err());
            return;
        }

        truncate_wal(tmp.path(), offset);
        let recovered = LogBackend::open(tmp.path(), cfg).expect("reopen");

        // Expected survivor: the last batch at or before the cut among
        // those still in the WAL; flushed batches survive regardless.
        let mut expect = last_flush;
        for (k, end) in boundaries.iter().enumerate().skip(last_flush + 1) {
            if *end <= offset.max(8) {
                expect = k;
            }
        }
        prop_assert_eq!(&engine_state(&recovered), &prefixes[expect]);
        // The reported torn tail is the gap between the cut and the last
        // surviving record boundary (0 when the cut lands exactly on one).
        if offset >= 8 {
            prop_assert_eq!(
                recovered.stats().wal_truncated_bytes,
                offset - boundaries[expect].min(offset)
            );
        }
    }

    /// Flush and compaction are invisible to readers: a log engine driven
    /// through memtable flushes and k-way merge compaction must scan
    /// identically to an uncompacted reference model — before reopening
    /// and after.
    #[test]
    fn compaction_preserves_observable_state(
        ops in proptest::collection::vec((0u8..4, 0u8..16, any::<u64>()), 8..96),
        per in 1usize..6,
    ) {
        let tmp = support::TempDir::new("crash-compact");
        // A tiny memtable forces flushes mid-stream; a low run threshold
        // forces merges. Every path through run.rs gets exercised.
        let cfg = LogConfig { memtable_bytes: 64, compact_runs: 2, fsync: false };
        let mut be = LogBackend::open(tmp.path(), cfg).expect("open");

        let mut model = Model::new();
        for chunk in ops.chunks(per) {
            be.apply(build_batch(chunk)).expect("apply");
            apply_model(&mut model, chunk);
        }
        prop_assert_eq!(&engine_state(&be), &model);

        be.flush().expect("flush");
        prop_assert_eq!(&engine_state(&be), &model);
        drop(be);

        let reopened = LogBackend::open(tmp.path(), cfg).expect("reopen");
        prop_assert_eq!(&engine_state(&reopened), &model);
        for ks in Keyspace::ALL {
            let live = model.keys().filter(|(t, _)| *t == ks.index() as u8).count();
            prop_assert_eq!(reopened.len(ks), live);
        }
    }
    /// The compaction crash window: a merge installs its output with a
    /// rename and only then deletes its older inputs. Put every run file
    /// a batch's merges deleted back — the directory a crash inside that
    /// window leaves, and then some — and reopen: the engine must scan
    /// exactly as the model does, resurrecting nothing the merged run had
    /// dropped, and must keep doing so as the stream goes on.
    #[test]
    fn crash_between_merge_install_and_input_deletion_is_invisible(
        ops in proptest::collection::vec((0u8..4, 0u8..16, any::<u64>()), 8..96),
        per in 1usize..6,
    ) {
        let tmp = support::TempDir::new("crash-merge");
        let cfg = LogConfig { memtable_bytes: 64, compact_runs: 2, fsync: false };
        let mut be = LogBackend::open(tmp.path(), cfg).expect("open");

        let mut model = Model::new();
        for chunk in ops.chunks(per) {
            let before = run_files(tmp.path());
            let merges = be.stats().compactions;
            be.apply(build_batch(chunk)).expect("apply");
            apply_model(&mut model, chunk);
            if be.stats().compactions == merges {
                continue;
            }
            drop(be);
            let after = run_files(tmp.path());
            for (name, bytes) in before.iter().filter(|(name, _)| !after.contains_key(*name)) {
                std::fs::write(tmp.path().join(name), bytes).expect("restore merge input");
            }
            be = LogBackend::open(tmp.path(), cfg).expect("reopen in the crash window");
            prop_assert_eq!(&engine_state(&be), &model);
            prop_assert_eq!(run_files(tmp.path()), after, "leftover inputs are removed");
        }
        prop_assert_eq!(&engine_state(&be), &model);
    }
}

/// Every `*.run` file of an engine directory, by name.
fn run_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list engine dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "run"))
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&p).expect("read run file"))
        })
        .collect()
}

fn put_one(be: &mut LogBackend, ks: Keyspace, key: u64, value: &[u8]) {
    let mut batch = WriteBatch::new();
    batch.put(ks, key.to_be_bytes(), value);
    be.apply(batch).expect("apply");
}

/// Runs are trusted after the open-time check, so that check must see
/// everything: one changed byte at any offset of any run file, and
/// `LogBackend::open` refuses the directory.
#[test]
fn any_flipped_byte_in_any_run_file_fails_the_open() {
    let tmp = support::TempDir::new("crash-flip");
    let cfg = LogConfig::default();
    let mut be = LogBackend::open(tmp.path(), cfg).expect("open");
    for round in 0..2u64 {
        for ks in Keyspace::ALL {
            put_one(&mut be, ks, round, b"value");
            put_one(&mut be, ks, 10 + round, b"another");
        }
        be.flush().expect("flush");
    }
    put_one(&mut be, Keyspace::Table, 7, b"in the wal only");
    drop(be);

    let files = run_files(tmp.path());
    assert_eq!(files.len(), 8, "two runs per keyspace");
    for (name, bytes) in &files {
        let path = tmp.path().join(name);
        for at in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[at] ^= 0x10;
            std::fs::write(&path, &damaged).expect("damage run");
            assert!(
                LogBackend::open(tmp.path(), cfg).is_err(),
                "{name}: flipped byte {at} of {} went unnoticed",
                bytes.len()
            );
        }
        std::fs::write(&path, bytes).expect("restore run");
    }
    let be = LogBackend::open(tmp.path(), cfg).expect("the restored directory opens");
    assert_eq!(be.len(Keyspace::Table), 5);
}

/// `blocks` and `checkpoints` are append-only: monotone height keys make
/// every flush disjoint from the runs before it, so the engine never
/// merges them. Runs accumulate, each block is written to a run exactly
/// once, and every height reads back.
#[test]
fn append_only_keyspaces_are_written_once_and_never_rewritten() {
    let tmp = support::TempDir::new("crash-blocks");
    let cfg = LogConfig::default();
    let mut be = LogBackend::open(tmp.path(), cfg).expect("open");
    let block = |h: u64| vec![h as u8; 2048];
    let (flushes, per_flush) = (24u64, 5u64);
    let mut put_bytes = 0u64;
    for f in 0..flushes {
        for h in f * per_flush..(f + 1) * per_flush {
            put_one(&mut be, Keyspace::Blocks, h, &block(h));
            put_bytes += 8 + block(h).len() as u64;
        }
        put_one(&mut be, Keyspace::Checkpoints, f, &[f as u8; 64]);
        put_bytes += 8 + 64;
        be.flush().expect("flush");
        assert_eq!(be.run_count(Keyspace::Blocks) as u64, f + 1);
        assert_eq!(be.run_count(Keyspace::Checkpoints) as u64, f + 1);
    }
    let stats = be.stats();
    assert_eq!(stats.compactions, 0);
    assert!(
        stats.run_bytes as f64 <= 1.2 * put_bytes as f64,
        "{} run bytes for {put_bytes} put",
        stats.run_bytes
    );

    let check = |be: &LogBackend| {
        for h in 0..flushes * per_flush {
            assert_eq!(
                be.get(Keyspace::Blocks, &h.to_be_bytes()),
                Some(block(h)),
                "height {h}"
            );
        }
        assert_eq!(be.len(Keyspace::Blocks) as u64, flushes * per_flush);
        assert_eq!(be.len(Keyspace::Checkpoints) as u64, flushes);
    };
    check(&be);
    drop(be);
    let be = LogBackend::open(tmp.path(), cfg).expect("reopen");
    assert_eq!(be.run_count(Keyspace::Blocks) as u64, flushes);
    check(&be);
}
