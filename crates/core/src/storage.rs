//! Durable-deployment wiring over [`rdb_storage`]: storage modes, the
//! per-replica engine handle, the on-disk encoding of every keyspace, and
//! restart recovery.
//!
//! ## Crash consistency
//!
//! The execution stage persists each decision, as it retires in commit
//! order, as **one atomic [`WriteBatch`]** (`persist_decision`): every
//! block the decision appended, every table record it wrote (as
//! absolute `(key, value, version)` images, not deltas), and the advanced
//! `applied` watermark.
//! [`rdb_storage::LogBackend`] appends the whole batch as a single
//! checksummed WAL record, so a crash torn mid-write truncates to a
//! *decision boundary* on replay — the recovered table digest equals the
//! recovered ledger head's `state_digest` by construction, with no replay
//! or version-bump reasoning required.
//!
//! Each replica's engine has one owner and no lock: its execute thread,
//! which writes the decision batches, persists each certified checkpoint
//! (`persist_checkpoint`, which flushes) and, on exit, flushes the engine
//! and folds its counters into the deployment's metrics.
//!
//! The preload is genesis, not data. It is a deterministic function of
//! the manifest's [`Manifest::records`], rebuilt at every boot and shared
//! by every replica, and it is never written: the `table` keyspace holds
//! only the records a replica wrote since, the on-disk twin of the
//! [`KvStore`] overlay. First boot appends only the `init` marker, as a
//! WAL batch of its own (`init_replica`); until that record is whole the
//! directory counts as uninitialized and the next boot appends it again.
//! Recovery lays the persisted records over a clone of the preload and
//! checks the result against the recovered head's `state_digest`
//! (`recover_replica`), so a preload other than the one the replica
//! started from refuses to boot instead of diverging.
//!
//! ## Keyspace encodings
//!
//! | keyspace      | key                      | value                                  |
//! |---------------|--------------------------|----------------------------------------|
//! | `table`       | record key, 8 B BE       | 24 B value ‖ version (8 B LE)          |
//! | `blocks`      | block height, 8 B BE     | codec-encoded [`Block`] (`Block: Wire`) |
//! | `checkpoints` | stable height, 8 B BE    | state digest (32 B) ‖ anchor hash (32 B) |
//! | `meta`        | `"init"` / `"applied"` / `"stable"` | marker byte / height (8 B LE) |
//!
//! Big-endian keys make the engine's ascending-key scans come back in
//! height/key order for free. Blocks compacted out of the in-memory ledger
//! are *retained* in the `blocks` keyspace — archival past the recovery
//! anchor instead of dropping. A block goes to disk in the encoding it
//! travels in: [`rdb_consensus::codec`]'s [`codec::Wire`] table for [`Block`],
//! whose batch and certificate are the bytes of the frames that carried
//! them. Decoding is strict — a short, long or foreign value is `InvalidData`,
//! never a misread block — and so is an older build's JSON block or engine file.
//!
//! The deployment parameters needed to reboot an equivalent fabric are
//! written once, through the same codec, to `<root>/manifest`
//! ([`Manifest`]); [`crate::Fabric::restart_from`] reads them back.

use rdb_common::config::SystemConfig;
use rdb_common::ids::ReplicaId;
use rdb_consensus::codec;
use rdb_consensus::config::ProtocolKind;
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_crypto::digest::Digest;
use rdb_ledger::{Block, Ledger};
use rdb_storage::{Keyspace, LogBackend, StorageBackend, WriteBatch};
use rdb_store::{KvStore, Value};
use std::io;
use std::path::{Path, PathBuf};

/// Where a deployment keeps replica state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StorageMode {
    /// Heap-only engines (the default, and what every figure reproduction
    /// uses): the pre-durability behavior, byte for byte.
    #[default]
    Memory,
    /// Log-structured engines rooted at the given data directory, one
    /// subdirectory per replica (`replica-<cluster>-<index>`). A directory
    /// holding a previous run's state is *recovered from*, not
    /// reinitialized.
    Durable(PathBuf),
}

/// Meta-keyspace marker: set by the first boot's only write, so a
/// directory without it is initialized rather than recovered.
const META_INIT: &[u8] = b"init";
/// Meta-keyspace watermark: the highest ledger height applied (and
/// persisted) by the execution stage.
const META_APPLIED: &[u8] = b"applied";
/// Meta-keyspace watermark: the highest quorum-certified (stable) height.
const META_STABLE: &[u8] = b"stable";

fn invalid(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Big-endian key encoding shared by the `table`, `blocks` and
/// `checkpoints` keyspaces: ascending scans come back in numeric order.
fn be_key(k: u64) -> [u8; 8] {
    k.to_be_bytes()
}

fn decode_be_key(raw: &[u8]) -> io::Result<u64> {
    Ok(u64::from_be_bytes(
        raw.try_into().map_err(|_| invalid("bad 8-byte key"))?,
    ))
}

/// `table` value: the 24-byte record image followed by its version.
fn encode_table_value(value: Value, version: u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    out[..24].copy_from_slice(&value.0);
    out[24..].copy_from_slice(&version.to_le_bytes());
    out
}

fn decode_table_entry(key: &[u8], raw: &[u8]) -> io::Result<(u64, Value, u64)> {
    let key = decode_be_key(key)?;
    if raw.len() != 32 {
        return Err(invalid(format!(
            "table value has {} bytes, want 32",
            raw.len()
        )));
    }
    let mut value = [0u8; 24];
    value.copy_from_slice(&raw[..24]);
    let version = u64::from_le_bytes(raw[24..].try_into().expect("8 bytes"));
    Ok((key, Value(value), version))
}

/// `blocks` value: the block's [`codec::Wire`] encoding.
fn encode_block(block: &Block) -> Vec<u8> {
    codec::encode(block)
}

fn decode_block(raw: &[u8]) -> io::Result<Block> {
    codec::decode(raw).map_err(invalid)
}

/// `checkpoints` value: certified state digest ‖ anchor block hash.
fn encode_checkpoint(state: Digest, anchor: Digest) -> [u8; 64] {
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(state.as_bytes());
    out[32..].copy_from_slice(anchor.as_bytes());
    out
}

/// Deployment parameters persisted to `<root>/manifest` on first
/// durable boot. [`crate::Fabric::restart_from`] reads this back and
/// rebuilds an equivalent deployment over the recovered engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Consensus protocol of the deployment.
    pub kind: ProtocolKind,
    /// Number of clusters.
    pub z: usize,
    /// Replicas per cluster.
    pub n: usize,
    /// Transactions per client batch.
    pub batch_size: usize,
    /// Records of the preload (the genesis table) every replica's table
    /// is laid over at every boot. Never persisted: recovery rebuilds it
    /// from this count and checks it against the recovered head.
    pub records: u64,
    /// Deployment seed (keys, workload).
    pub seed: u64,
    /// Checkpoint-stage interval in decisions (0 = disabled).
    pub checkpoint_interval: u64,
}

rdb_consensus::wire_struct! { Manifest {
    kind: ProtocolKind,
    z: usize,
    n: usize,
    batch_size: usize,
    records: u64,
    seed: u64,
    checkpoint_interval: u64,
} }

fn manifest_path(root: &Path) -> PathBuf {
    root.join("manifest")
}

/// Write the manifest on first boot; an existing manifest (a restart) is
/// left untouched so the original deployment parameters stay authoritative.
pub(crate) fn write_manifest_if_absent(root: &Path, manifest: &Manifest) -> io::Result<()> {
    let path = manifest_path(root);
    if path.exists() {
        return Ok(());
    }
    std::fs::create_dir_all(root)?;
    std::fs::write(path, codec::encode(manifest))
}

/// Read the deployment manifest back from a durable data directory.
pub fn read_manifest(root: &Path) -> io::Result<Manifest> {
    codec::decode(&std::fs::read(manifest_path(root))?).map_err(invalid)
}

/// The engine directory of `rid` under the deployment's data root.
pub(crate) fn replica_dir(root: &Path, rid: ReplicaId) -> PathBuf {
    root.join(format!("replica-{}-{}", rid.cluster.0, rid.index))
}

/// Whether this engine holds a replica (its first boot's marker is
/// whole) rather than an empty or half-initialized directory.
pub(crate) fn is_initialized(backend: &LogBackend) -> bool {
    backend.get(Keyspace::Meta, META_INIT).is_some()
}

/// First durable boot: append the init marker as a WAL batch of its own,
/// and nothing else — the preload is rebuilt, not read, at every boot. A
/// crash that tears the marker's append leaves the directory
/// uninitialized, and the next boot appends it again.
pub(crate) fn init_replica(backend: &mut LogBackend) -> io::Result<()> {
    let mut marker = WriteBatch::new();
    marker.put(Keyspace::Meta, META_INIT, [1u8]);
    backend.apply(marker)
}

/// Persist one applied decision as a single atomic batch: the blocks the
/// executor just appended, the absolute images of the table records it
/// wrote, and the advanced `applied` watermark. See the module docs for
/// why this makes torn tails land on decision boundaries.
pub(crate) fn persist_decision<'a>(
    backend: &mut LogBackend,
    blocks: impl IntoIterator<Item = &'a Block>,
    writes: impl IntoIterator<Item = &'a (u64, Value, u64)>,
    applied: u64,
) -> io::Result<()> {
    let mut batch = WriteBatch::new();
    for block in blocks {
        batch.put(Keyspace::Blocks, be_key(block.height), encode_block(block));
    }
    for &(key, value, version) in writes {
        batch.put(
            Keyspace::Table,
            be_key(key),
            encode_table_value(value, version),
        );
    }
    batch.put(Keyspace::Meta, META_APPLIED, applied.to_le_bytes());
    backend.apply(batch)
}

/// Persist a quorum-certified checkpoint and flush the engine: the stable
/// prefix's state is forced into run files and the WAL resets, so restart
/// replay cost stays bounded by the exec-to-stable lag, not run length.
pub(crate) fn persist_checkpoint(
    backend: &mut LogBackend,
    height: u64,
    state: Digest,
    anchor: Digest,
) -> io::Result<()> {
    let mut batch = WriteBatch::new();
    batch.put(
        Keyspace::Checkpoints,
        be_key(height),
        encode_checkpoint(state, anchor),
    );
    batch.put(Keyspace::Meta, META_STABLE, height.to_le_bytes());
    backend.apply(batch)?;
    backend.flush()
}

/// Rebuild a replica's in-memory state from its engine: lay the `table`
/// keyspace (the records the replica wrote, with their persisted
/// versions) over a clone of the shared `preload`, and stream the
/// `blocks` keyspace into a ledger rooted at genesis. The recovered
/// ledger is uncompacted — every persisted block is retained, so its head
/// hash and heights are identical to the ledger that wrote it.
///
/// The table must then reach the state its head block records (the
/// preload's own digest at height 0); anything else — a wrong preload, a
/// changed generator, a record rewritten on disk — is `InvalidData`.
pub(crate) fn recover_replica(
    backend: &LogBackend,
    preload: &KvStore,
) -> io::Result<(KvStore, Ledger)> {
    let mut store = preload.clone();
    for entry in backend.stream(Keyspace::Table) {
        let (key, raw) = entry?;
        let (k, v, version) = decode_table_entry(&key, &raw)?;
        store.restore_record(k, v, version);
    }

    let mut blocks = vec![Block::genesis()];
    for entry in backend.stream(Keyspace::Blocks) {
        let (key, raw) = entry?;
        let height = decode_be_key(&key)?;
        let block = decode_block(&raw)?;
        if block.height != height {
            return Err(invalid(format!(
                "block stored at height {height} claims height {}",
                block.height
            )));
        }
        blocks.push(block);
    }
    for (i, block) in blocks.iter().enumerate() {
        if block.height != i as u64 {
            return Err(invalid(format!(
                "persisted blocks not contiguous: index {i} holds height {}",
                block.height
            )));
        }
    }
    let ledger = Ledger::from_blocks_unchecked(blocks);
    ledger
        .verify(None)
        .map_err(|e| invalid(format!("recovered ledger invalid: {e}")))?;

    if let Some(raw) = backend.get(Keyspace::Meta, META_APPLIED) {
        let applied = u64::from_le_bytes(
            raw.as_slice()
                .try_into()
                .map_err(|_| invalid("bad applied watermark"))?,
        );
        if applied != ledger.head_height() {
            return Err(invalid(format!(
                "applied watermark {applied} != recovered head {}",
                ledger.head_height()
            )));
        }
    }
    let expected = match ledger.blocks().last() {
        Some(head) if head.height > 0 => head.state_digest,
        _ => preload.state_digest(),
    };
    if store.state_digest() != expected {
        return Err(invalid(format!(
            "recovered table digest {} != {} recorded at height {}",
            store.state_digest(),
            expected,
            ledger.head_height()
        )));
    }
    Ok((store, ledger))
}

/// What a restarted replica lacks below the highest recovered head: the
/// audited blocks, and the record images their replay wrote onto its
/// table. Empty for every other replica.
#[derive(Debug, Default)]
pub(crate) struct Gap {
    /// The blocks above the replica's own head, in height order.
    pub(crate) blocks: Vec<Block>,
    /// The absolute `(key, value, version)` images replaying them wrote.
    pub(crate) writes: Vec<(u64, Value, u64)>,
}

/// Restart alignment: a deployment stops with its replicas at unequal
/// heights (a client returns at f + 1 replies, and shutdown does not wait
/// for the rest), and the restarted consensus runs fresh over the
/// recovered tables. So every recovered `(table, ledger)` below the
/// highest recovered head has its table lifted, in place, to that head's
/// state, and gets back the [`Gap`] its executor lacks: the suffix up to
/// the head, which [`rdb_ledger::catch_up`] audited against the
/// replica's own chain and replayed to the state the head records, and
/// the record images that replay wrote (captured, so capture stays on).
/// The executor persists the gap with its first decision of the run
/// (`pipeline::spawn_executor`), so every replica appends that decision
/// at one height, and a run without decisions recovers each replica
/// exactly as it stopped.
///
/// Every block the highest replica holds was committed, so none is rolled
/// back; blocks the fabric writes carry no certificate, so the suffix is
/// trusted on chain linkage and replayed state, the evidence
/// [`rdb_ledger::recover_from_checkpoint`] also accepts.
pub(crate) fn align_heads(
    replicas: Vec<(&mut KvStore, &Ledger)>,
    system: &SystemConfig,
    crypto: &CryptoCtx,
) -> io::Result<Vec<Gap>> {
    let Some(highest) = replicas
        .iter()
        .map(|(_, ledger)| *ledger)
        .max_by_key(|ledger| ledger.head_height())
    else {
        return Ok(Vec::new());
    };
    replicas
        .into_iter()
        .map(|(store, ledger)| {
            if ledger.head_height() == highest.head_height() {
                return Ok(Gap::default());
            }
            let mut table = std::mem::take(store);
            table.enable_capture();
            let (blocks, table) = rdb_ledger::catch_up(highest, ledger, table, system, crypto)
                .map_err(|e| {
                    invalid(format!(
                        "catch up from height {}: {e}",
                        ledger.head_height()
                    ))
                })?;
            *store = table;
            let writes = store.take_captured();
            Ok(Gap { blocks, writes })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_storage::LogConfig;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rdb-core-storage-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn table_entry_round_trips() {
        let raw = encode_table_value(Value::from_u64(7), 3);
        let (k, v, ver) = decode_table_entry(&be_key(42), &raw).unwrap();
        assert_eq!((k, v, ver), (42, Value::from_u64(7), 3));
        assert!(decode_table_entry(&be_key(42), &raw[..31]).is_err());
    }

    #[test]
    fn block_round_trips() {
        let block = Block::genesis();
        let mut raw = encode_block(&block);
        let back = decode_block(&raw).unwrap();
        assert_eq!(back, block);
        assert_eq!(back.hash(), block.hash());
        for cut in 0..raw.len() {
            assert!(decode_block(&raw[..cut]).is_err(), "prefix {cut} decoded");
        }
        raw.push(0);
        assert_eq!(
            decode_block(&raw).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// A directory written before blocks went through the codec holds
    /// JSON in `blocks`: recovery must refuse it, not misread it.
    #[test]
    fn json_blocks_of_an_older_build_are_refused() {
        let dir = tempdir("old-json");
        let mut backend = LogBackend::open(&dir, LogConfig::default()).unwrap();
        init_replica(&mut backend).unwrap();
        // A block 1 as builds that stored blocks through
        // `serde_json::to_string` wrote it.
        let old = br#"{"height":1,"parent":[25,52,10,135,35,237,144,114,138,202,86,60,157,143,202,201,229,252,85,234,63,34,228,237,61,117,69,137,34,125,214,176],"batch":{"batch":{"client":{"cluster":0,"index":4294967295},"batch_seq":1,"txns":[{"client":{"cluster":0,"index":4294967295},"seq":1,"op":"NoOp"}]},"pubkey":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sig":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"certificate":null,"state_digest":[114,35,16,67,188,24,7,230,247,64,178,53,235,117,17,236,179,50,85,166,163,117,67,86,49,25,109,232,169,117,13,75]}"#;
        let mut batch = WriteBatch::new();
        batch.put(Keyspace::Blocks, be_key(1), old.to_vec());
        batch.put(Keyspace::Meta, META_APPLIED, 1u64.to_le_bytes());
        backend.apply(batch).unwrap();
        let preload = KvStore::with_ycsb_records(5);
        let err = recover_replica(&backend, &preload).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn manifest_written_once_and_read_back() {
        let dir = tempdir("manifest");
        let manifest = Manifest {
            kind: ProtocolKind::Pbft,
            z: 1,
            n: 4,
            batch_size: 5,
            records: 100,
            seed: 42,
            checkpoint_interval: 0,
        };
        write_manifest_if_absent(&dir, &manifest).unwrap();
        // A second boot with different parameters must not clobber it.
        let other = Manifest {
            seed: 99,
            ..manifest.clone()
        };
        write_manifest_if_absent(&dir, &other).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), manifest);

        // A truncated or foreign manifest is refused, not half-read —
        // including the 50-byte encoding of builds that still carried a
        // `check_sigs` flag between `seed` and `checkpoint_interval`.
        let raw = std::fs::read(manifest_path(&dir)).unwrap();
        assert_eq!(raw.len(), 49);
        let with_flag = [&raw[..41], &[1], &raw[41..]].concat();
        for bad in [
            &raw[..raw.len() - 1],
            &br#"{"kind":"Pbft","z":1}"#[..],
            &with_flag[..],
        ] {
            std::fs::write(manifest_path(&dir), bad).unwrap();
            assert_eq!(
                read_manifest(&dir).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
    }

    /// A block at height 1 recording the state `writes` leave on
    /// `preload`, and those writes: one persisted decision.
    fn decision(preload: &KvStore, writes: &[(u64, Value, u64)]) -> (Block, KvStore) {
        let mut table = preload.clone();
        for &(key, value, version) in writes {
            table.restore_record(key, value, version);
        }
        let mut ledger = Ledger::new();
        ledger.append(
            rdb_consensus::types::SignedBatch::noop(rdb_common::ids::ClusterId(0), 1),
            None,
            table.state_digest(),
        );
        (ledger.block(1).unwrap().clone(), table)
    }

    /// Persist `head` and `writes` into `backend` as one decision.
    fn persist(mut backend: LogBackend, head: &Block, writes: &[(u64, Value, u64)]) -> LogBackend {
        persist_decision(
            &mut backend,
            std::slice::from_ref(head),
            writes,
            head.height,
        )
        .unwrap();
        backend
    }

    /// Boot the engine in `dir` the way `DeploymentBuilder::start` does:
    /// write the marker unless the directory is initialized, then recover
    /// onto `preload`.
    fn boot(dir: &Path, preload: &KvStore) -> (KvStore, Ledger) {
        let mut backend = LogBackend::open(dir, LogConfig::default()).unwrap();
        if !is_initialized(&backend) {
            init_replica(&mut backend).unwrap();
        }
        recover_replica(&backend, preload).unwrap()
    }

    #[test]
    fn init_then_recover_round_trips_store_and_ledger() {
        let dir = tempdir("recover");
        let preload = KvStore::with_ycsb_records(50);
        let mut backend = LogBackend::open(&dir, LogConfig::default()).unwrap();
        assert!(!is_initialized(&backend));
        init_replica(&mut backend).unwrap();
        assert!(is_initialized(&backend));

        let writes = [(7, Value::from_u64(700), 5)];
        let (head, expected) = decision(&preload, &writes);
        let backend = persist(backend, &head, &writes);
        let (store, recovered) = recover_replica(&backend, &preload).unwrap();
        assert_eq!(store.len(), 50);
        assert_eq!(recovered.head_height(), 1);
        assert_eq!(recovered.head_hash(), head.hash());
        assert_eq!(store.state_digest(), expected.state_digest());
        assert_eq!(store.get(7), Some(Value::from_u64(700)));
        assert_eq!(store.version(7), Some(5));
        assert_eq!(store.private_records(), 1);
    }

    /// First boot writes the init marker and nothing else: no `table`
    /// run, and one WAL record holding one key.
    #[test]
    fn first_boot_writes_only_its_marker() {
        let dir = tempdir("first-boot");
        let mut backend = LogBackend::open(&dir, LogConfig::default()).unwrap();
        init_replica(&mut backend).unwrap();
        assert_eq!(backend.stats().wal_records, 1);
        drop(backend);
        let backend = LogBackend::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(backend.run_count(Keyspace::Table), 0);
        assert_eq!(
            backend.stats().keys_recovered,
            1,
            "the WAL holds the marker only"
        );
        for ks in Keyspace::ALL {
            let expected = match ks {
                Keyspace::Meta => vec![(META_INIT.to_vec(), vec![1])],
                _ => Vec::new(),
            };
            assert_eq!(backend.scan(ks), expected, "{ks:?}");
        }
    }

    /// A directory written before the engine's formats dropped their
    /// per-entry kind byte holds runs and a WAL under the older magics:
    /// the open refuses each with `InvalidData` and leaves its bytes as
    /// they were, rather than misreading or rewriting them.
    #[test]
    fn a_directory_of_an_older_format_is_refused() {
        // The `init` marker as those builds wrote it: the entry is
        // `[kind = 0 (put)] [key_len] [key] [val_len] [val]`, and a WAL
        // record carries an op count and a keyspace tag before it.
        let entry = [&[0, 4, 0, 0, 0][..], META_INIT, &[1, 0, 0, 0, 1]].concat();
        let check = |bytes: &[u8]| rdb_crypto::sha256::sha256(bytes)[..8].to_vec();
        let payload = [&[1, 0, 0, 0, Keyspace::Meta as u8][..], &entry].concat();
        let len = (payload.len() as u32).to_le_bytes();
        let wal = [&b"RDBWAL01"[..], &len, &check(&payload), &payload].concat();
        // A `meta` run of that entry: `[ks] [covers_from]`, the entry,
        // `[count]`, then the checksum over all of it.
        let body = [
            &[Keyspace::Meta as u8][..],
            &1u64.to_le_bytes(),
            &entry,
            &1u64.to_le_bytes(),
        ]
        .concat();
        let run = [&b"RDBRUN02"[..], &body, &check(&body)].concat();

        for (name, bytes) in [("wal", &wal), ("meta-00000001.run", &run)] {
            let dir = tempdir(&format!("older-{name}"));
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let err = LogBackend::open(&dir, LogConfig::default()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
            assert_eq!(&std::fs::read(&path).unwrap(), bytes, "{name} rewritten");
        }
    }

    /// Recovery checks the table it rebuilt against the recovered head: a
    /// persisted record rewritten behind the ledger's back (one bit of its
    /// value flipped, in a checksummed batch the engine reads back whole)
    /// is `InvalidData`, at height 0 and above it, and so is a preload
    /// other than the one the replica started from once a block records
    /// the state (at height 0 nothing does).
    #[test]
    fn a_table_that_misses_its_head_digest_is_refused() {
        let preload = KvStore::with_ycsb_records(50);
        let refused = |backend: &LogBackend, preload: &KvStore| {
            let err = recover_replica(backend, preload).map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("digest"), "{err}");
        };
        let flip = |backend: &mut LogBackend, key: u64, value: Value, version: u64| {
            let mut flipped = value;
            flipped.0[5] ^= 0x10;
            let mut batch = WriteBatch::new();
            let image = encode_table_value(flipped, version);
            batch.put(Keyspace::Table, be_key(key), image);
            backend.apply(batch).unwrap();
        };

        let mut backend = LogBackend::open(&tempdir("flip-0"), LogConfig::default()).unwrap();
        init_replica(&mut backend).unwrap();
        recover_replica(&backend, &preload).unwrap();
        flip(&mut backend, 9, preload.get(9).unwrap(), 1);
        refused(&backend, &preload);

        let writes = [(9, Value::from_u64(90), 2), (60, Value::from_u64(600), 1)];
        let (head, _) = decision(&preload, &writes);
        let mut backend = LogBackend::open(&tempdir("flip-1"), LogConfig::default()).unwrap();
        init_replica(&mut backend).unwrap();
        let mut backend = persist(backend, &head, &writes);
        recover_replica(&backend, &preload).unwrap();
        refused(&backend, &KvStore::with_ycsb_records(51));
        flip(&mut backend, 60, Value::from_u64(600), 1);
        refused(&backend, &preload);
    }

    /// The one kill point of a first boot: inside the marker's WAL
    /// append. Cut at every byte, the directory reboots uninitialized,
    /// and the reboot recovers the preload at height 0 and stays
    /// initialized.
    #[test]
    fn a_first_boot_torn_inside_its_marker_reboots_clean() {
        let preload = KvStore::with_ycsb_records(30);
        let dir = tempdir("marker");
        let mut backend = LogBackend::open(&dir, LogConfig::default()).unwrap();
        let header = std::fs::metadata(dir.join("wal")).unwrap().len() as usize;
        init_replica(&mut backend).unwrap();
        drop(backend);
        let wal = std::fs::read(dir.join("wal")).unwrap();
        assert!(wal.len() > header, "the marker is a WAL record");
        for cut in header..wal.len() {
            let dir = tempdir(&format!("marker-{cut}"));
            drop(LogBackend::open(&dir, LogConfig::default()).unwrap());
            std::fs::write(dir.join("wal"), &wal[..cut]).unwrap();
            assert!(!is_initialized(
                &LogBackend::open(&dir, LogConfig::default()).unwrap()
            ));
            let (table, ledger) = boot(&dir, &preload);
            assert_eq!(table.state_digest(), preload.state_digest());
            assert_eq!(ledger.head_height(), 0);
            assert!(is_initialized(
                &LogBackend::open(&dir, LogConfig::default()).unwrap()
            ));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Replicas recovered from one preload share its base, whatever they
    /// wrote: one at its first boot's height 0, one past a decision.
    #[test]
    fn replicas_recovered_from_one_preload_share_it() {
        let preload = KvStore::with_ycsb_records(40);
        let idle = tempdir("share-idle");
        boot(&idle, &preload);
        let busy = tempdir("share-busy");
        let mut backend = LogBackend::open(&busy, LogConfig::default()).unwrap();
        init_replica(&mut backend).unwrap();
        let writes = [(1, Value::from_u64(11), 2)];
        let (head, _) = decision(&preload, &writes);
        drop(persist(backend, &head, &writes));

        let (idle, _) = boot(&idle, &preload);
        let (busy, ledger) = boot(&busy, &preload);
        assert_eq!(ledger.head_height(), 1);
        assert!(KvStore::shares_base(&idle, &busy));
        assert!(KvStore::shares_base(&idle, &preload));
        assert_eq!((idle.private_records(), busy.private_records()), (0, 1));
    }

    /// One write decision of a shared history: client 0's `round`-th
    /// batch, writing `key := value`.
    fn write(round: u64, key: u64, value: u64) -> rdb_consensus::types::SignedBatch {
        use rdb_common::ids::ClientId;
        use rdb_consensus::types::{ClientBatch, SignedBatch, Transaction};
        let client = ClientId::new(0, 0);
        SignedBatch {
            batch: ClientBatch {
                client,
                batch_seq: round,
                txns: vec![Transaction {
                    client,
                    seq: round,
                    op: rdb_store::Operation::Write {
                        key,
                        value: Value::from_u64(value),
                    },
                }]
                .into(),
            },
            pubkey: Default::default(),
            sig: Default::default(),
        }
    }

    /// A replica that executed `history`, one decision per batch, over
    /// a 20-record preload: its table and ledger.
    fn replica(history: &[rdb_consensus::types::SignedBatch]) -> (KvStore, Ledger) {
        let mut store = KvStore::with_ycsb_records(20);
        let mut ledger = Ledger::new();
        for batch in history {
            store.execute_batch(batch.batch.operations());
            ledger.append(batch.clone(), None, store.state_digest());
        }
        (store, ledger)
    }

    fn audit_ctx() -> (SystemConfig, CryptoCtx) {
        let ks = rdb_crypto::sign::KeyStore::new(1);
        let signer = ks.register(ReplicaId::new(0, 0).into());
        (
            SystemConfig::geo(1, 4).unwrap(),
            CryptoCtx::new(signer, ks.verifier(), true),
        )
    }

    fn history() -> Vec<rdb_consensus::types::SignedBatch> {
        (1..=3).map(|r| write(r, r, 100 * r)).collect()
    }

    #[test]
    fn align_heads_lifts_every_replica_to_the_highest_head() {
        let h = history();
        let replicas: Vec<_> = [1, 3, 0].iter().map(|&head| replica(&h[..head])).collect();
        let (full_store, full) = replicas[1].clone();
        let mut tables: Vec<_> = replicas.iter().map(|(s, _)| s.clone()).collect();
        let (system, crypto) = audit_ctx();
        let view = tables.iter_mut().zip(replicas.iter().map(|(_, l)| l));
        let gaps = align_heads(view.collect(), &system, &crypto).unwrap();
        for ((gap, table), (own, ledger)) in gaps.into_iter().zip(&tables).zip(&replicas) {
            assert_eq!(table.state_digest(), full_store.state_digest());
            // The gap's images carry the replica's own table to the head.
            let mut moved = own.clone();
            for (key, value, version) in gap.writes {
                moved.restore_record(key, value, version);
            }
            assert_eq!(moved.state_digest(), full_store.state_digest());
            let mut ledger = ledger.clone();
            for block in gap.blocks {
                ledger.append(block.batch, block.certificate, block.state_digest);
            }
            assert_eq!(ledger.head_hash(), full.head_hash());
        }
    }

    #[test]
    fn align_heads_refuses_a_replica_that_forked() {
        let h = history();
        let (mut fork_store, fork_ledger) = replica(&[h[0].clone(), write(2, 9, 900)]);
        let (mut store, ledger) = replica(&h);
        let (system, crypto) = audit_ctx();
        let view = vec![(&mut fork_store, &fork_ledger), (&mut store, &ledger)];
        let err = align_heads(view, &system, &crypto).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("forks"), "{err}");
    }
}
