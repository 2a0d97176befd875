//! Sorted immutable run files ("SSTables"): the streaming writer, the
//! open-time validator, the in-memory [`Run`] handle with its sparse index,
//! and the newest-wins k-way [`Merge`].
//!
//! ## File format
//!
//! ```text
//! header:  "RDBRUN03" [ks: u8] [covers_from: u64 LE]          (17 bytes)
//! entry:   [key_len: u32 LE] [key] [val_len: u32 LE] [val]
//! footer:  [count: u64 LE] [check: 8 bytes]                    (16 bytes)
//! ```
//!
//! Entries are strictly ascending by key. `count` is the number of entries
//! and `check` the first 8 bytes of SHA-256 over everything between the
//! magic and `check` itself.
//! `covers_from` is the oldest run sequence number whose data this file
//! holds: its own number for a flushed memtable, the oldest input's for a
//! merge — [`LogBackend::open`](crate::LogBackend::open) uses it to discard
//! the inputs of a merge that crashed before deleting them.
//!
//! A run is written once, front to back, through an incremental hash
//! ([`RunWriter`]) into a `.tmp` sibling and renamed into place, so a run
//! file either exists whole or not at all — crash atomicity for flushes and
//! merges comes from the filesystem rename, not from replay logic.
//!
//! ## Handles, not copies
//!
//! Nothing of a run's payload stays in memory. A [`Run`] is the path, the
//! entry count, the last key and a **sparse index**: the key and file
//! offset of the first entry and of one more entry every [`INDEX_STRIDE`]
//! bytes. [`Run::open`] streams the file once, holding one entry at a time,
//! and refuses it unless magic, framing, strict key order, count and
//! checksum all hold (a run of an older format, such as `RDBRUN02`, fails
//! on its magic); the index is built during that pass. After that check
//! the bytes are trusted: [`Run::get`] seeks to the indexed offset at or
//! before the key and reads at most one stride, and [`Merge`] reads entries
//! front to back without re-hashing.

use crate::backend::Keyspace;
use rdb_crypto::sha256::Sha256;
use std::collections::{btree_map, BTreeMap};
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every run file.
pub const RUN_MAGIC: &[u8; 8] = b"RDBRUN03";

/// The sparse index holds one entry per this many bytes of run file.
pub const INDEX_STRIDE: u64 = 4096;

const HEADER_LEN: u64 = RUN_MAGIC.len() as u64 + 1 + 8;
const FOOTER_LEN: u64 = 8 + 8;

/// One key with its value.
pub type Entry = (Vec<u8>, Vec<u8>);

/// A keyspace's resident writes, awaiting flush.
pub type Memtable = BTreeMap<Vec<u8>, Vec<u8>>;

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Handle on one validated run file. See the module docs.
#[derive(Debug)]
pub struct Run {
    path: PathBuf,
    ks: Keyspace,
    covers_from: u64,
    bytes: u64,
    summary: Summary,
}

/// What one front-to-back pass over a run's entries learns about it; the
/// writer and the validator both feed it, so they build the same index.
#[derive(Debug, Default)]
struct Summary {
    count: u64,
    last_key: Vec<u8>,
    /// `(key, file offset of its entry)`, ascending; holds the first entry.
    index: Vec<(Vec<u8>, u64)>,
}

impl Summary {
    /// Record the entry `key` starting at file offset `pos`. `false` if it
    /// does not sort strictly after the previous entry.
    fn note(&mut self, key: &[u8], pos: u64) -> bool {
        if self.count > 0 && self.last_key.as_slice() >= key {
            return false;
        }
        if self
            .index
            .last()
            .is_none_or(|(_, at)| pos >= at + INDEX_STRIDE)
        {
            self.index.push((key.to_vec(), pos));
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count += 1;
        true
    }
}

impl Run {
    /// Stream the run at `path` once, validating everything the format
    /// promises (module docs) and building the sparse index.
    pub fn open(path: &Path) -> io::Result<Run> {
        Self::validate(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }

    fn validate(path: &Path) -> io::Result<Run> {
        let mut file = File::open(path)?;
        let bytes = file.metadata()?.len();
        if bytes < HEADER_LEN + FOOTER_LEN {
            return Err(invalid("short run file"));
        }
        let mut magic = [0u8; RUN_MAGIC.len()];
        file.read_exact(&mut magic)?;
        if &magic != RUN_MAGIC {
            return Err(invalid("bad run magic"));
        }
        // Everything between the magic and the checksum is hashed as the
        // buffered reader pulls it in, a buffer at a time.
        let hashed = Hashed {
            inner: file.take(bytes - RUN_MAGIC.len() as u64 - 8),
            hasher: Sha256::new(),
        };
        let mut reader = BufReader::with_capacity(1 << 16, hashed);
        let mut tag = [0u8; 1];
        reader.read_exact(&mut tag)?;
        let ks = Keyspace::from_tag(tag[0]).ok_or_else(|| invalid("bad keyspace tag"))?;
        let covers_from = read_u64(&mut reader)?;

        let mut cursor = Cursor::new(reader, HEADER_LEN, bytes - FOOTER_LEN);
        let mut summary = Summary::default();
        while cursor.advance()? {
            if !summary.note(&cursor.key, cursor.entry_pos) {
                return Err(invalid("entries out of order"));
            }
        }
        let mut reader = cursor.reader;
        if read_u64(&mut reader)? != summary.count {
            return Err(invalid("entry count mismatch"));
        }
        let Hashed { inner, hasher } = reader.into_inner();
        let mut check = [0u8; 8];
        inner.into_inner().read_exact(&mut check)?;
        if hasher.finalize()[..8] != check {
            return Err(invalid("run checksum mismatch"));
        }
        Ok(Run {
            path: path.to_path_buf(),
            ks,
            covers_from,
            bytes,
            summary,
        })
    }

    /// Where the run lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Keyspace the run belongs to.
    pub fn ks(&self) -> Keyspace {
        self.ks
    }

    /// Oldest run sequence number whose data this run holds.
    pub fn covers_from(&self) -> u64 {
        self.covers_from
    }

    /// Entries in the run.
    pub fn count(&self) -> u64 {
        self.summary.count
    }

    /// Size of the run file.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Key bytes plus offsets this handle keeps in memory.
    pub fn resident_bytes(&self) -> usize {
        let index: usize = self.summary.index.iter().map(|(k, _)| k.len() + 8).sum();
        index + self.summary.last_key.len()
    }

    fn first_key(&self) -> Option<&[u8]> {
        self.summary.index.first().map(|(k, _)| k.as_slice())
    }

    /// A cursor over the entries stored in file offsets `from..to`.
    fn cursor(&self, from: u64, to: u64) -> io::Result<Cursor<BufReader<File>>> {
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(from))?;
        Ok(Cursor::new(BufReader::new(file), from, to))
    }

    /// Look `key` up; `None` if the run does not hold it.
    pub fn get(&self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let index = &self.summary.index;
        // Entries of the index at or before `key`; none of them means the
        // key sorts before the whole run.
        let at = index.partition_point(|(k, _)| k.as_slice() <= key);
        if at == 0 || key > self.summary.last_key.as_slice() {
            return Ok(None);
        }
        let to = index
            .get(at)
            .map_or(self.bytes - FOOTER_LEN, |(_, pos)| *pos);
        let mut cursor = self.cursor(index[at - 1].1, to)?;
        while cursor.advance()? {
            if cursor.key.as_slice() == key {
                return cursor.value().map(Some);
            }
            if cursor.key.as_slice() > key {
                break;
            }
        }
        Ok(None)
    }
}

/// Passes reads or writes through while hashing every byte that went by.
/// It sits *under* the buffered reader or writer, so the hash absorbs whole
/// buffers rather than single fields.
struct Hashed<T> {
    inner: T,
    hasher: Sha256,
}

impl<R: Read> Read for Hashed<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hasher.update(&buf[..n]);
        Ok(n)
    }
}

impl<W: Write> Write for Hashed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hasher.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut raw = [0u8; 8];
    r.read_exact(&mut raw)?;
    Ok(u64::from_le_bytes(raw))
}

/// Front-to-back reader of a span of entries. It holds the current entry's
/// key and leaves the value in the file until [`Cursor::value`] asks for
/// it, so a merge buffers only keys for the entries it is not emitting.
struct Cursor<R> {
    reader: R,
    /// File offset of the next unread byte.
    pos: u64,
    /// File offset where the span of entries ends.
    end: u64,
    /// Key of the current entry.
    key: Vec<u8>,
    /// File offset where the current entry starts.
    entry_pos: u64,
    /// Value bytes of the current entry still in the file; 0 once taken.
    unread: u64,
}

impl<R: BufRead> Cursor<R> {
    fn new(reader: R, pos: u64, end: u64) -> Self {
        Cursor {
            reader,
            pos,
            end,
            key: Vec::new(),
            entry_pos: pos,
            unread: 0,
        }
    }

    /// Claim the next `n` bytes of the span; a length field is checked
    /// against the file here, before anything is allocated for it.
    fn claim(&mut self, n: u64) -> io::Result<()> {
        if n > self.end - self.pos {
            return Err(invalid("entry out of bounds"));
        }
        self.pos += n;
        Ok(())
    }

    fn take<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        self.claim(N as u64)?;
        let mut raw = [0u8; N];
        self.reader.read_exact(&mut raw)?;
        Ok(raw)
    }

    /// Move to the next entry, passing over the current value if it was
    /// not taken. `false` at the end of the span.
    fn advance(&mut self) -> io::Result<bool> {
        let mut n = std::mem::take(&mut self.unread);
        self.claim(n)?;
        while n > 0 {
            let step = (self.reader.fill_buf()?.len() as u64).min(n);
            if step == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.reader.consume(step as usize);
            n -= step;
        }
        if self.pos == self.end {
            return Ok(false);
        }
        self.entry_pos = self.pos;
        let key_len = u32::from_le_bytes(self.take()?);
        self.claim(u64::from(key_len))?;
        self.key.resize(key_len as usize, 0);
        self.reader.read_exact(&mut self.key)?;
        // The value's length is claimed when the value is read or skipped.
        self.unread = u64::from(u32::from_le_bytes(self.take()?));
        Ok(true)
    }

    /// The current entry's value. Call at most once per entry.
    fn value(&mut self) -> io::Result<Vec<u8>> {
        let n = std::mem::take(&mut self.unread);
        self.claim(n)?;
        let mut value = vec![0; n as usize];
        self.reader.read_exact(&mut value)?;
        Ok(value)
    }
}

/// Streams one run file out, entry by entry in ascending key order, and
/// installs it atomically. See the module docs for the format.
pub struct RunWriter {
    /// The handle being built; `bytes` tracks the offset written so far.
    run: Run,
    out: BufWriter<Hashed<File>>,
}

impl RunWriter {
    /// Start the `.tmp` sibling of `path`.
    pub fn create(path: &Path, ks: Keyspace, covers_from: u64) -> io::Result<RunWriter> {
        let mut file = File::create(path.with_extension("tmp"))?;
        file.write_all(RUN_MAGIC)?;
        let hashed = Hashed {
            inner: file,
            hasher: Sha256::new(),
        };
        let mut writer = RunWriter {
            run: Run {
                path: path.to_path_buf(),
                ks,
                covers_from,
                bytes: RUN_MAGIC.len() as u64,
                summary: Summary::default(),
            },
            out: BufWriter::with_capacity(1 << 16, hashed),
        };
        writer.put(&[ks as u8])?;
        writer.put(&covers_from.to_le_bytes())?;
        Ok(writer)
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.out.write_all(bytes)?;
        self.run.bytes += bytes.len() as u64;
        Ok(())
    }

    fn put_len(&mut self, len: usize) -> io::Result<()> {
        let len = u32::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "key or value over 4 GiB"))?;
        self.put(&len.to_le_bytes())
    }

    /// Append one entry.
    ///
    /// # Panics
    /// If `key` does not sort strictly after the previous one: the callers
    /// feed a `BTreeMap` or a [`Merge`], both ordered by construction.
    pub fn push(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        assert!(
            self.run.summary.note(key, self.run.bytes),
            "run entries pushed out of order"
        );
        self.put_len(key.len())?;
        self.put(key)?;
        self.put_len(value.len())?;
        self.put(value)
    }

    /// Seal the file, rename it into place (replacing whatever was there)
    /// and return its handle.
    pub fn finish(mut self, fsync: bool) -> io::Result<Run> {
        self.put(&self.run.summary.count.to_le_bytes())?;
        let Hashed {
            inner: mut file,
            hasher,
        } = self
            .out
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?;
        file.write_all(&hasher.finalize()[..8])?;
        self.run.bytes += 8;
        if fsync {
            file.sync_all()?;
        }
        drop(file);
        fs::rename(self.run.path.with_extension("tmp"), &self.run.path)?;
        if fsync {
            sync_parent(&self.run.path)?;
        }
        Ok(self.run)
    }
}

/// Make a rename of `path` durable by syncing the directory holding it.
fn sync_parent(path: &Path) -> io::Result<()> {
    // Only Unix lets a directory be opened for sync; elsewhere the rename's
    // durability is the filesystem journal's.
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// One input of a [`Merge`].
enum Source<'a> {
    /// A run not yet reached: its first key is known from the handle, so
    /// the file is opened only when the merge gets there. Key-disjoint runs
    /// (the append-only keyspaces) are therefore open one at a time.
    Pending(&'a Run),
    /// A run being read; the cursor sits on the head entry.
    Open(Cursor<BufReader<File>>),
    /// The memtable, with its head entry.
    Mem {
        head: (&'a Vec<u8>, &'a Vec<u8>),
        rest: btree_map::Iter<'a, Vec<u8>, Vec<u8>>,
    },
    Done,
}

impl Source<'_> {
    fn key(&self) -> Option<&[u8]> {
        match self {
            Source::Pending(run) => run.first_key(),
            Source::Open(cursor) => Some(&cursor.key),
            Source::Mem { head, .. } => Some(head.0),
            Source::Done => None,
        }
    }

    /// Put a pending run's cursor on its first entry.
    fn open(&mut self) -> io::Result<()> {
        if let Source::Pending(run) = *self {
            let mut cursor = run.cursor(HEADER_LEN, run.bytes - FOOTER_LEN)?;
            *self = if cursor.advance()? {
                Source::Open(cursor)
            } else {
                Source::Done
            };
        }
        Ok(())
    }

    /// The head entry's value.
    fn value(&mut self) -> io::Result<Vec<u8>> {
        self.open()?;
        match self {
            Source::Open(cursor) => cursor.value(),
            Source::Mem { head, .. } => Ok(head.1.clone()),
            // The run ended before the first key its index promised.
            Source::Pending(_) | Source::Done => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }

    /// Drop the head entry.
    fn advance(&mut self) -> io::Result<()> {
        self.open()?;
        let more = match self {
            Source::Open(cursor) => cursor.advance()?,
            Source::Mem { head, rest } => rest.next().map(|next| *head = next).is_some(),
            Source::Pending(_) | Source::Done => false,
        };
        if !more {
            *self = Source::Done;
        }
        Ok(())
    }
}

/// Streaming k-way merge: yields every key of its inputs once, ascending,
/// with the value of the *newest* input that holds it. Memory is one key
/// per input plus the entry being yielded.
pub struct Merge<'a> {
    /// Oldest → newest; the memtable, when present, is last.
    sources: Vec<Source<'a>>,
}

impl<'a> Merge<'a> {
    /// Merge `runs` (oldest → newest) with `memtable` on top of them.
    pub fn new(runs: impl IntoIterator<Item = &'a Run>, memtable: Option<&'a Memtable>) -> Self {
        let mut sources: Vec<Source<'a>> = runs.into_iter().map(Source::Pending).collect();
        if let Some(memtable) = memtable {
            let mut rest = memtable.iter();
            if let Some(head) = rest.next() {
                sources.push(Source::Mem { head, rest });
            }
        }
        Merge { sources }
    }

    fn step(&mut self) -> io::Result<Option<Entry>> {
        // Smallest head key; scanning newest → oldest with a strict
        // comparison leaves the newest holder of that key as the winner.
        let mut winner: Option<(usize, &[u8])> = None;
        for (i, source) in self.sources.iter().enumerate().rev() {
            if let Some(key) = source.key() {
                if winner.is_none_or(|(_, min)| key < min) {
                    winner = Some((i, key));
                }
            }
        }
        let Some((winner, key)) = winner else {
            return Ok(None);
        };
        let key = key.to_vec();
        let value = self.sources[winner].value()?;
        for source in &mut self.sources {
            if source.key() == Some(key.as_slice()) {
                source.advance()?;
            }
        }
        Ok(Some((key, value)))
    }
}

impl Iterator for Merge<'_> {
    type Item = io::Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        let step = self.step();
        if step.is_err() {
            // An input failed mid-entry; nothing after it can be trusted.
            self.sources.clear();
        }
        step.transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Lit<'a> = (&'a [u8], &'a [u8]);

    fn dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdb-run-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(path: &Path, entries: &[Lit]) -> Run {
        let mut w = RunWriter::create(path, Keyspace::Table, 1).unwrap();
        for (k, v) in entries {
            w.push(k, v).unwrap();
        }
        w.finish(false).unwrap()
    }

    fn owned(entries: &[Lit]) -> Vec<Entry> {
        entries
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }

    fn merged(runs: &[&Run], memtable: Option<&Memtable>) -> Vec<Entry> {
        Merge::new(runs.iter().copied(), memtable)
            .collect::<io::Result<_>>()
            .unwrap()
    }

    /// Re-seal `body` (header fields + entries) with a chosen count, so
    /// only the property under test is wrong, never the checksum.
    fn seal(body: &[u8], count: u64) -> Vec<u8> {
        let mut out = RUN_MAGIC.to_vec();
        out.extend_from_slice(body);
        out.extend_from_slice(&count.to_le_bytes());
        let check = rdb_crypto::sha256::sha256(&out[RUN_MAGIC.len()..]);
        out.extend_from_slice(&check[..8]);
        out
    }

    /// The header fields and entries of the run file at `path`.
    fn body(path: &Path) -> Vec<u8> {
        let bytes = fs::read(path).unwrap();
        bytes[RUN_MAGIC.len()..bytes.len() - FOOTER_LEN as usize].to_vec()
    }

    #[test]
    fn run_file_round_trips() {
        let path = dir("roundtrip").join("table-00000001.run");
        let entries: &[Lit] = &[(b"a", b"1"), (b"b", b""), (b"c", b"3333333333")];
        let written = write(&path, entries);
        assert!(!path.with_extension("tmp").exists());
        let back = Run::open(&path).unwrap();
        for run in [&written, &back] {
            assert_eq!(run.ks(), Keyspace::Table);
            assert_eq!(run.covers_from(), 1);
            assert_eq!(run.count(), 3);
            assert_eq!(run.bytes(), fs::metadata(&path).unwrap().len());
            assert_eq!(merged(&[run], None), owned(entries));
            assert_eq!(run.get(b"a").unwrap(), Some(b"1".to_vec()));
            assert_eq!(run.get(b"b").unwrap(), Some(Vec::new()));
            assert_eq!(run.get(b"bb").unwrap(), None);
            assert_eq!(run.get(b"0").unwrap(), None);
            assert_eq!(run.get(b"z").unwrap(), None);
        }

        // Corrupt one byte: the checksum refuses the file.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(Run::open(&path).is_err());
    }

    #[test]
    fn sparse_index_finds_every_key_of_a_multi_stride_run() {
        let path = dir("index").join("table-00000001.run");
        let mut w = RunWriter::create(&path, Keyspace::Table, 1).unwrap();
        for k in 0..2000u32 {
            w.push(&k.to_be_bytes(), &[k as u8; 40]).unwrap();
        }
        w.finish(false).unwrap();
        let run = Run::open(&path).unwrap();
        let strides = (run.bytes() / INDEX_STRIDE) as usize;
        assert!(strides > 10);
        assert!((strides..=strides + 1).contains(&run.summary.index.len()));
        assert!(run.resident_bytes() < 16 * (strides + 2));
        for k in 0..2000u32 {
            assert_eq!(
                run.get(&k.to_be_bytes()).unwrap(),
                Some(vec![k as u8; 40]),
                "key {k}"
            );
        }
        assert_eq!(run.get(&2000u32.to_be_bytes()).unwrap(), None);
    }

    #[test]
    fn open_refuses_misordered_miscounted_and_truncated_runs() {
        let d = dir("refuse");
        let good = d.join("table-00000001.run");
        write(&good, &[(b"a", b"1"), (b"b", b"2")]);
        let bytes = fs::read(&good).unwrap();
        let body_end = bytes.len() - FOOTER_LEN as usize;
        let path = d.join("table-00000002.run");
        let refused = |bytes: Vec<u8>| {
            fs::write(&path, bytes).unwrap();
            Run::open(&path).unwrap_err().to_string()
        };
        let body = &bytes[RUN_MAGIC.len()..body_end];
        fs::write(&path, seal(body, 2)).unwrap();
        assert!(Run::open(&path).is_ok(), "the re-sealed original is valid");

        assert!(refused(seal(body, 3)).contains("count"));
        // Swap the two 10-byte entries: same bytes, wrong order.
        let (head, entries) = body.split_at(9);
        let swapped = [head, &entries[10..], &entries[..10]].concat();
        assert!(refused(seal(&swapped, 2)).contains("order"));
        // A key length pointing past the file.
        let mut long = body.to_vec();
        long[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(refused(seal(&long, 2)).contains("bounds"));
        // Flip the count and leave the old checksum in place.
        let mut stale = bytes.clone();
        stale[body_end] ^= 1;
        assert!(refused(stale).contains("count"));
        let mut stale = bytes.clone();
        stale[body_end + 8] ^= 1;
        assert!(refused(stale).contains("checksum"));
        // A torn file, at every length.
        for len in 0..bytes.len() {
            refused(bytes[..len].to_vec());
        }
    }

    #[test]
    fn merge_newest_wins_with_the_memtable_on_top() {
        let d = dir("merge");
        let old = write(
            &d.join("table-00000001.run"),
            &[(b"a", b"old"), (b"b", b"old"), (b"d", b"old")],
        );
        let new = write(
            &d.join("table-00000002.run"),
            &[(b"a", b"new"), (b"c", b"new")],
        );
        assert_eq!(
            merged(&[&old, &new], None),
            owned(&[
                (b"a", b"new"),
                (b"b", b"old"),
                (b"c", b"new"),
                (b"d", b"old")
            ])
        );

        let mut memtable = Memtable::new();
        memtable.insert(b"b".to_vec(), b"mem".to_vec());
        memtable.insert(b"e".to_vec(), b"mem".to_vec());
        assert_eq!(
            merged(&[&old, &new], Some(&memtable)),
            owned(&[
                (b"a", b"new"),
                (b"b", b"mem"),
                (b"c", b"new"),
                (b"d", b"old"),
                (b"e", b"mem"),
            ])
        );
    }

    #[test]
    fn merge_opens_key_disjoint_runs_one_at_a_time() {
        let d = dir("lazy");
        let runs: Vec<Run> = (0..4u8)
            .map(|i| {
                let keys = [[2 * i], [2 * i + 1]];
                write(
                    &d.join(format!("table-0000000{i}.run")),
                    &[(&keys[0], b"v"), (&keys[1], b"v")],
                )
            })
            .collect();
        let mut merge = Merge::new(&runs, None);
        for k in 0..8u8 {
            assert_eq!(merge.next().unwrap().unwrap().0, vec![k]);
            let open = merge
                .sources
                .iter()
                .filter(|s| matches!(s, Source::Open(_)))
                .count();
            assert!(open <= 1, "{open} runs open after key {k}");
        }
        assert!(merge.next().is_none());
    }

    #[test]
    fn empty_run_round_trips() {
        let path = dir("empty").join("table-00000001.run");
        let run = write(&path, &[]);
        assert_eq!(run.count(), 0);
        assert_eq!(Run::open(&path).unwrap().count(), 0);
        assert_eq!(run.get(b"a").unwrap(), None);
        assert!(merged(&[&run], None).is_empty());
    }

    #[test]
    fn a_run_of_the_previous_format_is_refused() {
        let path = dir("older").join("table-00000001.run");
        write(&path, &[(b"a", b"1")]);
        // The checksum does not cover the magic: only the magic is wrong.
        let mut bytes = fs::read(&path).unwrap();
        bytes[..RUN_MAGIC.len()].copy_from_slice(b"RDBRUN02");
        fs::write(&path, &bytes).unwrap();
        let err = Run::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn an_entry_is_its_key_and_value_with_two_lengths() {
        let path = dir("layout").join("meta-00000007.run");
        let mut w = RunWriter::create(&path, Keyspace::Meta, 5).unwrap();
        w.push(b"k", b"vv").unwrap();
        w.push(b"kk", b"").unwrap();
        let run = w.finish(false).unwrap();
        let bytes = fs::read(&path).unwrap();
        let expect = [
            &RUN_MAGIC[..],
            &[Keyspace::Meta as u8],
            &5u64.to_le_bytes(),
            &1u32.to_le_bytes(),
            b"k",
            &2u32.to_le_bytes(),
            b"vv",
            &2u32.to_le_bytes(),
            b"kk",
            &0u32.to_le_bytes(),
            &2u64.to_le_bytes(),
        ]
        .concat();
        assert_eq!(bytes[..bytes.len() - 8], expect[..]);
        assert_eq!(run.bytes(), HEADER_LEN + (8 + 3) + (8 + 2) + FOOTER_LEN);
    }

    #[test]
    fn open_refuses_a_bad_keyspace_tag() {
        let path = dir("tag").join("table-00000001.run");
        write(&path, &[(b"a", b"1")]);
        let mut body = body(&path);
        body[0] = 9;
        fs::write(&path, seal(&body, 1)).unwrap();
        let err = Run::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("keyspace"), "{err}");
    }

    #[test]
    fn open_refuses_a_value_length_past_the_entries() {
        let path = dir("value").join("table-00000001.run");
        write(&path, &[(b"a", b"1"), (b"b", b"2")]);
        let good = body(&path);
        // The first value's length follows the header (9 bytes), the key's
        // length and the key. The value and the second entry leave 11
        // bytes before the footer.
        for len in [12, u32::MAX] {
            let mut body = good.clone();
            body[14..18].copy_from_slice(&len.to_le_bytes());
            fs::write(&path, seal(&body, 2)).unwrap();
            let err = Run::open(&path).unwrap_err();
            assert!(err.to_string().contains("bounds"), "{len}: {err}");
        }
        fs::write(&path, seal(&good, 2)).unwrap();
        assert_eq!(Run::open(&path).unwrap().count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn pushing_a_key_out_of_order_panics() {
        let path = dir("unordered").join("table-00000001.run");
        let mut w = RunWriter::create(&path, Keyspace::Table, 1).unwrap();
        w.push(b"b", b"1").unwrap();
        w.push(b"a", b"2").unwrap();
    }

    #[test]
    fn merge_of_a_lone_memtable_yields_it_in_key_order() {
        let mut memtable = Memtable::new();
        for k in [b"c", b"a", b"b"] {
            memtable.insert(k.to_vec(), k.to_vec());
        }
        assert_eq!(
            merged(&[], Some(&memtable)),
            owned(&[(b"a", b"a"), (b"b", b"b"), (b"c", b"c")])
        );
        assert!(merged(&[], Some(&Memtable::new())).is_empty());
        assert!(merged(&[], None).is_empty());
    }
}
