//! Checksummed write-ahead log with torn-tail truncation on replay.
//!
//! ## File format
//!
//! ```text
//! header:  "RDBWAL02"                                  (8 bytes)
//! record:  [len: u32 LE] [check: 8 bytes] [payload: len bytes]
//! ```
//!
//! `check` is the first 8 bytes of SHA-256 over the payload. A record is
//! valid only if the full frame is present *and* the checksum matches; the
//! first invalid frame ends replay and the file is truncated there, so a
//! torn tail (partial `write` at crash) silently disappears and the log
//! always ends on a whole-record boundary. A file under any other magic —
//! a foreign file, or a WAL of an older format such as `RDBWAL01` — is
//! refused with `InvalidData`, neither replayed nor rewritten.
//!
//! One record carries one [`WriteBatch`] serialized by
//! [`encode_batch`]; atomicity of the batch is therefore exactly the
//! atomicity of one record.

use crate::backend::{Keyspace, WriteBatch, WriteOp};
use rdb_crypto::sha256::sha256;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"RDBWAL02";

/// Bytes of record framing per record (length + checksum).
pub const RECORD_OVERHEAD: u64 = 12;

/// Append-side handle on a WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes currently in the file (header + whole records).
    len: u64,
    fsync: bool,
}

/// Outcome of replaying a WAL file at open.
#[derive(Debug)]
pub struct Replay {
    /// The decoded batches, in append order.
    pub batches: Vec<WriteBatch>,
    /// Bytes of torn tail discarded by truncation (0 for a clean log).
    pub truncated_bytes: u64,
}

impl Wal {
    /// Open (creating if absent) the WAL at `path`, replay every valid
    /// record, and truncate any torn tail so subsequent appends extend a
    /// well-formed log.
    pub fn open(path: &Path, fsync: bool) -> io::Result<(Wal, Replay)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;

        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.is_empty() {
            file.write_all(WAL_MAGIC)?;
            if fsync {
                file.sync_data()?;
            }
            let wal = Wal {
                file,
                path: path.to_path_buf(),
                len: WAL_MAGIC.len() as u64,
                fsync,
            };
            return Ok((
                wal,
                Replay {
                    batches: Vec::new(),
                    truncated_bytes: 0,
                },
            ));
        }

        // A file that exists but lacks the magic is not ours — refuse
        // rather than silently overwrite.
        if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a WAL file (bad magic)", path.display()),
            ));
        }

        let mut batches = Vec::new();
        let mut pos = WAL_MAGIC.len();
        while let Some(frame) = read_frame(&bytes, pos) {
            let Ok(batch) = decode_batch(frame.payload) else {
                // Checksum passed but the payload is malformed: treat like a
                // torn record and stop here. (Only reachable if a record was
                // written by a different version; checksums catch bit rot.)
                break;
            };
            batches.push(batch);
            pos = frame.end;
        }

        let truncated = (bytes.len() - pos) as u64;
        if truncated > 0 {
            file.set_len(pos as u64)?;
            if fsync {
                file.sync_data()?;
            }
        }
        file.seek(SeekFrom::End(0))?;

        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                len: pos as u64,
                fsync,
            },
            Replay {
                batches,
                truncated_bytes: truncated,
            },
        ))
    }

    /// Append one batch as a single checksummed record. Returns the bytes
    /// appended (framing included).
    pub fn append(&mut self, batch: &WriteBatch) -> io::Result<u64> {
        let payload = encode_batch(batch);
        let mut frame = Vec::with_capacity(payload.len() + RECORD_OVERHEAD as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&sha256(&payload)[..8]);
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.len += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Discard every record: once a flush has made the memtables durable as
    /// run files, the log restarts empty.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::End(0))?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.len = WAL_MAGIC.len() as u64;
        Ok(())
    }

    /// Current file length in bytes (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == WAL_MAGIC.len() as u64
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

struct Frame<'a> {
    payload: &'a [u8],
    end: usize,
}

/// Validate the frame starting at `pos`; `None` if truncated or corrupt.
fn read_frame(bytes: &[u8], pos: usize) -> Option<Frame<'_>> {
    let head = bytes.get(pos..pos + RECORD_OVERHEAD as usize)?;
    let len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
    let payload =
        bytes.get(pos + RECORD_OVERHEAD as usize..pos + RECORD_OVERHEAD as usize + len)?;
    if sha256(payload)[..8] != head[4..12] {
        return None;
    }
    Some(Frame {
        payload,
        end: pos + RECORD_OVERHEAD as usize + len,
    })
}

/// Serialize a batch:
/// `[op_count: u32 LE]` then per op
/// `[ks: u8] [key_len: u32 LE] [key] [val_len: u32 LE] [val]`.
pub fn encode_batch(batch: &WriteBatch) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(batch.ops.len() as u32).to_le_bytes());
    for WriteOp { ks, key, value } in &batch.ops {
        out.push(*ks as u8);
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(value);
    }
    out
}

/// Inverse of [`encode_batch`].
pub fn decode_batch(payload: &[u8]) -> Result<WriteBatch, &'static str> {
    let mut pos = 0usize;
    let count = read_u32(payload, &mut pos)?;
    let mut ops = Vec::new();
    for _ in 0..count {
        let ks = Keyspace::from_tag(read_u8(payload, &mut pos)?).ok_or("bad keyspace tag")?;
        let key = read_bytes(payload, &mut pos)?.to_vec();
        let value = read_bytes(payload, &mut pos)?.to_vec();
        ops.push(WriteOp { ks, key, value });
    }
    if pos != payload.len() {
        return Err("trailing bytes in record");
    }
    Ok(WriteBatch { ops })
}

fn read_u8(b: &[u8], pos: &mut usize) -> Result<u8, &'static str> {
    let v = *b.get(*pos).ok_or("record too short")?;
    *pos += 1;
    Ok(v)
}

fn read_u32(b: &[u8], pos: &mut usize) -> Result<u32, &'static str> {
    let s = b.get(*pos..*pos + 4).ok_or("record too short")?;
    *pos += 4;
    Ok(u32::from_le_bytes(s.try_into().unwrap()))
}

fn read_bytes<'a>(b: &'a [u8], pos: &mut usize) -> Result<&'a [u8], &'static str> {
    let len = read_u32(b, pos)? as usize;
    let s = b.get(*pos..*pos + len).ok_or("record too short")?;
    *pos += len;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Keyspace;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdb-wal-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("wal")
    }

    fn sample(i: u64) -> WriteBatch {
        let mut b = WriteBatch::new();
        b.put(Keyspace::Table, i.to_be_bytes(), vec![i as u8; 24]);
        b.put(Keyspace::Meta, *b"applied", i.to_le_bytes());
        b
    }

    #[test]
    fn batch_codec_round_trips() {
        for i in 0..10 {
            let b = sample(i);
            assert_eq!(decode_batch(&encode_batch(&b)).unwrap(), b);
        }
        assert!(decode_batch(&[1, 2, 3]).is_err());
    }

    #[test]
    fn append_then_replay_recovers_all_batches() {
        let path = tmp("replay");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        let batches: Vec<_> = (0..20).map(sample).collect();
        for b in &batches {
            wal.append(b).unwrap();
        }
        drop(wal);

        let (_, replay) = Wal::open(&path, false).unwrap();
        assert_eq!(replay.batches, batches);
        assert_eq!(replay.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_to_a_record_boundary() {
        let path = tmp("torn");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        for i in 0..8 {
            wal.append(&sample(i)).unwrap();
        }
        let full = wal.len();
        drop(wal);

        // Tear the file at every byte offset inside the last record and
        // check replay always lands on a whole-batch prefix.
        let bytes = fs::read(&path).unwrap();
        for cut in (WAL_MAGIC.len() as u64..full).rev().take(40) {
            fs::write(&path, &bytes[..cut as usize]).unwrap();
            let (_, replay) = Wal::open(&path, false).unwrap();
            assert!(replay.batches.len() <= 8);
            for (i, b) in replay.batches.iter().enumerate() {
                assert_eq!(*b, sample(i as u64));
            }
            // After truncation the file reopens clean.
            let (_, again) = Wal::open(&path, false).unwrap();
            assert_eq!(again.truncated_bytes, 0);
            assert_eq!(again.batches.len(), replay.batches.len());
        }
    }

    #[test]
    fn corrupt_record_ends_replay() {
        let path = tmp("corrupt");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        for i in 0..5 {
            wal.append(&sample(i)).unwrap();
        }
        drop(wal);

        // Flip a payload byte in the middle record: replay keeps the prefix
        // before it and truncates the rest.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&path, false).unwrap();
        assert!(replay.batches.len() < 5);
        assert!(replay.truncated_bytes > 0);
        for (i, b) in replay.batches.iter().enumerate() {
            assert_eq!(*b, sample(i as u64));
        }
    }

    #[test]
    fn reset_empties_the_log() {
        let path = tmp("reset");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.reset().unwrap();
        assert!(wal.is_empty());
        wal.append(&sample(2)).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path, false).unwrap();
        assert_eq!(replay.batches, vec![sample(2)]);
    }

    #[test]
    fn foreign_file_is_refused() {
        let path = tmp("foreign");
        fs::write(&path, b"definitely not a wal").unwrap();
        assert!(Wal::open(&path, false).is_err());
    }

    #[test]
    fn a_wal_of_the_previous_format_is_refused() {
        let path = tmp("older");
        // A whole, checksummed record under the `RDBWAL01` magic.
        let payload = encode_batch(&sample(1));
        let bytes = [
            &b"RDBWAL01"[..],
            &(payload.len() as u32).to_le_bytes(),
            &sha256(&payload)[..8],
            &payload,
        ]
        .concat();
        // And a magic cut short.
        for bytes in [bytes, b"RDBWAL0".to_vec()] {
            fs::write(&path, &bytes).unwrap();
            let err = Wal::open(&path, false).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(fs::read(&path).unwrap(), bytes, "refused, not rewritten");
        }
    }

    #[test]
    fn an_op_is_its_tag_and_two_length_prefixed_fields() {
        let mut b = WriteBatch::new();
        b.put(Keyspace::Meta, *b"k", *b"vv");
        let expect = [
            &1u32.to_le_bytes()[..],
            &[Keyspace::Meta as u8],
            &1u32.to_le_bytes(),
            b"k",
            &2u32.to_le_bytes(),
            b"vv",
        ]
        .concat();
        assert_eq!(encode_batch(&b), expect);
        // Nine bytes of framing per op, whatever its key and value.
        for (k, v) in [(0, 0), (8, 40), (3, 1000)] {
            let mut b = WriteBatch::new();
            b.put(Keyspace::Table, vec![1; k], vec![2; v]);
            b.put(Keyspace::Blocks, vec![3; k], vec![4; v]);
            assert_eq!(encode_batch(&b).len(), 4 + 2 * (9 + k + v));
        }
    }

    #[test]
    fn decode_refuses_a_bad_keyspace_tag() {
        let mut bytes = encode_batch(&sample(3));
        // The first op's tag follows the op count.
        bytes[4] = 9;
        assert_eq!(decode_batch(&bytes), Err("bad keyspace tag"));
    }

    #[test]
    fn decode_refuses_a_record_cut_short() {
        let bytes = encode_batch(&sample(3));
        for len in 0..bytes.len() {
            assert_eq!(
                decode_batch(&bytes[..len]),
                Err("record too short"),
                "cut at {len}"
            );
        }
    }

    #[test]
    fn decode_refuses_trailing_bytes() {
        let mut bytes = encode_batch(&sample(3));
        bytes.push(0);
        assert_eq!(decode_batch(&bytes), Err("trailing bytes in record"));
        assert_eq!(
            decode_batch(&[0, 0, 0, 0, 1]),
            Err("trailing bytes in record")
        );
    }

    #[test]
    fn appends_after_a_reopen_extend_the_replayed_log() {
        let path = tmp("extend");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        let framed = wal.append(&sample(0)).unwrap();
        assert_eq!(
            framed,
            encode_batch(&sample(0)).len() as u64 + RECORD_OVERHEAD
        );
        assert_eq!(wal.len(), WAL_MAGIC.len() as u64 + framed);
        drop(wal);

        let (mut wal, replay) = Wal::open(&path, false).unwrap();
        assert_eq!(replay.batches, vec![sample(0)]);
        assert_eq!(wal.len(), WAL_MAGIC.len() as u64 + framed);
        wal.append(&sample(1)).unwrap();
        assert_eq!(wal.len(), fs::metadata(&path).unwrap().len());
        drop(wal);
        let (_, replay) = Wal::open(&path, false).unwrap();
        assert_eq!(replay.batches, vec![sample(0), sample(1)]);
    }
}
