//! Append-only resume journal for batch sweeps.
//!
//! A sweep driver (the explore result cache) journals each completed row
//! as a CRC-framed record keyed by `(config digest, workload digest)`.
//! After a crash — including `kill -9` mid-write — reopening the same
//! path recovers every fully written record, the driver skips completed
//! keys, and the final artifact comes out byte-identical to an
//! uninterrupted run.
//!
//! Crash-consistency argument: the file is opened `O_APPEND` and every
//! record is a single `write_all` of one contiguous frame, so concurrent
//! writers interleave at frame granularity and a killed writer leaves at
//! most one torn frame — at the tail. The reader walks frames strictly
//! (length, then checksum over key+payload) and stops at the first frame
//! that is short or fails its checksum; everything before it is intact
//! by construction. No `fsync` is needed for the kill-and-resume story:
//! the data survives in the page cache across process death, and a
//! machine-level crash merely loses rows, which resume recomputes.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! len: u32       # bytes after the checksum = 16 (key) + payload len
//! crc: u64       # fnv1a64 over the key bytes ++ payload bytes
//! config: u64    # JournalKey.config
//! workload: u64  # JournalKey.workload
//! payload        # caller-defined bytes (a JSON line, an encoded point)
//! ```
//!
//! Duplicate keys are legal (a recomputed row re-journals); the last
//! frame wins, matching "latest completion is authoritative".

use crate::hash::FastMap;
use std::fs::OpenOptions;
use std::io::{self, Read, Write};
use std::path::Path;

/// File magic for journal files (version 1).
pub const JOURNAL_MAGIC: [u8; 8] = *b"CMPJRNL1";

/// FNV-1a 64-bit over `bytes`: the frame checksum, and the workspace's
/// one byte-wise FNV-1a (the digest matrix re-exports it as
/// `cmpsim_bench::matrix::fnv1a`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identity of one sweep row: a digest of the machine configuration and
/// a digest of the workload. What exactly each digest covers is the
/// caller's contract; the journal only requires that equal keys mean
/// "this row's artifact is interchangeable".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JournalKey {
    /// Digest of the machine/run configuration.
    pub config: u64,
    /// Digest of the workload (name, scale, input).
    pub workload: u64,
}

/// An append-only, crash-tolerant results journal.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
    rows: FastMap<(u64, u64), Vec<u8>>,
    recovered: usize,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` and recovers
    /// every intact frame. A torn or corrupt tail — the signature of a
    /// killed writer — is truncated away so this generation's appends
    /// land on a clean frame boundary and stay recoverable; rows lost to
    /// the tear are simply recomputed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; `InvalidData` for a file that is not a
    /// journal.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Journal> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut rows: FastMap<(u64, u64), Vec<u8>> = FastMap::default();
        if bytes.is_empty() {
            file.write_all(&JOURNAL_MAGIC)?;
            file.flush()?;
        } else {
            if bytes.len() < JOURNAL_MAGIC.len() || bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: not a cmpsim resume journal", path.display()),
                ));
            }
            let mut pos = JOURNAL_MAGIC.len();
            while bytes.len() - pos >= 4 + 8 + 16 {
                let len =
                    u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
                let crc = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
                let body_at = pos + 12;
                if len < 16 || bytes.len() - body_at < len {
                    break; // torn tail: length field or body incomplete
                }
                let body = &bytes[body_at..body_at + len];
                if fnv1a64(body) != crc {
                    break; // torn tail: frame only partially written
                }
                let config = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
                let workload = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
                rows.insert((config, workload), body[16..].to_vec());
                pos = body_at + len;
            }
            if pos < bytes.len() {
                file.set_len(pos as u64)?;
            }
        }
        let recovered = rows.len();
        Ok(Journal {
            file,
            rows,
            recovered,
        })
    }

    /// The payload journaled for `key`, if any.
    pub fn get(&self, key: JournalKey) -> Option<&[u8]> {
        self.rows
            .get(&(key.config, key.workload))
            .map(Vec::as_slice)
    }

    /// Number of distinct keys currently recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the journal holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows recovered from disk when the journal was opened (before any
    /// `put` in this process) — the "resumed N rows" number.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// Appends one completed row: a single `O_APPEND` write of the whole
    /// frame, flushed, then recorded in memory (last write wins).
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn put(&mut self, key: JournalKey, payload: &[u8]) -> io::Result<()> {
        let len = 16 + payload.len();
        assert!(len <= u32::MAX as usize, "journal payload too large");
        let mut frame = Vec::with_capacity(12 + len);
        frame.extend_from_slice(&(len as u32).to_le_bytes());
        frame.extend_from_slice(&[0u8; 8]); // checksum backfilled below
        frame.extend_from_slice(&key.config.to_le_bytes());
        frame.extend_from_slice(&key.workload.to_le_bytes());
        frame.extend_from_slice(payload);
        let crc = fnv1a64(&frame[12..]);
        frame[4..12].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.rows
            .insert((key.config, key.workload), payload.to_vec());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cmpsim-journal-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn fnv1a64_known_vectors() {
        // Canonical FNV-1a test vectors (same as the trace codec's).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn put_get_and_reopen() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let k1 = JournalKey {
            config: 1,
            workload: 2,
        };
        let k2 = JournalKey {
            config: 3,
            workload: 4,
        };
        {
            let mut j = Journal::open(&path).expect("open");
            assert!(j.is_empty());
            assert_eq!(j.recovered(), 0);
            j.put(k1, b"row one").expect("put");
            j.put(k2, b"row two").expect("put");
            j.put(k1, b"row one v2").expect("put"); // last write wins
            assert_eq!(j.get(k1), Some(&b"row one v2"[..]));
            assert_eq!(j.len(), 2);
        }
        let j = Journal::open(&path).expect("reopen");
        assert_eq!(j.recovered(), 2);
        assert_eq!(j.get(k1), Some(&b"row one v2"[..]));
        assert_eq!(j.get(k2), Some(&b"row two"[..]));
        assert!(j
            .get(JournalKey {
                config: 9,
                workload: 9
            })
            .is_none());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_tail_is_ignored_and_appendable() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let k1 = JournalKey {
            config: 10,
            workload: 20,
        };
        let k2 = JournalKey {
            config: 30,
            workload: 40,
        };
        {
            let mut j = Journal::open(&path).expect("open");
            j.put(k1, b"intact").expect("put");
            j.put(k2, b"to be torn").expect("put");
        }
        // Tear the final frame: drop its last 3 bytes (a killed writer).
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        {
            let mut j = Journal::open(&path).expect("reopen torn");
            assert_eq!(j.recovered(), 1, "only the intact frame survives");
            assert_eq!(j.get(k1), Some(&b"intact"[..]));
            assert!(j.get(k2).is_none());
            j.put(k2, b"recomputed").expect("re-put");
        }
        // The torn bytes were truncated on open, so the recomputed row
        // survives a further reopen generation.
        let j = Journal::open(&path).expect("third open");
        assert_eq!(j.recovered(), 2);
        assert_eq!(j.get(k2), Some(&b"recomputed"[..]));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn corrupt_checksum_stops_recovery() {
        let path = temp_path("crc");
        let _ = std::fs::remove_file(&path);
        let k = JournalKey {
            config: 7,
            workload: 8,
        };
        {
            let mut j = Journal::open(&path).expect("open");
            j.put(k, b"payload").expect("put");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        let flip = bytes.len() - 1;
        bytes[flip] ^= 0xff;
        std::fs::write(&path, &bytes).expect("corrupt");
        let j = Journal::open(&path).expect("reopen");
        assert!(j.is_empty(), "corrupt frame must not be resurrected");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_foreign_files() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"not a journal at all").expect("write");
        let err = Journal::open(&path).expect_err("must reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// The reader is total: a valid journal with flipped bytes and a cut
    /// tail either fails with `InvalidData` (exactly when the magic is
    /// damaged) or recovers the rows of some prefix of the frames
    /// written. It never panics, and the recovered rows survive a
    /// following append and reopen.
    #[test]
    fn prop_mutated_journal_recovers_a_frame_prefix() {
        use std::collections::BTreeMap;
        type Rows = BTreeMap<(u64, u64), Vec<u8>>;
        let rows_of =
            |j: &Journal| -> Rows { j.rows.iter().map(|(k, v)| (*k, v.clone())).collect() };
        let path = temp_path("prop");
        crate::prop::check("journal-mutation", |src| {
            let frames: Vec<(JournalKey, Vec<u8>)> = src.vec(0..6, |s| {
                let key = JournalKey {
                    config: s.u64(0..3),
                    workload: 7,
                };
                (key, s.vec(0..24, |s| s.u32(0..256) as u8))
            });
            let _ = std::fs::remove_file(&path);
            let mut j = Journal::open(&path).expect("open");
            for (k, p) in &frames {
                j.put(*k, p).expect("put");
            }
            drop(j);
            let mut bytes = std::fs::read(&path).expect("read");
            for _ in 0..src.usize(0..3) {
                let at = src.index(bytes.len());
                bytes[at] ^= src.u32(1..256) as u8;
            }
            bytes.truncate(src.usize(0..bytes.len() + 1));
            std::fs::write(&path, &bytes).expect("write");
            let bad_magic = !bytes.is_empty() && !bytes.starts_with(&JOURNAL_MAGIC);
            let mut j = match Journal::open(&path) {
                Err(e) => {
                    assert!(bad_magic, "intact magic rejected: {e}");
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    return;
                }
                Ok(j) => j,
            };
            assert!(!bad_magic, "a damaged magic was accepted");
            let got = rows_of(&j);
            assert_eq!(j.recovered(), got.len());
            let prefix = |n: usize| -> Rows {
                frames[..n]
                    .iter()
                    .map(|(k, p)| ((k.config, k.workload), p.clone()))
                    .collect()
            };
            assert!(
                (0..=frames.len()).any(|n| prefix(n) == got),
                "recovered rows are no frame prefix: {got:?}"
            );
            let fresh = JournalKey {
                config: 99,
                workload: 1,
            };
            j.put(fresh, b"appended").expect("put after recovery");
            drop(j);
            let mut want = got;
            want.insert((99, 1), b"appended".to_vec());
            assert_eq!(rows_of(&Journal::open(&path).expect("reopen")), want);
        });
        let _ = std::fs::remove_file(&path);
    }
}
