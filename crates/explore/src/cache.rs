//! The persistent result cache: the resume journal keyed per point.
//!
//! Every evaluated point journals its [`PointMetrics`] under a
//! `(config digest, workload digest)` key ([`ResultCache::key`]) — the
//! config half covers the point's fully resolved `MachineConfig` (so two
//! searches over overlapping spaces share rows), the workload half covers
//! the workload name, scale, cycle budget and evaluation mode (so
//! execution-driven and replay-estimated results can never answer for
//! each other). Payloads are a fixed-width binary encoding with
//! `f64::to_bits` round-tripping, so a cached rerun re-emits
//! byte-identical JSON.

use crate::eval::{EvalPath, PointMetrics};
use crate::ExploreError;
use cmpsim_engine::journal::{fnv1a64, Journal, JournalKey};
use std::path::Path;

/// Payload version tag; bump on layout changes so stale rows are
/// recomputed instead of misdecoded.
const PAYLOAD_VERSION: u8 = 1;

/// A [`Journal`]-backed point cache with hit/store accounting.
#[derive(Debug)]
pub struct ResultCache {
    journal: Journal,
    hits: usize,
}

impl ResultCache {
    /// Opens (creating if absent) the cache at `path`, recovering every
    /// intact row — including from a journal torn by a mid-write kill.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Io`] when the file cannot be opened or is not a
    /// cmpsim journal.
    pub fn open(path: &Path) -> Result<ResultCache, ExploreError> {
        Ok(ResultCache {
            journal: Journal::open(path)?,
            hits: 0,
        })
    }

    /// The cache key of one evaluated point: `workload_tag` names the
    /// evaluation contract (workload, scale, budget, mode), the config
    /// string is the point's fully resolved `MachineConfig`. Each half is
    /// FNV-1a over its string; the config's `v1` prefix versions the row
    /// format.
    pub fn key(workload_tag: &str, cfg_debug: &str) -> JournalKey {
        JournalKey {
            config: fnv1a64(format!("cmpsim-explore-point-v1|{cfg_debug}").as_bytes()),
            workload: fnv1a64(workload_tag.as_bytes()),
        }
    }

    /// Rows recovered from disk at open time.
    pub fn recovered(&self) -> usize {
        self.journal.recovered()
    }

    /// Points answered from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Looks up a point; a decodable row counts as a hit. An
    /// undecodable row (stale version, torn payload) is treated as a
    /// miss and will be overwritten by the recomputed result.
    pub fn get(&mut self, key: JournalKey) -> Option<PointMetrics> {
        let m = self.journal.get(key).and_then(decode_metrics);
        if m.is_some() {
            self.hits += 1;
        }
        m
    }

    /// Stores one result.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Io`] when the journal append fails.
    pub fn put(&mut self, key: JournalKey, m: &PointMetrics) -> Result<(), ExploreError> {
        self.journal.put(key, &encode_metrics(m))?;
        Ok(())
    }
}

fn encode_metrics(m: &PointMetrics) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + 8 * 8);
    out.push(PAYLOAD_VERSION);
    out.push(match m.path {
        EvalPath::Exec => 0,
        EvalPath::Replay => 1,
    });
    for v in [
        m.instructions,
        m.accesses,
        m.wall_cycles,
        m.ipc.to_bits(),
        m.l1d_miss_pct.to_bits(),
        m.l2_miss_pct.to_bits(),
        m.avg_lat.to_bits(),
        m.area_kb.to_bits(),
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_metrics(bytes: &[u8]) -> Option<PointMetrics> {
    if bytes.len() != 2 + 8 * 8 || bytes[0] != PAYLOAD_VERSION {
        return None;
    }
    let path = match bytes[1] {
        0 => EvalPath::Exec,
        1 => EvalPath::Replay,
        _ => return None,
    };
    let mut u = [0u64; 8];
    for (i, v) in u.iter_mut().enumerate() {
        *v = u64::from_le_bytes(bytes[2 + i * 8..10 + i * 8].try_into().ok()?);
    }
    Some(PointMetrics {
        path,
        instructions: u[0],
        accesses: u[1],
        wall_cycles: u[2],
        ipc: f64::from_bits(u[3]),
        l1d_miss_pct: f64::from_bits(u[4]),
        l2_miss_pct: f64::from_bits(u[5]),
        avg_lat: f64::from_bits(u[6]),
        area_kb: f64::from_bits(u[7]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key bytes are pinned: any change turns every row of an
    /// existing cache into a miss.
    #[test]
    fn key_is_pinned() {
        assert_eq!(
            ResultCache::key("eqntott@0.02", "cfg"),
            JournalKey {
                config: 0x7a85a12c640b4ad9,
                workload: 0x7930eaa88313c50a,
            }
        );
    }

    #[test]
    fn payload_roundtrips_exactly() {
        cmpsim_engine::prop::check("explore-payload-roundtrip", |src| {
            let m = PointMetrics {
                path: if src.bool() {
                    EvalPath::Exec
                } else {
                    EvalPath::Replay
                },
                instructions: src.u64_any(),
                accesses: src.u64_any(),
                wall_cycles: src.u64_any(),
                ipc: f64::from_bits(src.u64_any()),
                l1d_miss_pct: f64::from_bits(src.u64_any()),
                l2_miss_pct: f64::from_bits(src.u64_any()),
                avg_lat: f64::from_bits(src.u64_any()),
                area_kb: f64::from_bits(src.u64_any()),
            };
            let back = decode_metrics(&encode_metrics(&m)).expect("decodes");
            // Bit-exact comparison (NaN payloads included).
            assert_eq!(format!("{m:?}"), format!("{back:?}"));
            assert_eq!(m.ipc.to_bits(), back.ipc.to_bits());
            assert_eq!(m.area_kb.to_bits(), back.area_kb.to_bits());
        });
    }

    #[test]
    fn stale_or_torn_payloads_are_misses() {
        let m = PointMetrics {
            path: EvalPath::Replay,
            instructions: 1,
            accesses: 2,
            wall_cycles: 3,
            ipc: 0.5,
            l1d_miss_pct: 1.0,
            l2_miss_pct: 2.0,
            avg_lat: 3.0,
            area_kb: 4.0,
        };
        let mut good = encode_metrics(&m);
        assert!(decode_metrics(&good).is_some());
        good.truncate(good.len() - 1);
        assert!(decode_metrics(&good).is_none(), "short payload");
        let mut stale = encode_metrics(&m);
        stale[0] = PAYLOAD_VERSION + 1;
        assert!(decode_metrics(&stale).is_none(), "future version");
        let mut badpath = encode_metrics(&m);
        badpath[1] = 9;
        assert!(decode_metrics(&badpath).is_none(), "unknown eval path");
        // The decoder is total over arbitrary bytes: it never panics,
        // and whatever it accepts re-encodes to the same bytes.
        cmpsim_engine::prop::check("explore-payload-arbitrary-bytes", |src| {
            let len = if src.bool() { 66 } else { src.usize(0..80) };
            let mut bytes = src.vec(len..len + 1, |s| s.u32(0..256) as u8);
            if len >= 2 && src.bool() {
                bytes[..2].copy_from_slice(&[PAYLOAD_VERSION, 1]);
            }
            if let Some(m) = decode_metrics(&bytes) {
                assert_eq!(encode_metrics(&m), bytes);
            }
        });
    }
}
