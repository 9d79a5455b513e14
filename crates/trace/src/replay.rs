//! Trace-driven replay: re-issue a captured reference stream into any
//! memory system, skipping the CPU models entirely.
//!
//! A memory system's state and statistics are a pure function of its
//! `access` call sequence (plus region-of-interest resets), so replaying
//! the captured stream into a freshly built identical system reproduces
//! bit-identical [`MemStats`] — the golden
//! equivalence the digest matrix enforces. Replaying into a *different*
//! configuration is the classic fixed-stream approximation: the addresses
//! and issue cycles stay those the captured machine produced, which is
//! exactly what makes memory-hierarchy sweeps run at raw memory-system
//! throughput (no Mipsy/MXS execution cost per configuration).

use crate::codec::{TraceError, TraceRecord};
use cmpsim_engine::Cycle;
use cmpsim_mem::{MemRequest, MemStats, MemorySystem, PortUtil};

/// What a replay pushed through the target system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Access records re-issued.
    pub accesses: u64,
    /// Region-of-interest statistic resets applied.
    pub resets: u64,
}

/// Re-issues one record into `sys`. Returns whether it was an access (as
/// opposed to a marker).
#[inline]
fn apply<S: MemorySystem + ?Sized>(rec: &TraceRecord, sys: &mut S) -> bool {
    match rec.kind.access_kind() {
        Some(kind) => {
            let req = MemRequest {
                cpu: rec.cpu as usize,
                kind,
                addr: rec.addr,
            };
            sys.access(Cycle(rec.cycle), req);
            true
        }
        None => {
            sys.stats_mut().reset();
            false
        }
    }
}

/// Replays an already-decoded record stream into `sys`.
///
/// Generic over the system so a concrete type (`&mut SharedL2System`)
/// replays with static dispatch, while `&mut dyn MemorySystem` still
/// works for systems built behind a `Box`.
pub fn replay_records<'a, I, S>(records: I, sys: &mut S) -> ReplayStats
where
    I: IntoIterator<Item = &'a TraceRecord>,
    S: MemorySystem + ?Sized,
{
    let mut stats = ReplayStats::default();
    for rec in records {
        if apply(rec, sys) {
            stats.accesses += 1;
        } else {
            stats.resets += 1;
        }
    }
    stats
}

/// Replays a complete in-memory trace (as produced by capture) into
/// `sys`, validating every chunk first.
///
/// # Errors
///
/// Fails on decode errors (corrupt chunk, truncation) *before* touching
/// `sys`.
pub fn replay_bytes<S: MemorySystem + ?Sized>(
    bytes: &[u8],
    sys: &mut S,
) -> Result<ReplayStats, TraceError> {
    Ok(replay_records(&crate::codec::decode(bytes)?, sys))
}

/// What replaying one decoded stream into one configuration produced:
/// the plain-data summary a batched sweep keeps per point. Everything a
/// single-config replay reports, minus the live system itself — which is
/// what lets [`replay_matrix`] build and drop each system inside its
/// worker thread.
#[derive(Debug, Clone)]
pub struct ConfigReplay {
    /// Stream totals pushed through this configuration.
    pub replay: ReplayStats,
    /// The system's accumulated statistics after replay.
    pub stats: MemStats,
    /// Per-resource utilization after replay.
    pub ports: Vec<PortUtil>,
    /// The system's architecture name.
    pub name: &'static str,
}

/// One configuration of a [`replay_matrix`] batch: something that
/// replays a record stream into a system it owns and reports what the
/// system saw. Every [`MemorySystem`] is one, a boxed one included;
/// `cmpsim_core::ArchSystem` is one that builds its architecture's
/// concrete system first, so the record loop dispatches statically.
pub trait ReplayTarget {
    /// Replays `records` (the exact serial [`replay_records`] call) and
    /// summarizes the system afterwards.
    fn replay(self, records: &[TraceRecord]) -> ConfigReplay;
}

impl<S: MemorySystem> ReplayTarget for S {
    fn replay(mut self, records: &[TraceRecord]) -> ConfigReplay {
        let replay = replay_records(records, &mut self);
        ConfigReplay {
            replay,
            stats: self.stats().clone(),
            ports: self.port_utilization(),
            name: self.name(),
        }
    }
}

/// Batched multi-config replay: decode once, replay `n_configs`
/// configurations from the shared in-memory record arena, fanned across
/// up to `jobs` threads of the engine job pool.
///
/// `build(i)` constructs the `i`-th target; it runs *inside* the worker,
/// so the target's system never crosses a thread boundary — only the
/// plain-data [`ConfigReplay`] summary does, which is why `T` needs
/// neither `Send` nor `Sync`. Each configuration's replay is the exact
/// serial [`replay_records`] call, and results come back in config-index
/// order, so every [`ConfigReplay`] is bit-identical to a single-config
/// replay of the same configuration at any job count (the CLI test
/// `a_mesh_capture_replays_identically_into_two_configurations` compares
/// a two-configuration `cmpsim replay` at `--jobs 1` and `--jobs 4`).
pub fn replay_matrix<T, F>(
    records: &[TraceRecord],
    n_configs: usize,
    jobs: usize,
    build: F,
) -> Vec<ConfigReplay>
where
    T: ReplayTarget,
    F: Fn(usize) -> T + Sync,
{
    cmpsim_engine::pool::run_indexed(jobs, n_configs, |i| build(i).replay(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{sink_to, SharedBuf, SinkOut, TracingSystem};
    use crate::codec::TraceKind;
    use cmpsim_mem::{SharedL2System, SystemConfig};
    use std::rc::Rc;

    /// Drive a synthetic stream through a traced system, then replay the
    /// capture into a fresh identical system: statistics must match
    /// bit-for-bit (their Debug forms cover every counter and the
    /// histogram).
    #[test]
    fn replay_reproduces_identical_stats() {
        let cfg = SystemConfig::paper_shared_l2(4);
        let buf = SharedBuf::new();
        let sink = sink_to(SinkOut::Plain(Box::new(buf.clone())), 4).expect("header");
        let mut traced = TracingSystem::new(Box::new(SharedL2System::new(&cfg)), Rc::clone(&sink));
        for i in 0..5_000u64 {
            let addr = ((i * 97) as u32).wrapping_mul(2_654_435_761) & 0xf_ffff;
            let req = match i % 3 {
                0 => MemRequest::ifetch((i % 4) as usize, addr & !0x3),
                1 => MemRequest::load((i % 4) as usize, addr),
                _ => MemRequest::store((i % 4) as usize, addr),
            };
            traced.access(Cycle(i * 7), req);
        }
        // Mid-stream ROI reset, as the hcall path would do it.
        sink.borrow_mut().record_reset(40_000);
        traced.stats_mut().reset();
        for i in 0..1_000u64 {
            traced.access(
                Cycle(50_000 + i),
                MemRequest::load((i % 4) as usize, (i as u32) * 64),
            );
        }
        sink.borrow_mut().finish().expect("finishes");
        let bytes = buf.take();

        let mut fresh = SharedL2System::new(&cfg);
        let stats = replay_bytes(&bytes, &mut fresh).expect("replays");
        assert_eq!(stats.accesses, 6_000);
        assert_eq!(stats.resets, 1);
        assert_eq!(
            format!("{:?}", fresh.stats()),
            format!("{:?}", traced.stats()),
            "replayed statistics must be bit-identical"
        );
        assert_eq!(
            format!("{:?}", fresh.port_utilization()),
            format!("{:?}", traced.port_utilization()),
        );
    }

    /// Cross-configuration replay is the fixed-stream approximation: it
    /// must run (addresses are config-independent) and produce the same
    /// reference count, not the same stats.
    #[test]
    fn cross_config_replay_accepts_the_stream() {
        let records: Vec<TraceRecord> = (0..200u64)
            .map(|i| TraceRecord {
                cycle: i * 11,
                cpu: (i % 4) as u8,
                kind: TraceKind::Load,
                addr: (i as u32) * 32,
            })
            .collect();
        let bytes = crate::codec::encode(&records, 4, 32).expect("encodes");
        let mut sys = SharedL2System::new(&SystemConfig::paper_shared_l2(4).with_l2_assoc(4));
        let stats = replay_bytes(&bytes, &mut sys).expect("replays");
        assert_eq!(stats.accesses, 200);
        assert_eq!(sys.stats().l1d.accesses, 200);
    }

    /// The batched driver must be bit-identical to per-config serial
    /// replay at every job count — same stats, same ports, same order.
    #[test]
    fn replay_matrix_matches_per_config_serial_replay() {
        let records: Vec<TraceRecord> = (0..6_000u64)
            .map(|i| TraceRecord {
                cycle: i * 5,
                cpu: (i % 4) as u8,
                kind: match i % 3 {
                    0 => TraceKind::IFetch,
                    1 => TraceKind::Load,
                    _ => TraceKind::Store,
                },
                addr: ((i * 131) as u32).wrapping_mul(2_654_435_761) & 0xf_ffff,
            })
            .collect();
        let assocs = [1usize, 2, 4, 8];
        let build = |i: usize| {
            SharedL2System::new(&SystemConfig::paper_shared_l2(4).with_l2_assoc(assocs[i]))
        };
        let mut expected = Vec::new();
        for i in 0..assocs.len() {
            let mut sys = build(i);
            let replay = replay_records(&records, &mut sys);
            expected.push((
                replay,
                format!("{:?}", sys.stats()),
                format!("{:?}", sys.port_utilization()),
                sys.name(),
            ));
        }
        for jobs in [1usize, 2, 4, 7] {
            let got = replay_matrix(&records, assocs.len(), jobs, build);
            assert_eq!(got.len(), assocs.len());
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.replay, e.0, "jobs={jobs}");
                assert_eq!(format!("{:?}", g.stats), e.1, "jobs={jobs}");
                assert_eq!(format!("{:?}", g.ports), e.2, "jobs={jobs}");
                assert_eq!(g.name, e.3, "jobs={jobs}");
            }
        }
    }

    /// `replay_matrix` accepts boxed systems via the blanket
    /// `MemorySystem for Box<M>` impl — the shape the cmpsim binary's
    /// arch factory produces.
    #[test]
    fn replay_matrix_accepts_boxed_systems() {
        let records: Vec<TraceRecord> = (0..500u64)
            .map(|i| TraceRecord {
                cycle: i * 3,
                cpu: (i % 4) as u8,
                kind: TraceKind::Load,
                addr: (i as u32) * 32,
            })
            .collect();
        let got = replay_matrix(&records, 2, 2, |_| {
            Box::new(SharedL2System::new(&SystemConfig::paper_shared_l2(4)))
                as Box<dyn MemorySystem>
        });
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].replay.accesses, 500);
        assert_eq!(
            format!("{:?}", got[0].stats),
            format!("{:?}", got[1].stats),
            "identical configs replay identically"
        );
    }
}
