//! The coherence sentinel: opt-in runtime invariant checking for the
//! memory systems.
//!
//! The paper's three architectures differ exactly in their coherence
//! machinery, so a silent protocol bug would corrupt workload results (or
//! hang a run) without any diagnostic. With the sentinel on, after every
//! access the owning system checks the protocol invariants for the
//! touched line: directory presence bits must mirror L1 residency and
//! inclusion under the shared L2 (and the clustered and mesh
//! extensions), MESI legality (at most one owner, owners never coexist
//! with other copies) under the snooping bus, and write-through L1s must
//! never hold dirty lines. The shared L1 has no coherence state to check.
//! Violations are recorded as structured [`SentinelViolation`]s, never
//! panics, so a run can report every divergence it saw.
//!
//! The checker covers coherence state only: the caches carry tags and
//! states but no data, and every data byte lives in one copy, in
//! [`crate::PhysMem`]. The unit tests beside each checker plant every
//! fault it must catch straight into a live system's caches or presence
//! table and assert that the next access reports exactly that kind.
//!
//! Everything is off by default and gated behind [`SentinelSpec`], which
//! the caller sets on the machine configuration.

use crate::Addr;
use std::fmt;

/// Sentinel configuration, carried inside
/// [`crate::SystemConfig`] so every memory system builds its checker from
/// the same source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentinelSpec {
    /// Run the invariant checker.
    pub enabled: bool,
}

impl SentinelSpec {
    /// Checker off — the zero-cost default.
    pub fn off() -> SentinelSpec {
        SentinelSpec { enabled: false }
    }

    /// Checker on (the verification mode).
    pub fn on() -> SentinelSpec {
        SentinelSpec { enabled: true }
    }
}

impl Default for SentinelSpec {
    fn default() -> SentinelSpec {
        SentinelSpec::off()
    }
}

/// The invariant classes the checker can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Two CPUs hold the line in an owning (Modified/Exclusive) state.
    MultipleOwners,
    /// A CPU owns the line while another CPU still holds a copy.
    SharedAlongsideOwner,
    /// A cache holds a valid copy the directory has no presence bit for.
    CopyWithoutPresence,
    /// The directory claims a copy the cache does not hold.
    PresenceWithoutCopy,
    /// A valid L1 line is not backed by a valid L2 line (inclusion).
    InclusionViolation,
    /// A write-through (or read-only) cache holds a dirty line.
    WriteThroughDirty,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::MultipleOwners => "multiple-owners",
            ViolationKind::SharedAlongsideOwner => "shared-alongside-owner",
            ViolationKind::CopyWithoutPresence => "copy-without-presence",
            ViolationKind::PresenceWithoutCopy => "presence-without-copy",
            ViolationKind::InclusionViolation => "inclusion-violation",
            ViolationKind::WriteThroughDirty => "write-through-dirty",
        };
        f.write_str(s)
    }
}

/// One detected invariant violation, with enough context to localize it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentinelViolation {
    /// Simulated cycle of the access that exposed the violation.
    pub cycle: u64,
    /// CPU whose access exposed it.
    pub cpu: usize,
    /// Line-aligned address involved.
    pub addr: Addr,
    /// Invariant class.
    pub kind: ViolationKind,
    /// Human-readable specifics (states seen, expected value, ...).
    pub detail: String,
}

impl fmt::Display for SentinelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cycle {} cpu {} addr {:#x}] {}: {}",
            self.cycle, self.cpu, self.addr, self.kind, self.detail
        )
    }
}

/// Per-system sentinel state: the on/off gate and the violation log. Each
/// memory system embeds one and consults it from its `access` wrapper.
#[derive(Debug, Clone)]
pub struct Sentinel {
    enabled: bool,
    violations: Vec<SentinelViolation>,
}

impl Sentinel {
    /// Builds sentinel state from a spec.
    pub fn from_spec(spec: &SentinelSpec) -> Sentinel {
        Sentinel {
            enabled: spec.enabled,
            violations: Vec::new(),
        }
    }

    /// Whether invariant checks should run. `#[inline]` so the off case
    /// costs one predictable branch in the access path.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled
    }

    /// Records a violation.
    pub fn report(
        &mut self,
        cycle: u64,
        cpu: usize,
        addr: Addr,
        kind: ViolationKind,
        detail: String,
    ) {
        self.violations.push(SentinelViolation {
            cycle,
            cpu,
            addr,
            kind,
            detail,
        });
    }

    /// Every violation recorded so far.
    pub fn violations(&self) -> &[SentinelViolation] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_off() {
        let s = SentinelSpec::default();
        assert!(!s.enabled);
        assert_eq!(s, SentinelSpec::off());
        assert!(!Sentinel::from_spec(&s).on());
    }

    #[test]
    fn sentinel_records_violations() {
        let mut s = Sentinel::from_spec(&SentinelSpec::on());
        assert!(s.on());
        s.report(10, 2, 0x40, ViolationKind::MultipleOwners, "E+E".into());
        assert_eq!(s.violations().len(), 1);
        let v = &s.violations()[0];
        assert_eq!((v.cycle, v.cpu, v.addr), (10, 2, 0x40));
        let text = v.to_string();
        assert!(text.contains("cycle 10"));
        assert!(text.contains("cpu 2"));
        assert!(text.contains("0x40"));
        assert!(text.contains("multiple-owners"));
    }
}
