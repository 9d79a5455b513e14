//! The coherence sentinel: opt-in runtime invariant checking and
//! deterministic fault injection for the memory systems.
//!
//! The paper's three architectures differ exactly in their coherence
//! machinery, so a silent protocol bug would corrupt workload results (or
//! hang a run) without any diagnostic. The sentinel closes that gap in
//! two parts:
//!
//! * **Invariant checker** — after every access, the owning system checks
//!   the protocol invariants for the touched line: directory presence bits
//!   must mirror L1 residency and inclusion under the shared L2, MESI
//!   legality (at most one owner, owners never coexist with other copies)
//!   under the snooping bus, and write-through L1s must never hold dirty
//!   lines. Violations are recorded as structured [`SentinelViolation`]s,
//!   never panics, so a run can report every divergence it saw.
//! * **Fault injector** — a deterministic [`Rng64`]-seeded perturbation
//!   source ([`FaultInjector`]) that drops invalidations and plants
//!   spurious directory/line states, so tests can prove the checker
//!   actually detects each fault class.
//!
//! The checker covers coherence state only: the caches carry tags and
//! states but no data, and every data byte lives in one copy, in
//! [`crate::PhysMem`].
//!
//! Everything is off by default and gated behind [`SentinelSpec`], which
//! the caller sets on the machine configuration.

use crate::Addr;
use cmpsim_engine::Rng64;
use std::fmt;

/// Fault-injector seed of [`SentinelSpec::off`] and [`SentinelSpec::on`].
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17_5EED_2026_0003;

/// The classes of protocol fault the injector can introduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A coherence invalidation is dropped on the floor: the directory (or
    /// bus) believes a remote copy is gone while the cache still holds it.
    DroppedInvalidation,
    /// A line or directory entry is planted in a state the protocol never
    /// produces (spurious presence bit; Modified instead of Shared after a
    /// downgrade).
    SpuriousState,
}

impl FaultKind {
    /// Every fault class, in taxonomy order.
    pub const ALL: [FaultKind; 2] = [FaultKind::DroppedInvalidation, FaultKind::SpuriousState];

    fn bit(self) -> u8 {
        match self {
            FaultKind::DroppedInvalidation => 1,
            FaultKind::SpuriousState => 2,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::DroppedInvalidation => "dropped-invalidation",
            FaultKind::SpuriousState => "spurious-state",
        };
        f.write_str(s)
    }
}

/// A set of [`FaultKind`]s, packed so [`SentinelSpec`] stays `Copy + Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultClassSet(u8);

impl FaultClassSet {
    /// The empty set.
    pub const NONE: FaultClassSet = FaultClassSet(0);

    /// Every fault class.
    pub fn all() -> FaultClassSet {
        FaultClassSet(FaultKind::ALL.iter().fold(0, |acc, k| acc | k.bit()))
    }

    /// A single-class set (per-class detection tests).
    pub fn only(kind: FaultKind) -> FaultClassSet {
        FaultClassSet(kind.bit())
    }

    /// Whether `kind` is in the set.
    pub fn contains(self, kind: FaultKind) -> bool {
        self.0 & kind.bit() != 0
    }
}

/// Sentinel configuration, carried inside
/// [`crate::SystemConfig`] so every memory system builds its checker from
/// the same source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentinelSpec {
    /// Run the invariant checker.
    pub enabled: bool,
    /// Seed for the deterministic fault injector.
    pub fault_seed: u64,
    /// Fault probability per opportunity, in parts per million (`u32` so
    /// the spec stays `Eq`; 1_000_000 = always).
    pub fault_rate_ppm: u32,
    /// Which fault classes the injector may introduce.
    pub fault_classes: FaultClassSet,
}

impl SentinelSpec {
    /// Checker and injector both off — the zero-cost default.
    pub fn off() -> SentinelSpec {
        SentinelSpec {
            enabled: false,
            fault_seed: DEFAULT_FAULT_SEED,
            fault_rate_ppm: 0,
            fault_classes: FaultClassSet::NONE,
        }
    }

    /// Checker on, no fault injection (the verification mode).
    pub fn on() -> SentinelSpec {
        SentinelSpec {
            enabled: true,
            ..SentinelSpec::off()
        }
    }

    /// Checker on with deterministic fault injection — test harnesses use
    /// `rate_ppm = 1_000_000` and a single class to prove detection.
    pub fn with_faults(seed: u64, rate_ppm: u32, classes: FaultClassSet) -> SentinelSpec {
        SentinelSpec {
            enabled: true,
            fault_seed: seed,
            fault_rate_ppm: rate_ppm,
            fault_classes: classes,
        }
    }

    /// Whether the injector is armed.
    pub fn faults_armed(&self) -> bool {
        self.enabled && self.fault_rate_ppm > 0 && self.fault_classes != FaultClassSet::NONE
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
    /// The same line is resident in two ways of one set.
    DuplicateResidency,
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
            ViolationKind::DuplicateResidency => "duplicate-residency",
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

/// The deterministic fault injector: every perturbation opportunity rolls
/// the seeded RNG against the configured rate, so a given seed reproduces
/// the exact same fault sequence on every run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: Rng64,
    rate_ppm: u32,
    classes: FaultClassSet,
    injected: Vec<(FaultKind, Addr)>,
}

impl FaultInjector {
    /// Builds the injector from a spec; `None` when the spec arms no
    /// faults.
    pub fn from_spec(spec: &SentinelSpec) -> Option<FaultInjector> {
        if !spec.faults_armed() {
            return None;
        }
        Some(FaultInjector {
            rng: Rng64::new(spec.fault_seed),
            rate_ppm: spec.fault_rate_ppm,
            classes: spec.fault_classes,
            injected: Vec::new(),
        })
    }

    /// Rolls for an injection opportunity of `kind` at `addr`. Returns
    /// whether the caller should perturb the protocol, and records the hit.
    pub fn roll(&mut self, kind: FaultKind, addr: Addr) -> bool {
        if !self.classes.contains(kind) {
            return false;
        }
        let hit = self.rng.range(1_000_000) < u64::from(self.rate_ppm);
        if hit {
            self.injected.push((kind, addr));
        }
        hit
    }

    /// Every fault injected so far, in injection order.
    pub fn injected(&self) -> &[(FaultKind, Addr)] {
        &self.injected
    }
}

/// Per-system sentinel state: the on/off gate, the violation log and the
/// optional injector. Each memory system embeds one and consults it from
/// its `access` wrapper.
#[derive(Debug, Clone)]
pub struct Sentinel {
    enabled: bool,
    violations: Vec<SentinelViolation>,
    injector: Option<FaultInjector>,
}

impl Sentinel {
    /// Builds sentinel state from a spec.
    pub fn from_spec(spec: &SentinelSpec) -> Sentinel {
        Sentinel {
            enabled: spec.enabled,
            violations: Vec::new(),
            injector: FaultInjector::from_spec(spec),
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

    /// Rolls the injector for `kind` at `addr`; always `false` when faults
    /// are not armed.
    #[inline]
    pub fn inject(&mut self, kind: FaultKind, addr: Addr) -> bool {
        match &mut self.injector {
            Some(inj) => inj.roll(kind, addr),
            None => false,
        }
    }

    /// Faults injected so far (empty when the injector is off).
    pub fn injected_faults(&self) -> &[(FaultKind, Addr)] {
        self.injector.as_ref().map_or(&[], |i| i.injected())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_off() {
        let s = SentinelSpec::default();
        assert!(!s.enabled);
        assert!(!s.faults_armed());
        assert_eq!(s, SentinelSpec::off());
    }

    #[test]
    fn fault_class_sets() {
        let all = FaultClassSet::all();
        for k in FaultKind::ALL {
            assert!(all.contains(k));
            assert!(FaultClassSet::only(k).contains(k));
        }
        assert!(
            !FaultClassSet::only(FaultKind::SpuriousState).contains(FaultKind::DroppedInvalidation)
        );
        assert!(!FaultClassSet::NONE.contains(FaultKind::SpuriousState));
    }

    #[test]
    fn injector_is_deterministic() {
        let spec = SentinelSpec::with_faults(7, 500_000, FaultClassSet::all());
        let mut a = FaultInjector::from_spec(&spec).expect("armed");
        let mut b = FaultInjector::from_spec(&spec).expect("armed");
        for i in 0..200u32 {
            assert_eq!(
                a.roll(FaultKind::DroppedInvalidation, i),
                b.roll(FaultKind::DroppedInvalidation, i)
            );
        }
        assert_eq!(a.injected(), b.injected());
        assert!(!a.injected().is_empty(), "50% over 200 rolls must hit");
    }

    #[test]
    fn injector_respects_class_filter() {
        let spec =
            SentinelSpec::with_faults(1, 1_000_000, FaultClassSet::only(FaultKind::SpuriousState));
        let mut inj = FaultInjector::from_spec(&spec).expect("armed");
        assert!(!inj.roll(FaultKind::DroppedInvalidation, 0));
        assert!(inj.roll(FaultKind::SpuriousState, 0), "rate 100%");
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

    #[test]
    fn off_sentinel_never_injects() {
        let mut s = Sentinel::from_spec(&SentinelSpec::off());
        assert!(!s.on());
        assert!(!s.inject(FaultKind::DroppedInvalidation, 0));
        assert!(s.injected_faults().is_empty());
    }
}
