//! A small deterministic property-testing framework built on
//! [`Rng64`](crate::Rng64).
//!
//! The simulator's verification stack must build and run fully offline,
//! so instead of an external property-testing crate the workspace carries
//! this ~500-line framework. A property is a closure that draws arbitrary
//! inputs from a [`Source`] and asserts with the standard `assert!`
//! macros; [`check`] runs it over many seeded cases, and on failure
//! greedily shrinks the recorded choice stream to a minimal
//! counterexample (see [`shrink`]) before panicking with the reproducing
//! seed.
//!
//! ```
//! use cmpsim_engine::prop;
//!
//! prop::check("reverse_is_involutive", |src| {
//!     let v = src.vec(1..50, |s| s.u64(0..1000));
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     assert_eq!(v, w);
//! });
//! ```
//!
//! Reproduction: every failure report prints a `CMPSIM_PROP_SEED=...`
//! line; exporting that variable makes case 0 of the next run regenerate
//! the failing inputs exactly. `CMPSIM_PROP_CASES=N` overrides the case
//! count of every suite (e.g. `CMPSIM_PROP_CASES=10000` for a soak run).

pub mod shrink;
mod source;

pub use source::Source;

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 256;
/// Default run seed (changed only by `CMPSIM_PROP_SEED`).
pub const DEFAULT_SEED: u64 = 0x5EED_CA5E_2026_0001;
/// Default budget of property executions spent shrinking a failure.
pub const DEFAULT_SHRINK_ATTEMPTS: u32 = 4096;

/// Environment variable overriding the run seed.
pub const ENV_SEED: &str = "CMPSIM_PROP_SEED";
/// Environment variable overriding the per-property case count.
pub const ENV_CASES: &str = "CMPSIM_PROP_CASES";

/// Tuning knobs for one property run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases.
    pub cases: u32,
    /// Run seed; case `i` derives its own seed from it (case 0 uses it
    /// verbatim, which is what makes `CMPSIM_PROP_SEED` reproduction
    /// work).
    pub seed: u64,
    /// Max property executions spent shrinking a failure.
    pub max_shrink_attempts: u32,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            cases: DEFAULT_CASES,
            seed: DEFAULT_SEED,
            max_shrink_attempts: DEFAULT_SHRINK_ATTEMPTS,
        }
    }
}

impl Config {
    /// Applies `CMPSIM_PROP_SEED` / `CMPSIM_PROP_CASES` on top of `self`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed value, naming the knob and the value: a
    /// seed that fell back to the default would silently not reproduce
    /// the failure it was copied from.
    #[must_use]
    pub fn with_env(self) -> Config {
        self.with_lookup(|key| std::env::var(key).ok())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Config::with_env`] but reading from an arbitrary lookup —
    /// this is the testable core of the env handling. Seeds accept
    /// decimal or `0x` hex.
    ///
    /// # Errors
    ///
    /// A message naming the knob and the value when a set value does not
    /// parse.
    pub fn with_lookup(
        mut self,
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<Config, String> {
        if let Some(raw) = lookup(ENV_SEED) {
            self.seed = parse_u64(&raw)
                .ok_or_else(|| format!("{ENV_SEED}={raw:?}: expected a decimal or 0x-hex u64"))?;
        }
        if let Some(raw) = lookup(ENV_CASES) {
            self.cases = raw
                .trim()
                .parse()
                .map_err(|_| format!("{ENV_CASES}={raw:?}: expected a case count"))?;
        }
        Ok(self)
    }

    /// The default configuration with env overrides applied.
    pub fn from_env() -> Config {
        Config::default().with_env()
    }

    /// Same, but with a suite-specific default case count (still
    /// overridden by `CMPSIM_PROP_CASES` when set). Use for expensive
    /// properties that cannot afford the global default.
    pub fn from_env_or_cases(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
        .with_env()
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// A property failure: which case failed, how to reproduce it, and the
/// minimized counterexample's choice buffer.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Property name as passed to [`check`].
    pub name: String,
    /// Index of the failing case.
    pub case: u32,
    /// Seed that regenerates the original (unshrunk) failing inputs.
    pub seed: u64,
    /// Minimized failing choice buffer; replay with [`Source::replay`].
    pub choices: Vec<u64>,
    /// Panic message of the minimized counterexample.
    pub message: String,
    /// Property executions spent shrinking.
    pub shrink_attempts: u32,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "property '{}' failed at case {}", self.name, self.case)?;
        writeln!(
            f,
            "  reproduce: {ENV_SEED}={:#x} cargo test (regenerates the unshrunk case as case 0)",
            self.seed
        )?;
        writeln!(
            f,
            "  minimal counterexample after {} shrink runs, choices {:?}",
            self.shrink_attempts, self.choices
        )?;
        write!(f, "  failure: {}", self.message)
    }
}

/// Seed for case `i` of a run seeded with `run_seed`. Case 0 uses the run
/// seed itself so a reported seed reproduces directly.
fn case_seed(run_seed: u64, i: u32) -> u64 {
    if i == 0 {
        run_seed
    } else {
        // One splitmix64 scramble keeps successive cases uncorrelated.
        let mut z = run_seed ^ (u64::from(i)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

thread_local! {
    /// True while this thread is intentionally panicking inside
    /// `catch_unwind` (case execution and shrink replays); the hook stays
    /// quiet so a shrink session doesn't print hundreds of backtraces.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Runs `prop` on one choice source, converting a panic into its message.
fn run_case(prop: &impl Fn(&mut Source), src: &mut Source) -> Option<String> {
    install_quiet_hook();
    QUIET.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| prop(src)));
    QUIET.with(|q| q.set(false));
    match result {
        Ok(()) => None,
        Err(payload) => Some(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `prop` for `cfg.cases` cases and returns the shrunk failure, if
/// any, instead of panicking. The building block for [`check`]; test code
/// that wants to inspect counterexamples calls this directly.
pub fn check_result(cfg: &Config, name: &str, prop: impl Fn(&mut Source)) -> Result<(), Failure> {
    for i in 0..cfg.cases {
        let seed = case_seed(cfg.seed, i);
        let mut src = Source::live(seed);
        if let Some(message) = run_case(&prop, &mut src) {
            let shrunk = shrink::minimize(
                |cand| {
                    let mut replay = Source::replay(cand.to_vec());
                    run_case(&prop, &mut replay)
                },
                src.into_choices(),
                message,
                cfg.max_shrink_attempts,
            );
            return Err(Failure {
                name: name.to_string(),
                case: i,
                seed,
                choices: shrunk.choices,
                message: shrunk.message,
                shrink_attempts: shrunk.attempts,
            });
        }
    }
    Ok(())
}

/// Runs `prop` under `cfg`, panicking with a full report (reproducing
/// seed, minimal counterexample, original assertion message) on failure.
pub fn check_with(cfg: &Config, name: &str, prop: impl Fn(&mut Source)) {
    if let Err(failure) = check_result(cfg, name, prop) {
        panic!("{failure}");
    }
}

/// Runs `prop` with the default configuration plus env overrides — the
/// standard entry point for test suites.
pub fn check(name: &str, prop: impl Fn(&mut Source)) {
    check_with(&Config::from_env(), name, prop);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_is_ok() {
        let cfg = Config {
            cases: 50,
            ..Config::default()
        };
        assert!(check_result(&cfg, "tautology", |src| {
            let x = src.u64(0..100);
            assert!(x < 100);
        })
        .is_ok());
    }

    #[test]
    fn case_zero_uses_run_seed_verbatim() {
        assert_eq!(case_seed(1234, 0), 1234);
        assert_ne!(case_seed(1234, 1), case_seed(1234, 2));
    }

    #[test]
    fn parse_u64_accepts_hex_and_decimal() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64(" 0x2A "), Some(42));
        assert_eq!(parse_u64("0Xff"), Some(255));
        assert_eq!(parse_u64("nope"), None);
    }

    #[test]
    fn display_includes_reproduction_line() {
        let f = Failure {
            name: "p".into(),
            case: 3,
            seed: 0xABC,
            choices: vec![1, 2],
            message: "boom".into(),
            shrink_attempts: 7,
        };
        let s = f.to_string();
        assert!(s.contains("CMPSIM_PROP_SEED=0xabc"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }
}
