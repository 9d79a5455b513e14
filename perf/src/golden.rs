//! Pinned output digests: the proof that a timed run simulated exactly
//! what the parent commit simulated.
//!
//! `golden/digests.txt` holds one `<key> <digest>` pair per line:
//!
//! * `exec|<program>|<arch>|<cpu>|<n_cpus>|<scale>` — FNV-1a over a run's
//!   per-CPU counters, merged counters, memory statistics, port
//!   utilization and phase markers, formatted exactly as
//!   `cmpsim_bench::matrix::summary_json` digests them.
//! * `explore-point|<program>|<scale>|<code>` — every point of the
//!   explore-replay design space, so a search at any seed is checked
//!   point by point.
//! * `explore-render|<program>|<scale>|<seed>` — the whole rendered
//!   search output for seeds 1–3; other seeds report `unpinned`.

use cmpsim_bench::matrix::{cpu_label, fnv1a, MatrixCase};
use cmpsim_core::RunSummary;
use std::collections::BTreeMap;

/// The digests committed with this crate.
pub const EMBEDDED: &str = include_str!("../golden/digests.txt");

/// Seeds whose rendered explore output is pinned.
pub const PINNED_RENDER_SEEDS: [u64; 3] = [1, 2, 3];

/// A parsed digest file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Golden {
    pins: BTreeMap<String, String>,
}

impl Golden {
    /// Parses `<key> <digest>` lines; blank lines and `#` comments are
    /// skipped.
    ///
    /// # Errors
    ///
    /// The first line that is not a key and a digest, or a repeated key.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut pins = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(key), Some(digest), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("golden line {}: expected `<key> <digest>`", n + 1));
            };
            if pins.insert(key.to_string(), digest.to_string()).is_some() {
                return Err(format!("golden line {}: duplicate key {key}", n + 1));
            }
        }
        Ok(Golden { pins })
    }

    pub fn is_pinned(&self, key: &str) -> bool {
        self.pins.contains_key(key)
    }

    /// Checks one computed digest against its pin.
    ///
    /// # Errors
    ///
    /// A message naming the key when the digest differs or is not pinned.
    pub fn check(&self, key: &str, got: &str) -> Result<(), String> {
        match self.pins.get(key) {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!("{key}: digest {got} differs from golden {want}")),
            None => Err(format!("{key}: no golden digest (unpinned)")),
        }
    }

    /// Adds or replaces pins.
    pub fn extend(&mut self, pins: impl IntoIterator<Item = (String, String)>) {
        self.pins.extend(pins);
    }

    /// The file form: sorted `<key> <digest>` lines.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# cmpsim-perf golden digests: regenerate with `cmpsim-perf --bless <this file>`\n",
        );
        for (k, v) in &self.pins {
            out.push_str(&format!("{k} {v}\n"));
        }
        out
    }
}

pub fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Key of one execution-driven case.
pub fn exec_key(case: &MatrixCase) -> String {
    format!(
        "exec|{}|{}|{}|{}|{:?}",
        case.workload,
        case.arch.name(),
        cpu_label(case.cpu),
        case.n_cpus,
        case.scale
    )
}

/// Digest of a run summary, as `summary_json` computes it.
pub fn summary_digest(s: &RunSummary) -> String {
    hex(fnv1a(
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            s.per_cpu, s.total, s.mem, s.port_util, s.phases
        )
        .as_bytes(),
    ))
}

pub fn explore_point_key(program: &str, scale: f64, code: u64) -> String {
    format!("explore-point|{program}|{scale:?}|{code}")
}

pub fn explore_render_key(program: &str, scale: f64, seed: u64) -> String {
    format!("explore-render|{program}|{scale:?}|{seed}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_embedded_file_parses() {
        assert!(Golden::parse(EMBEDDED).is_ok());
    }

    #[test]
    fn check_reports_mismatch_and_unpinned() {
        let g = Golden::parse("# c\n\na 0011\nb 2233\n").unwrap();
        assert!(g.check("a", "0011").is_ok());
        assert!(g.check("a", "ffff").unwrap_err().contains("differs"));
        assert!(g.check("z", "0011").unwrap_err().contains("unpinned"));
        assert!(Golden::parse("a 1\na 2\n").is_err());
        assert!(Golden::parse("a\n").is_err());
        let round = Golden::parse(&g.render()).unwrap();
        assert_eq!(round, g);
    }
}
