//! `cmpsim-perf compare A.jsonl… -- B.jsonl…`: the parent's runs (A)
//! against the change's (B), metric by metric and workload by workload.

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One `"kind":"run"` record of a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    /// Metric medians of the run (end-to-end or per-layer host time).
    pub metrics: BTreeMap<String, f64>,
    /// Exact simulated counts.
    pub counts: BTreeMap<String, f64>,
}

fn number_map(v: Option<&Json>, field: Option<&str>) -> BTreeMap<String, f64> {
    v.and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| {
            let v = match field {
                Some(f) => v.get(f)?,
                None => v,
            };
            Some((k.clone(), v.as_f64()?))
        })
        .collect()
}

/// Reads the run records of JSON-lines files; other lines are skipped.
///
/// # Errors
///
/// An unreadable file or a line that is not JSON.
pub fn load(paths: &[String]) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
            if v.get("kind").and_then(Json::as_str) != Some("run") {
                continue;
            }
            out.push(Record {
                workload: v
                    .get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                seed: v.get("seed").and_then(Json::as_f64).unwrap_or_default() as u64,
                quick: v.get("quick").and_then(Json::as_bool).unwrap_or_default(),
                metrics: number_map(v.get("metrics"), Some("value")),
                counts: number_map(v.get("counts"), None),
            });
        }
    }
    Ok(out)
}

fn fmt_summary(s: Option<&Summary>) -> String {
    s.map_or_else(
        || "-".to_string(),
        |s| format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n),
    )
}

/// The verdict on one (workload, metric) pair.
fn verdict(
    better: Better,
    bound: Option<f64>,
    a: &Summary,
    b: &Summary,
    av: &[f64],
    bv: &[f64],
) -> &'static str {
    let Some(bound) = bound else { return "-" };
    let worse = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if a.rel_iqr() > bound {
        // The parent's own spread is wider than the bound: no verdict,
        // unless every change run beats every parent run.
        if bv.iter().all(|&x| av.iter().all(|&y| beats(x, y))) {
            "better"
        } else {
            "unresolved"
        }
    } else if worse > bound {
        "REGRESSION"
    } else {
        "ok"
    }
}

/// Records of one workload, seed and scale, tagged with their side.
type RunsBySeed<'a> = BTreeMap<(&'a str, u64, bool), Vec<(char, &'a Record)>>;

/// Compares two sets of records. Returns the report and whether it is
/// clean: no regression beyond a bound and no simulated count changed.
pub fn compare(a: &[Record], b: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let mut clean = true;
    let mut workloads: Vec<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let _ = writeln!(
        out,
        "{:<15} {:<26} {:<46} {:<46} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for w in &workloads {
        let values = |side: &[Record], name: &str| -> Vec<f64> {
            side.iter()
                .filter(|r| r.workload == *w)
                .filter_map(|r| r.metrics.get(name).copied())
                .collect()
        };
        for m in metrics::END_TO_END
            .iter()
            .chain(metrics::LAYER_TIMES.iter())
        {
            let (av, bv) = (values(a, m.name), values(b, m.name));
            if av.is_empty() && bv.is_empty() {
                continue;
            }
            let (sa, sb) = (summarize(&av), summarize(&bv));
            let (change, v) = match (&sa, &sb) {
                (Some(x), Some(y)) => (
                    format!("{:+.1}%", (y.median / x.median - 1.0) * 100.0),
                    verdict(m.better, m.bound, x, y, &av, &bv),
                ),
                _ => (
                    "-".to_string(),
                    if m.bound.is_some() { "missing" } else { "-" },
                ),
            };
            clean &= !matches!(v, "REGRESSION" | "missing");
            let bound = m
                .bound
                .map_or_else(|| "-".to_string(), |b| format!("{:.0}%", b * 100.0));
            let _ = writeln!(
                out,
                "{w:<15} {:<26} {:<46} {:<46} {change:>8} {bound:>6}  {v}",
                m.name,
                fmt_summary(sa.as_ref()),
                fmt_summary(sb.as_ref())
            );
        }
    }

    // Simulated counts must be identical between any two runs of the
    // same workload, seed and scale.
    let mut groups: RunsBySeed = BTreeMap::new();
    for (side, records) in [('A', a), ('B', b)] {
        for r in records {
            groups
                .entry((r.workload.as_str(), r.seed, r.quick))
                .or_default()
                .push((side, r));
        }
    }
    let (mut compared, mut differing) = (0usize, 0usize);
    for ((w, seed, _), runs) in &groups {
        let (_, first) = runs[0];
        for (side, r) in &runs[1..] {
            for (name, v) in &r.counts {
                let Some(want) = first.counts.get(name) else {
                    continue;
                };
                compared += 1;
                if want.to_bits() != v.to_bits() {
                    differing += 1;
                    let _ = writeln!(
                        out,
                        "count differs: {w} seed {seed} {name}: first run {want}, {side} run {v}"
                    );
                }
            }
        }
    }
    clean &= differing == 0;
    let _ = writeln!(
        out,
        "simulated counts: {compared} compared, {differing} differ; verdict: {}",
        if clean { "clean" } else { "NOT CLEAN" }
    );
    (out, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(workload: &str, pass_s: f64, instructions: f64) -> Record {
        Record {
            workload: workload.into(),
            seed: 1,
            quick: false,
            metrics: [("pass_s".to_string(), pass_s)].into(),
            counts: [("cpu.instructions".to_string(), instructions)].into(),
        }
    }

    #[test]
    fn flags_regressions_beyond_the_bound_and_changed_counts() {
        let a = [
            rec("w", 1.00, 5.0),
            rec("w", 1.01, 5.0),
            rec("w", 0.99, 5.0),
        ];
        let same = [rec("w", 1.02, 5.0), rec("w", 1.00, 5.0)];
        let (report, clean) = compare(&a, &same);
        assert!(clean, "{report}");
        assert!(report.contains(" ok"), "{report}");

        let slow = [rec("w", 1.30, 5.0), rec("w", 1.31, 5.0)];
        let (report, clean) = compare(&a, &slow);
        assert!(!clean);
        assert!(report.contains("REGRESSION"), "{report}");

        let drifted = [rec("w", 1.00, 6.0)];
        let (report, clean) = compare(&a, &drifted);
        assert!(!clean);
        assert!(report.contains("count differs"), "{report}");
    }

    #[test]
    fn a_noisy_parent_leaves_the_metric_unresolved() {
        let a = [
            rec("w", 1.0, 5.0),
            rec("w", 1.5, 5.0),
            rec("w", 2.0, 5.0),
            rec("w", 2.5, 5.0),
        ];
        let b = [rec("w", 2.4, 5.0)];
        let (report, _) = compare(&a, &b);
        assert!(report.contains("unresolved"), "{report}");
    }
}
