//! `BENCHMARK.json` declares exactly the workloads and metrics the
//! binary runs and emits, within the limits the file format allows.

use cmpsim_perf::json::Json;
use cmpsim_perf::metrics::{self, Metric};
use cmpsim_perf::workload::WORKLOADS;
use std::collections::HashSet;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn list<'a>(b: &'a Json, key: &str) -> &'a [Json] {
    b.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{entry}: `{key}` is a string"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A declared metric as `(name, unit, better, bound)`.
type Row = (String, String, String, Option<f64>);

fn declared(entries: &[Json], with_bound: bool) -> Vec<Row> {
    entries
        .iter()
        .map(|e| {
            let keys: Vec<&str> = e
                .as_object()
                .expect("a metric is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: &[&str] = if with_bound {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            assert_eq!(keys, want, "{e}");
            (
                field(e, "name").to_string(),
                field(e, "unit").to_string(),
                field(e, "better").to_string(),
                e.get("bound")
                    .map(|b| b.as_f64().expect("bound is a number")),
            )
        })
        .collect()
}

fn rows<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> Vec<Row> {
    metrics
        .into_iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                m.bound,
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_binary_runs() {
    let b = benchmark_json();
    let keys: Vec<&str> = b
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads: Vec<&str> = list(&b, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!((2..=8).contains(&workloads.len()));
    for w in list(&b, "workloads") {
        let why = field(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = declared(list(&b, "end_to_end"), true);
    assert_eq!(
        e2e,
        rows(&metrics::END_TO_END),
        "end_to_end differs from the code"
    );
    assert!((1..=16).contains(&e2e.len()));
    let setup = e2e
        .iter()
        .find(|m| m.0 == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((setup.1.as_str(), setup.2.as_str()), ("s", "lower"));
    for m in &e2e {
        let bound = m.3.expect("end-to-end metrics have a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.0);
        assert!(bound <= setup.3.unwrap(), "setup_s has the largest bound");
    }

    let layer = declared(list(&b, "per_layer"), false);
    assert_eq!(
        layer,
        rows(metrics::per_layer()),
        "per_layer differs from the code"
    );
    assert!((1..=128).contains(&layer.len()));

    let mut seen = HashSet::new();
    for (name, unit, ..) in e2e.iter().chain(&layer) {
        assert!(is_name(name), "bad metric name {name}");
        assert!(is_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(name.as_str()), "{name} declared twice");
    }
    for w in &workloads {
        assert!(is_name(w) && seen.insert(w), "bad or repeated name {w}");
    }

    let secs = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    let paths = list(&b, "paths");
    assert_eq!(paths, [Json::from("perf")]);
    let command: Vec<&str> = list(&b, "command")
        .iter()
        .map(|c| c.as_str().expect("command items are strings"))
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
}
