//! Sharing analysis from captured reference traces: ocean (true data
//! sharing through the grid borders) versus multiprog (independent
//! processes — no sharing at all).
//!
//! ```sh
//! cargo run --release --example trace_analyze
//! # or analyze a trace captured earlier with `cmpsim run --trace-out`:
//! cargo run --release --example trace_analyze -- /tmp/run.trace
//! ```
//!
//! For each workload this captures the reference stream once, then
//! computes everything from the trace alone: footprint, per-line sharing
//! degree, the producer→consumer communication matrix and the
//! reuse-distance profile. The contrast is the point — ocean's border
//! exchanges make over a third of its data lines shared, while multiprog's
//! independent processes share almost nothing.

use cmpsim_core::{capture_run, ArchKind, CpuKind, MachineConfig, TraceProfile};
use cmpsim_kernels::build_by_name;
use cmpsim_trace::{analyze_bytes, comm_matrix, TraceAnalysis};

fn show(name: &str, bytes: &[u8]) -> TraceAnalysis {
    let a = analyze_bytes(bytes).expect("analyzes");
    println!(
        "--- {name} ({} refs, {} trace bytes) ---",
        a.refs(),
        bytes.len()
    );
    println!("{}", TraceProfile::from_analysis(&a));
    println!("{}", comm_matrix(&a.comm));
    a
}

fn main() {
    if let Some(path) = std::env::args().nth(1) {
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        show(&path, &bytes);
        return;
    }

    let cfg = MachineConfig::new(ArchKind::SharedL2, CpuKind::Mipsy);
    let frac_of = |name: &str| {
        let w = build_by_name(name, 4, 0.05).expect("builds");
        let (_, bytes) = capture_run(&cfg, &w, 1_000_000_000).expect("captures");
        let a = show(name, &bytes);
        a.shared_lines() as f64 / a.data_lines.max(1) as f64
    };
    let (ocean, multiprog) = (frac_of("ocean"), frac_of("multiprog"));
    println!(
        "shared data-line fraction: ocean {:.1}%, multiprog {:.1}%",
        ocean * 100.0,
        multiprog * 100.0
    );
    assert!(
        ocean > 3.0 * multiprog,
        "ocean shares through borders; multiprog processes are (nearly) independent"
    );
}
