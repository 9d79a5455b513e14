//! Workloads for the ISCA'96 study: a synchronization runtime and the seven
//! benchmark program generators.
//!
//! The paper evaluates its three architectures on hand-parallelized
//! applications (Eqntott, MP3D, Ocean, Volpack), compiler-parallelized
//! applications (Ear, FFT) and a multiprogramming + OS workload (parallel
//! make of gcc compiles). The originals are SPEC92/SPLASH binaries running
//! under IRIX; this crate generates synthetic kernels *in the simulator's
//! own ISA* that reproduce each application's parallelization structure,
//! working-set size, sharing pattern and grain size — the properties that
//! drive the paper's results (see DESIGN.md §4 for the mapping).
//!
//! Every workload is a real program: it computes an actual result through
//! the simulated memory system, synchronizes with LL/SC spin locks and
//! sense-reversing barriers ([`Runtime`]), and self-validates its output
//! against a Rust reference computation ([`BuiltWorkload::check`]).

pub mod ear;
pub mod eqntott;
pub mod fft;
pub mod layout;
pub mod mp3d;
pub mod multiprog;
pub mod ocean;
pub mod runtime;
pub mod synth;
#[cfg(test)]
pub mod testharness;
pub mod volpack;
pub mod workload;

pub use layout::Layout;
pub use runtime::Runtime;
pub use workload::{BuiltWorkload, ProcessInit, WorkloadParams};

/// Builds a workload by name with the given parameter scale.
///
/// `scale` of 1.0 is the paper-equivalent configuration; tests use smaller
/// scales for speed. Valid names: `eqntott`, `mp3d`, `ocean`, `volpack`,
/// `ear`, `fft`, `multiprog`.
///
/// # Errors
///
/// Returns an error string for a scale that is not finite and positive
/// or larger than the workload's layout or loop counters hold, an
/// unknown name, a CPU count the workload cannot lay out, or if assembly
/// fails.
pub fn build_by_name(name: &str, n_cpus: usize, scale: f64) -> Result<BuiltWorkload, String> {
    // `WorkloadParams::scaled` would saturate an infinite scale to
    // `usize::MAX` and floor zero, negative or NaN to the minimum size.
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("scale {scale} is not a finite positive number"));
    }
    let params = WorkloadParams { n_cpus, scale };
    match name {
        "eqntott" => eqntott::build(&params).map_err(|e| e.to_string()),
        "mp3d" => mp3d::build(&params).map_err(|e| e.to_string()),
        "ocean" => ocean::build(&params).map_err(|e| e.to_string()),
        "volpack" => volpack::build(&params).map_err(|e| e.to_string()),
        "ear" => ear::build(&params).map_err(|e| e.to_string()),
        "fft" => fft::build(&params).map_err(|e| e.to_string()),
        "multiprog" => multiprog::build(&params).map_err(|e| e.to_string()),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The names of all seven workloads, in the paper's presentation order.
pub const ALL_WORKLOADS: [&str; 7] = [
    "eqntott",
    "mp3d",
    "ocean",
    "volpack",
    "ear",
    "fft",
    "multiprog",
];

#[cfg(test)]
mod tests {
    use super::{build_by_name, ALL_WORKLOADS};

    #[test]
    fn rejects_a_scale_that_is_not_finite_and_positive() {
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let Err(err) = build_by_name("eqntott", 4, scale) else {
                panic!("scale {scale} built");
            };
            assert!(err.contains(&format!("scale {scale}")), "{err}");
        }
    }

    /// A scale that a workload's layout or loop counters cannot hold is
    /// refused before anything is sized by it, with the limit named.
    #[test]
    fn every_workload_refuses_a_scale_it_cannot_hold() {
        for name in ALL_WORKLOADS {
            let Err(err) = build_by_name(name, 4, 1e30) else {
                panic!("{name} built at scale 1e30");
            };
            assert!(
                err.starts_with(&format!("{name} scale 1e30 needs ")) && err.contains("at most"),
                "{err}"
            );
        }
    }

    /// Each multiprog CPU runs two processes, and 95 CPUs' 190 address
    /// spaces no longer fit below the kernel.
    #[test]
    fn multiprog_rejects_cpu_counts_whose_address_spaces_overlap_the_kernel() {
        let Err(err) = build_by_name("multiprog", 95, 0.01) else {
            panic!("95 CPUs built");
        };
        assert!(err.contains("overlaps kernel space"), "{err}");
        assert!(build_by_name("multiprog", 94, 0.01).is_ok());
    }
}
