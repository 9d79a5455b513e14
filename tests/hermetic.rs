//! Hermeticity guard: the workspace must stay fully offline-buildable.
//!
//! Every dependency in every manifest must be an in-repo path dependency
//! (directly via `path = ...` or through `workspace = true`, which the
//! root `[workspace.dependencies]` table resolves to path entries). A
//! registry or git dependency would make tier-1 unbuildable in the
//! offline environment, so this test fails the moment one appears —
//! the same check `scripts/verify.sh` performs via `cargo metadata`,
//! here as a manifest scan so it runs inside `cargo test` without
//! invoking cargo recursively.
//!
//! Two more scans keep the simulator free of ambient configuration: only
//! the property framework may read the process environment, and it reads
//! only its two knobs. A last scan keeps virtual calls out of the run
//! loop's per-step and per-access paths.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Dependency-table headers whose entries must all be path/workspace
/// deps. `[workspace.dependencies]` is included: it is where a registry
/// crate would reappear first.
const DEP_SECTIONS: [&str; 5] = [
    "dependencies",
    "dev-dependencies",
    "build-dependencies",
    "workspace.dependencies",
    "target.", // any target-specific dependency table
];

fn is_dep_section(header: &str) -> bool {
    DEP_SECTIONS.iter().any(|s| {
        if let Some(prefix) = s.strip_suffix('.') {
            header.starts_with(prefix) && header.contains("dependencies")
        } else {
            header == *s || header.ends_with(&format!(".{s}"))
        }
    })
}

/// Returns the violations found in one manifest: entries inside a
/// dependency section that are neither `path = ...` nor
/// `workspace = true` deps.
fn scan_manifest(path: &Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let mut violations = Vec::new();
    let mut in_dep_section = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_dep_section = is_dep_section(header.trim());
            continue;
        }
        if !in_dep_section {
            continue;
        }
        // `name = { ... }` or `name = "version"` or `name.workspace = true`.
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        let hermetic = value.contains("path =")
            || value.contains("path=")
            || value.contains("workspace = true")
            || value.contains("workspace=true")
            || key.ends_with(".workspace");
        if !hermetic {
            violations.push(format!(
                "{}:{}: `{}` is not a path/workspace dependency",
                path.display(),
                lineno + 1,
                line
            ));
        }
    }
    violations
}

#[test]
fn all_manifests_use_only_path_dependencies() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let dir = entry.expect("dir entry").path();
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(
        manifests.len() >= 8,
        "expected the root + 7 crate manifests, found {}",
        manifests.len()
    );

    let mut report = String::new();
    for manifest in &manifests {
        for v in scan_manifest(manifest) {
            let _ = writeln!(report, "  {v}");
        }
    }
    assert!(
        report.is_empty(),
        "non-hermetic dependencies found (the workspace must build offline, \
         see DESIGN.md and scripts/verify.sh):\n{report}"
    );
}

/// The scanner itself must flag registry-style entries — exercised on a
/// synthetic manifest because a real violation cannot even resolve in
/// the offline build environment (cargo fails before tests run; this
/// scan exists to give a readable error in environments with a warm
/// registry cache).
#[test]
fn scanner_flags_registry_dependencies() {
    let dir = std::env::temp_dir().join("cmpsim_hermetic_selftest");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("Cargo.toml");
    std::fs::write(
        &manifest,
        "[package]\nname = \"x\"\nversion = \"1.0.0\"\n\n\
         [dependencies]\n\
         good = { path = \"../good\" }\n\
         also-good.workspace = true\n\
         bad = \"1\"\n\
         worse = { version = \"0.5\", features = [\"std\"] }\n",
    )
    .expect("write temp manifest");
    let violations = scan_manifest(&manifest);
    std::fs::remove_file(&manifest).ok();
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert!(violations[0].contains("bad"), "{violations:?}");
    assert!(violations[1].contains("worse"), "{violations:?}");
}

/// The specific crates this refactor removed must never return.
#[test]
fn removed_external_crates_stay_removed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        manifests.push(entry.expect("dir entry").path().join("Cargo.toml"));
    }
    for manifest in manifests.iter().filter(|m| m.is_file()) {
        let text = std::fs::read_to_string(manifest).expect("readable");
        for banned in ["proptest", "criterion", "\nrand ", "rand ="] {
            assert!(
                !text.contains(banned),
                "{} mentions `{}`; the workspace is dependency-free \
                 (use cmpsim_engine::prop; perf/ measures host speed)",
                manifest.display(),
                banned.trim()
            );
        }
    }
}

/// The only files that may read the process environment: the property
/// framework's seed and case count.
const ENV_READERS: [&str; 1] = ["crates/engine/src/prop/mod.rs"];

/// 1-based lines of `text` that call `env::var`, `env::var_os` or
/// `env::vars`; comment lines are skipped.
fn env_reads(text: &str) -> Vec<usize> {
    let calls = ["env::var(", "env::var_os(", "env::vars("];
    text.lines()
        .enumerate()
        .filter(|(_, line)| {
            let code = line.trim_start();
            !code.starts_with("//") && calls.iter().any(|c| code.contains(c))
        })
        .map(|(i, _)| i + 1)
        .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The library crates, the `cmpsim` binary and the examples take every
/// setting as a typed value from their caller, so one shell variable can
/// never reach every machine a process builds.
#[test]
fn only_entry_points_read_the_environment() {
    assert_eq!(
        env_reads("// std::env::var(\"X\")\nlet y = std::env::var_os(\"Y\");\n"),
        vec![2],
        "the scanner skips comments and flags calls"
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let krate = krate.expect("dir entry").path();
        rust_files(&krate.join("src"), &mut files);
        rust_files(&krate.join("benches"), &mut files);
    }
    let rel: Vec<String> = files
        .iter()
        .map(|f| {
            let r = f.strip_prefix(root).expect("under the root");
            r.to_string_lossy().replace('\\', "/")
        })
        .collect();
    for exempt in ENV_READERS {
        assert!(
            rel.iter().any(|r| r == exempt),
            "{exempt} is exempt but was not scanned"
        );
    }
    let mut report = String::new();
    for (file, rel) in files.iter().zip(&rel) {
        let reads = env_reads(&std::fs::read_to_string(file).expect("readable"));
        if ENV_READERS.contains(&rel.as_str()) {
            // An exemption must not outlive the read it allowed.
            if reads.is_empty() {
                let _ = writeln!(report, "  {rel}: exempt but reads no environment");
            }
            continue;
        }
        for line in reads {
            let _ = writeln!(report, "  {rel}:{line}");
        }
    }
    assert!(
        report.is_empty(),
        "environment reads outside the entry points (parse the knob at an \
         entry point and pass it down as a typed value), or stale \
         exemptions in ENV_READERS:\n{report}"
    );
}

/// The `CMPSIM_*` names quoted in string literals of `text`.
fn knob_literals(text: &str) -> BTreeSet<String> {
    text.match_indices("\"CMPSIM_")
        .map(|(i, _)| {
            text[i + 1..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect()
        })
        .collect()
}

/// The knob set is pinned: a new `CMPSIM_*` knob fails tier-1 here, so
/// adding one is a decision recorded in this test and the README's
/// table.
#[test]
fn the_only_knobs_are_the_property_frameworks_seed_and_case_count() {
    assert_eq!(
        knob_literals("// \"CMPSIM_X\"\nlet v = \"CMPSIM_Y=1\";"),
        BTreeSet::from(["CMPSIM_X".to_string(), "CMPSIM_Y".to_string()]),
        "the scanner takes the name up to the first non-name character"
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut knobs = BTreeSet::new();
    for file in ENV_READERS {
        knobs.extend(knob_literals(
            &std::fs::read_to_string(root.join(file)).expect("readable"),
        ));
    }
    assert_eq!(
        knobs,
        BTreeSet::from([
            "CMPSIM_PROP_CASES".to_string(),
            "CMPSIM_PROP_SEED".to_string()
        ])
    );
}

/// 1-based lines of `text` that name a trait object of `trait_name`
/// (`dyn Name` or `dyn path::to::Name`), comments included.
fn trait_objects(text: &str, trait_name: &str) -> Vec<usize> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| {
            line.match_indices("dyn ").any(|(i, m)| {
                let path: String = line[i + m.len()..]
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == ':')
                    .collect();
                path.rsplit("::").next() == Some(trait_name)
            })
        })
        .map(|(i, _)| i + 1)
        .collect()
}

/// The run loop holds its CPUs and memory system by their concrete types
/// and the CPU models are generic over the memory system, so a `Machine`
/// makes one virtual call per run. A CPU-model trait object anywhere, or a
/// memory-system trait object in the CPU models, would put one back on
/// every step or every access. The capture wrapper's inner box and
/// `ArchKind::try_build` (crates/trace, crates/core) stay allowed.
#[test]
fn no_trait_object_on_the_per_step_or_per_access_path() {
    let (cpu, mem) = ("CpuModel", "MemorySystem");
    assert_eq!(
        trait_objects(
            &format!("// a dyn {cpu}\nBox<dyn cmpsim_cpu::{cpu}>\ndyn {cpu}Ext\n&mut dyn {mem}"),
            cpu
        ),
        vec![1, 2],
        "the scanner reads comments and paths, and only whole trait names"
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let cpu_src = root.join("crates/cpu/src");
    assert!(
        files.iter().any(|f| f.starts_with(&cpu_src)),
        "crates/cpu/src was not scanned"
    );
    let mut report = String::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable");
        let rel = file.strip_prefix(root).expect("under the root").display();
        for line in trait_objects(&text, cpu) {
            let _ = writeln!(report, "  {rel}:{line}: dyn {cpu}");
        }
        if file.starts_with(&cpu_src) {
            for line in trait_objects(&text, mem) {
                let _ = writeln!(report, "  {rel}:{line}: dyn {mem}");
            }
        }
    }
    assert!(
        report.is_empty(),
        "trait objects on the per-step or per-access path (hold the CPU \
         model and memory system by their concrete types, generic code \
         over `C: CpuModel` and `M: MemorySystem`):\n{report}"
    );
}
