//! `cmpsim` command-line driver: run any workload on any architecture
//! under either CPU model and print the paper's metrics.
//!
//! ```sh
//! cmpsim run --workload ocean --arch shared-l1 --cpu mipsy --scale 1.0
//! cmpsim sweep --workload ear --cpu mxs
//! cmpsim probe
//! cmpsim list
//! ```

use cmpsim::core::machine::run_workload;
use cmpsim::core::report::IpcBreakdown;
use cmpsim::core::{
    probe_latencies, ArchKind, ArchSystem, Breakdown, CpuKind, Machine, MachineConfig, MissRates,
    RunError, RunSummary, TraceProfile,
};
use cmpsim::engine::pool::host_jobs;
use cmpsim::mem::{MemStats, PortUtil};
use cmpsim::trace::{
    analyze, decode_with_header, replay_matrix, salvage, AtomicFile, ConfigReplay, SinkOut,
    TraceHeader,
};
use cmpsim_kernels::synth::{build as build_synth, SynthParams};
use cmpsim_kernels::{build_by_name, ALL_WORKLOADS};
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "\
cmpsim — ISCA'96 multiprocessor-microprocessor design-space simulator

USAGE:
    cmpsim run   --workload <NAME> [--arch <ARCH>] [--cpu <MODEL>]
                 [--scale <F>] [--cpus <N>] [--l2-assoc <N>]
                 [--l1-latency <N>] [--l1-banks <N>] [--budget <CYCLES>]
                 [--mesh-rows <N> --mesh-cols <N>] [--trace-out <PATH>]
                                 --trace-out captures the run's reference
                                 trace crash-safely: bytes land at
                                 <PATH>.tmp and rename onto <PATH> once
                                 the footer is written
    cmpsim sweep --workload <NAME> [--cpu <MODEL>] [--scale <F>]
    cmpsim synth [--rounds N] [--grain N] [--ws KB] [--stores PCT]
                 [--shared PCT] [--shared-kb KB] [--cpu <MODEL>]
                                 sweep a parameterized synthetic workload
                                 across all three architectures
    cmpsim replay --file <TRACE> [--arch <ARCH>]... [--cpus <N>]
                 [--l2-assoc <N>] [--l1-latency <N>] [--l1-banks <N>]
                 [--mesh-rows <N> --mesh-cols <N>] [--jobs <N>]
                 [--salvage] [--head <N>]
                                 replay a captured reference trace into
                                 freshly built memory systems (no CPU
                                 model); repeat --arch to batch several
                                 architectures over one decode, fanned
                                 across --jobs threads (default: host
                                 parallelism; output is identical at any
                                 value); --salvage to recover every
                                 intact chunk of a torn/corrupted trace
                                 instead of rejecting it, --head N to
                                 replay only the first N records
    cmpsim explore --workload <NAME> [--scale <F>] [--budget <CYCLES>]
                 [--driver exhaustive|random] [--seed <N>]
                 [--dim <name>=<v1,v2,...>]... [--points <N>]
                 [--cache <PATH>] [--exec] [--dry-run] [--jobs <N>]
                                 seeded design-space search: exhaustive
                                 evaluates every valid point, random (the
                                 default) --points distinct ones (default
                                 64); JSON-lines points + Pareto frontier
                                 on stdout, byte-identical at any job
                                 count; --cache persists every evaluated
                                 point so overlapping or interrupted
                                 searches never recompute; --dry-run
                                 plans the search (cardinality,
                                 exec/replay split, cache hits) without
                                 simulating.
                                 Dimensions: arch, cpu, cpus, l1-kb,
                                 l2-kb, l2-assoc, l2-banks, l1-banks,
                                 l2-width (128|64 bits), rob
    cmpsim probe                 measure Table 2 latencies
    cmpsim list                  list workloads and architectures

ARCH:   shared-l1 | shared-l2 | shared-mem | clustered | mesh
                                             (default shared-mem)
MODEL:  mipsy | mxs                          (default mipsy)
NAME:   eqntott mp3d ocean volpack ear fft multiprog

The mesh architecture tiles the CPUs on a near-square 2D grid by default;
--mesh-rows/--mesh-cols pin the grid (rows x cols must equal --cpus).

cmpsim reads no environment variables: every setting is a flag.
";

#[derive(Debug)]
struct Args {
    workload: String,
    arch: ArchKind,
    /// CPU model, count and cache overrides; `arch` is set per run.
    machine: MachineConfig,
    scale: f64,
    budget: u64,
    trace_out: Option<String>,
}

/// The machine flags `run`, `sweep` and `replay` share, parsed into the
/// [`MachineConfig`] each of them builds.
struct MachineFlags {
    cfg: MachineConfig,
    mesh_rows: Option<usize>,
    mesh_cols: Option<usize>,
}

impl MachineFlags {
    fn new() -> MachineFlags {
        MachineFlags {
            cfg: MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy),
            mesh_rows: None,
            mesh_cols: None,
        }
    }

    /// Parses `flag` with the value `val` yields if it is a machine flag.
    /// Returns `Ok(false)` for any other flag.
    fn parse(
        &mut self,
        flag: &str,
        val: &mut dyn FnMut() -> Result<String, String>,
    ) -> Result<bool, String> {
        let cfg = &mut self.cfg;
        match flag {
            "--cpus" | "-n" => cfg.n_cpus = num(val()?, "cpus")?,
            "--l2-assoc" => cfg.l2_assoc = Some(num(val()?, "assoc")?),
            "--l1-latency" => cfg.l1_latency = Some(num(val()?, "latency")?),
            "--l1-banks" => cfg.l1_banks = Some(num(val()?, "banks")?),
            "--mesh-rows" => self.mesh_rows = Some(num(val()?, "rows")?),
            "--mesh-cols" => self.mesh_cols = Some(num(val()?, "cols")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The parsed configuration, once the flags agree with each other.
    fn finish(self) -> Result<MachineConfig, String> {
        // Per-workload CPU-count constraints (power-of-two FFT grids, …)
        // are reported by the workload builders; the memory system
        // validates its own ceiling. Here only reject the degenerate zero.
        if self.cfg.n_cpus == 0 {
            return Err("--cpus must be at least 1".into());
        }
        let mesh_dims = match (self.mesh_rows, self.mesh_cols) {
            (Some(r), Some(c)) => Some((r, c)),
            (None, None) => None,
            _ => return Err("--mesh-rows and --mesh-cols must be given together".into()),
        };
        Ok(MachineConfig {
            mesh_dims,
            ..self.cfg
        })
    }
}

/// Parses a flag's value, naming `what` in the error.
fn num<T: FromStr>(v: String, what: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    v.parse().map_err(|e| format!("bad {what}: {e}"))
}

fn parse_cpu(s: &str) -> Result<CpuKind, String> {
    match s {
        "mipsy" => Ok(CpuKind::Mipsy),
        "mxs" => Ok(CpuKind::Mxs),
        other => Err(format!("unknown CPU model `{other}`")),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = String::new();
    let mut arch = ArchKind::SharedMem;
    let mut machine = MachineFlags::new();
    let mut scale = 1.0;
    let mut budget = 40_000_000_000;
    let mut trace_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        if machine.parse(flag, &mut val)? {
            continue;
        }
        match flag.as_str() {
            "--workload" | "-w" => workload = val()?,
            "--arch" | "-a" => arch = val()?.parse()?,
            "--cpu" | "-c" => machine.cfg.cpu = parse_cpu(&val()?)?,
            "--scale" | "-s" => scale = num(val()?, "scale")?,
            "--budget" => budget = num(val()?, "budget")?,
            "--trace-out" => trace_out = Some(val()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Args {
        workload,
        arch,
        machine: machine.finish()?,
        scale,
        budget,
        trace_out,
    })
}

fn print_summary(cpu: CpuKind, s: &RunSummary) {
    println!("architecture : {}", s.arch.name());
    println!("wall cycles  : {}", s.wall_cycles);
    println!("instructions : {}", s.total.instructions);
    println!(
        "loads/stores : {} / {} ({} failed SC)",
        s.total.loads, s.total.stores, s.total.sc_failures
    );
    match cpu {
        CpuKind::Mipsy => println!("breakdown    : {}", Breakdown::from_summary(s)),
        _ => {
            println!("ipc          : {}", IpcBreakdown::from_summary(s));
            println!(
                "pipeline     : avg window {:.1}/32, {} rob-full + {} no-preg dispatch stalls, {} mispredicts / {} branches",
                s.total.avg_window_occupancy(),
                s.total.dispatch_stall_rob,
                s.total.dispatch_stall_preg,
                s.total.mispredicts,
                s.total.branches
            );
        }
    }
    print_mem(&s.mem, &s.port_util);
    if !s.violations.is_empty() {
        println!(
            "sentinel     : {} violations detected; first: {}",
            s.violations.len(),
            s.violations[0]
        );
    }
}

/// Prints one replayed configuration's report block.
fn print_replay_block(cr: &ConfigReplay, cpus: usize) {
    println!("system       : {} ({cpus} CPUs)", cr.name);
    println!(
        "replayed     : {} accesses, {} ROI resets",
        cr.replay.accesses, cr.replay.resets
    );
    print_mem(&cr.stats, &cr.ports);
}

/// Prints the memory-system lines of a `run` or `replay` report: miss
/// rates, access latency and one row per port.
fn print_mem(mem: &MemStats, ports: &[PortUtil]) {
    println!("miss rates   : {}", MissRates::from_mem(mem));
    println!("access lat.  : {}", mem.latency);
    for u in ports {
        // busy_cycles aggregates over a group's banks, so it can exceed
        // the wall clock; report raw cycle counts.
        println!(
            "port {:<12}: {:>9} grants, {:>9} busy cyc, {:>9} wait cyc",
            u.name, u.grants, u.busy_cycles, u.wait_cycles
        );
    }
}

/// Runs `run` on each of the paper's architectures and prints the table
/// of `sweep` and `synth`: cycles, cycles relative to the first
/// architecture, and the breakdown.
fn print_sweep(
    cpu: CpuKind,
    mut run: impl FnMut(ArchKind) -> Result<RunSummary, String>,
) -> Result<(), String> {
    println!(
        "{:<14} {:>12} {:>8}  breakdown",
        "architecture", "cycles", "norm"
    );
    let mut base = None;
    for arch in ArchKind::ALL {
        let s = run(arch)?;
        let b = *base.get_or_insert(s.wall_cycles);
        let detail = match cpu {
            CpuKind::Mipsy => Breakdown::from_summary(&s).to_string(),
            _ => IpcBreakdown::from_summary(&s).to_string(),
        };
        println!(
            "{:<14} {:>12} {:>8.3}  {}",
            arch.name(),
            s.wall_cycles,
            s.wall_cycles as f64 / b as f64,
            detail
        );
    }
    Ok(())
}

fn run_one(a: &Args, arch: ArchKind) -> Result<RunSummary, String> {
    let cfg = MachineConfig { arch, ..a.machine };
    let w = build_by_name(&a.workload, cfg.n_cpus, a.scale)?;
    // Build fallibly so a bad geometry, a capture the trace format cannot
    // carry, or a trace path that cannot be created is a CLI error rather
    // than a panic out of the builder.
    let mut m = match &a.trace_out {
        None => Machine::try_new(&cfg, &w).map_err(|e| e.to_string())?,
        Some(path) => {
            let file = AtomicFile::create(path).map_err(|e| format!("{path}: {e}"))?;
            let tmp = file.tmp_path().to_path_buf();
            Machine::try_new_capturing(&cfg, &w, SinkOut::Atomic(file)).map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                e.to_string()
            })?
        }
    };
    let s = m.run(a.budget).map_err(|e| e.to_string())?;
    (w.check)(m.phys()).map_err(|e| RunError::CheckFailed(e).to_string())?;
    Ok(s)
}

/// `cmpsim explore`: seeded design-space search with cached batch
/// evaluation and Pareto frontier extraction (DESIGN.md §15).
///
/// Points go to stdout as JSON lines — a pure function of (space, spec,
/// driver, seed), byte-identical at any job count and across cache-hit
/// reruns. Run-variant facts (cache hits, capture counts) go to stderr.
fn cmd_explore(rest: &[String]) -> Result<(), String> {
    use cmpsim::explore::search::dry_run;
    use cmpsim::explore::{render_lines, run_search, DesignSpace, Driver, EvalMode, EvalSpec};

    let mut space = DesignSpace::paper();
    let mut workload: Option<String> = None;
    let mut scale = 0.05f64;
    let mut budget = 10_000_000_000u64;
    let mut seed = 1u64;
    let mut driver_name = "random".to_string();
    let mut points = 64usize;
    let mut cache: Option<std::path::PathBuf> = None;
    let mut exec = false;
    let mut dry = false;
    let mut jobs = host_jobs();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" | "-w" => workload = Some(val()?),
            "--scale" | "-s" => scale = num(val()?, "scale")?,
            "--budget" => budget = num(val()?, "budget")?,
            "--seed" => seed = num(val()?, "seed")?,
            "--driver" => driver_name = val()?,
            "--points" => points = num(val()?, "points")?,
            "--jobs" | "-j" => jobs = num(val()?, "jobs")?,
            "--cache" => cache = Some(val()?.into()),
            "--exec" => exec = true,
            "--dry-run" => dry = true,
            "--dim" | "-d" => {
                let v = val()?;
                let (name, levels) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--dim wants name=v1,v2,... (got `{v}`)"))?;
                space
                    .set_dim(name.trim(), levels)
                    .map_err(|e| e.to_string())?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let driver = match driver_name.as_str() {
        "exhaustive" => Driver::Exhaustive,
        "random" => Driver::Random { points },
        other => return Err(format!("unknown driver `{other}` (exhaustive, random)")),
    };
    let spec = EvalSpec {
        workload: workload.ok_or("--workload is required")?,
        scale,
        budget,
        mode: if exec {
            EvalMode::Exec
        } else {
            EvalMode::Replay
        },
        jobs,
    };
    if dry {
        let plan =
            dry_run(&space, &spec, driver, seed, cache.as_deref()).map_err(|e| e.to_string())?;
        println!("space cardinality : {}", plan.cardinality);
        println!("planned points    : {}", plan.planned);
        println!("exec runs         : {}", plan.exec_captures);
        println!("replay points     : {}", plan.replay_points);
        println!("cache hits        : {}", plan.cache_hits);
        return Ok(());
    }
    let outcome = run_search(&space, spec.clone(), driver, seed, cache.as_deref())
        .map_err(|e| e.to_string())?;
    for line in render_lines(&space, &spec, driver, seed, &outcome).map_err(|e| e.to_string())? {
        println!("{line}");
    }
    eprintln!(
        "explore: cardinality {}, evaluated {} points ({} exec runs, {} replayed, {} cached), frontier {}",
        outcome.cardinality,
        outcome.points.len(),
        outcome.exec_runs,
        outcome.replay_points,
        outcome.cache_hits,
        outcome.frontier.len()
    );
    if outcome.cache_recovered > 0 {
        eprintln!(
            "explore: cache recovered {} rows from disk",
            outcome.cache_recovered
        );
    }
    for (code, e) in &outcome.dropped {
        eprintln!("explore: dropped point {code}: {e}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &argv[1..];
    let result = match cmd.as_str() {
        "list" => {
            println!("workloads:     {}", ALL_WORKLOADS.join(" "));
            println!("architectures: shared-l1 shared-l2 shared-mem clustered mesh");
            println!("cpu models:    mipsy mxs");
            Ok(())
        }
        "probe" => {
            println!(
                "{:<14} {:>5} {:>5} {:>5} {:>5} {:>7} {:>8}",
                "system", "L1", "L2", "mem", "c2c", "L2 occ", "mem occ"
            );
            for arch in ArchKind::ALL {
                let p = probe_latencies(arch, false);
                println!(
                    "{:<14} {:>5} {:>5} {:>5} {:>5} {:>7} {:>8}",
                    arch.name(),
                    p.l1_hit,
                    p.l2_hit,
                    p.memory,
                    p.cache_to_cache.map_or("-".into(), |v| v.to_string()),
                    p.l2_occupancy,
                    p.mem_occupancy
                );
            }
            Ok(())
        }
        "run" => parse_args(rest).and_then(|a| {
            let s = run_one(&a, a.arch)?;
            print_summary(a.machine.cpu, &s);
            Ok(())
        }),
        "sweep" => parse_args(rest).and_then(|a| {
            if a.trace_out.is_some() {
                return Err("--trace-out applies to `run`, not `sweep`".into());
            }
            print_sweep(a.machine.cpu, |arch| run_one(&a, arch))
        }),
        "replay" => (|| {
            let mut file = None;
            let mut archs: Vec<ArchKind> = Vec::new();
            let mut machine = MachineFlags::new();
            let mut do_salvage = false;
            let mut head: Option<usize> = None;
            let mut jobs = host_jobs();
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let mut val = || {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("flag {flag} needs a value"))
                };
                if machine.parse(flag, &mut val)? {
                    continue;
                }
                match flag.as_str() {
                    "--file" | "-f" => file = Some(val()?),
                    "--arch" | "-a" => archs.push(val()?.parse()?),
                    "--salvage" => do_salvage = true,
                    "--head" => head = Some(num(val()?, "head")?),
                    "--jobs" | "-j" => jobs = num(val()?, "jobs")?,
                    other => return Err(format!("unknown flag `{other}`")),
                }
            }
            if archs.is_empty() {
                archs.push(ArchKind::SharedMem);
            }
            if jobs == 0 {
                return Err("--jobs must be at least 1".into());
            }
            let machine = machine.finish()?;
            let path: String = file.ok_or("--file is required")?;
            let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
            // Every record names a CPU below the header's count (the
            // decoder checks), and the replay system needs each of them.
            let fits = |header: &TraceHeader| {
                let n = usize::from(header.n_cpus);
                if machine.n_cpus < n {
                    return Err(format!(
                        "the trace carries {n} CPUs, more than --cpus {} (pass --cpus {n} or more)",
                        machine.n_cpus
                    ));
                }
                Ok(())
            };
            // Decode once; every configuration replays from this arena.
            // Strict mode rejects any framing or payload fault; --salvage
            // walks leniently and keeps every chunk that verifies.
            let (records, header) = if do_salvage {
                let s = salvage(&bytes).map_err(|e| e.to_string())?;
                fits(&s.header)?;
                println!(
                    "salvaged     : {} chunks ({} records), {} skipped, {} bytes dropped, {}",
                    s.chunks_recovered,
                    s.records.len(),
                    s.chunks_skipped,
                    s.bytes_dropped,
                    if s.clean_eof { "clean eof" } else { "torn eof" }
                );
                (s.records, None)
            } else {
                let (header, records) = decode_with_header(&bytes).map_err(|e| e.to_string())?;
                fits(&header)?;
                (records, Some(header))
            };
            let replayed = &records[..head.map_or(records.len(), |n| n.min(records.len()))];
            println!("trace        : {path}");
            // Validate every configuration before fanning out, so a bad
            // geometry is a CLI error rather than a worker panic. Each
            // worker then builds its system by the concrete type.
            let systems: Vec<ArchSystem> = archs
                .iter()
                .map(|&arch| {
                    let config = MachineConfig { arch, ..machine }.system_config();
                    arch.try_build(&config).map(|_| ArchSystem { arch, config })
                })
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            let results = replay_matrix(replayed, systems.len(), jobs, |i| systems[i]);
            for cr in &results {
                print_replay_block(cr, machine.n_cpus);
            }
            // The stream profile covers the whole file, whatever --head
            // replayed. It has no meaning for a torn --salvage input; there
            // the replayed statistics are the recovery product.
            if let Some(header) = header {
                let a = analyze(
                    &records,
                    usize::from(header.n_cpus),
                    u32::from(header.line_bytes),
                );
                println!("stream       : {}", TraceProfile::from_analysis(&a));
            }
            Ok(())
        })(),
        "synth" => (|| {
            let mut p = SynthParams::default();
            let mut cpu = CpuKind::Mipsy;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let mut val = || {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("flag {flag} needs a value"))
                };
                match flag.as_str() {
                    "--rounds" => p.rounds = num(val()?, "rounds")?,
                    "--grain" => p.grain = num(val()?, "grain")?,
                    "--ws" => p.working_set_kb = num(val()?, "ws")?,
                    "--stores" => p.store_pct = num(val()?, "stores")?,
                    "--shared" => p.shared_pct = num(val()?, "shared")?,
                    "--shared-kb" => p.shared_kb = num(val()?, "shared-kb")?,
                    "--cpu" => cpu = parse_cpu(&val()?)?,
                    other => return Err(format!("unknown flag `{other}`")),
                }
            }
            // The builder checks every limit; build before printing anything.
            let w = build_synth(&p).map_err(|e| e.to_string())?;
            println!("synth: {p:?}\n");
            print_sweep(cpu, |arch| {
                let mut cfg = MachineConfig::new(arch, cpu);
                cfg.n_cpus = p.n_cpus;
                run_workload(&cfg, &w, 40_000_000_000).map_err(|e| e.to_string())
            })
        })(),
        "explore" => cmd_explore(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
