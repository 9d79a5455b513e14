//! Replay through the concrete system type against replay through a box.
//!
//! `ArchSystem` builds each architecture's system inside the replay worker
//! by its concrete type (`ArchKind::try_visit`), so the record loop calls
//! the topology's `access` directly; `ArchKind::try_build` boxes the same
//! system. The dispatch must be the only difference: one captured trace,
//! replayed into all five architectures both ways at one and two jobs,
//! leaves every system with the same statistics and port utilization.

use cmpsim_core::{capture_run, ArchKind, ArchSystem, CpuKind, MachineConfig};
use cmpsim_kernels::build_by_name;
use cmpsim_trace::{decode, replay_matrix, ConfigReplay};

const ARCHES: [ArchKind; 5] = [
    ArchKind::SharedL1,
    ArchKind::SharedL2,
    ArchKind::SharedMem,
    ArchKind::Clustered,
    ArchKind::Mesh,
];

/// Every field of every replay, as `Debug` text.
fn text(replays: &[ConfigReplay]) -> Vec<String> {
    replays
        .iter()
        .map(|r| format!("{} {:?}\n{:?}\n{:?}", r.name, r.replay, r.stats, r.ports))
        .collect()
}

#[test]
fn concrete_and_boxed_replay_agree_on_all_five_architectures() {
    let w = build_by_name("eqntott", 4, 0.02).expect("eqntott builds");
    let cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
    let (run, bytes) = capture_run(&cfg, &w, 100_000_000).expect("captures");
    let records = decode(&bytes).expect("decodes");
    let systems: Vec<ArchSystem> = ARCHES
        .iter()
        .map(|&arch| ArchSystem {
            arch,
            config: MachineConfig { arch, ..cfg }.system_config(),
        })
        .collect();
    let boxed = |i: usize| {
        let s = systems[i];
        s.arch.try_build(&s.config).expect("a paper configuration")
    };

    let want = text(&replay_matrix(&records, ARCHES.len(), 1, boxed));
    for jobs in [1, 2] {
        let concrete = replay_matrix(&records, ARCHES.len(), jobs, |i| systems[i]);
        assert_eq!(text(&concrete), want, "concrete at {jobs} jobs");
        let boxed = replay_matrix(&records, ARCHES.len(), jobs, boxed);
        assert_eq!(text(&boxed), want, "boxed at {jobs} jobs");
    }

    // Not vacuous: five different systems each saw the whole stream, and
    // the captured architecture reproduces the run that made the trace.
    let replays = replay_matrix(&records, ARCHES.len(), 2, |i| systems[i]);
    let names: Vec<&str> = replays.iter().map(|r| r.name).collect();
    assert_eq!(names, ARCHES.map(|a| a.name()));
    for r in &replays {
        assert!(r.replay.accesses > 10_000, "{}: {:?}", r.name, r.replay);
        assert_eq!(r.replay.accesses, replays[0].replay.accesses);
    }
    let captured = &replays[2];
    assert_eq!(format!("{:?}", captured.stats), format!("{:?}", run.mem));
    assert_eq!(
        format!("{:?}", captured.ports),
        format!("{:?}", run.port_util)
    );
}
