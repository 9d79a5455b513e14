//! The five multiprocessor memory architectures as thin topology
//! descriptions over the shared [`hierarchy`](crate::hierarchy) core.
//!
//! * [`SharedL1System`] — Figure 1: four CPUs share banked L1 caches through
//!   a crossbar; uniprocessor-like L2 and main memory below. No inter-CPU
//!   coherence hardware exists because sharing happens at L1.
//! * [`SharedL2System`] — Figure 2: private write-through L1s over a banked
//!   shared L2 behind a crossbar; a per-line directory at the L2 keeps the
//!   L1s coherent by invalidating sharers on writes and replacements.
//! * [`SharedMemSystem`] — Figure 3: private write-back L1 + private L2 per
//!   CPU with full MESI snooping on a shared system bus; communication
//!   happens through main memory or >50-cycle cache-to-cache transfers.
//! * [`ClusteredSystem`] — extension (the authors' HPCA'96 follow-up,
//!   reference \[16\]): `n_cpus / cpus_per_cluster` clusters each sharing
//!   an L1, over the shared L2.
//! * [`MeshSystem`] — scaling extension: a 2D mesh of tiles (private L1 +
//!   router each) over the directory-kept shared L2, line-interleaved
//!   across home tiles with XY-routed, link-contended NoC traffic.
//!
//! There are three access walks. The shared-L1 and shared-memory files
//! each hold their own ([`SharedL1Topo`], [`SharedMemTopo`]). The other
//! three machines share the one directory walk,
//! [`DirectoryTopo`](crate::hierarchy::DirectoryTopo), and their files
//! only name its [`NodeScheme`](crate::hierarchy::NodeScheme) —
//! [`PerCpu`], [`PerCluster`] or [`Mesh`] — and build the geometry: the
//! mesh is the shared-L2 walk with a mesh stage where the crossbar was.
//! The directory/invalidation engine, the MESI snooping steps, and the
//! `MemorySystem` boilerplate live in [`crate::hierarchy`].

mod clustered;
mod mesh;
mod shared_l1;
mod shared_l2;
mod shared_mem;

pub use clustered::{ClusteredSystem, PerCluster};
pub use mesh::{Mesh, MeshSystem, LINK_LAT, LINK_OCC};
pub use shared_l1::{SharedL1System, SharedL1Topo};
pub use shared_l2::{PerCpu, SharedL2System};
pub use shared_mem::{SharedMemSystem, SharedMemTopo};
