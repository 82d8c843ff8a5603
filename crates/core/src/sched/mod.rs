//! Subgraph scheduling and mapping (§IV-C, Algorithm 1).
//!
//! Input: the partitioned, compiled, *profiled* subgraphs. Output: a
//! device (CPU or GPU) per subgraph. The flagship policy is
//! **greedy-correction**:
//!
//! 1. **Critical path first** — sequential-phase subgraphs go to their
//!    faster device; in each multi-path phase the costliest subgraph
//!    (by `min(cpu, gpu)` time) is pinned to its faster device.
//! 2. **Greedy placement** — remaining multi-path subgraphs, in
//!    decreasing cost order, go wherever they least increase the phase's
//!    makespan.
//! 3. **Correction** — Kernighan-Lin-style refinement: repeatedly apply
//!    the single move or pairwise swap (within one multi-path phase) that
//!    most reduces *measured end-to-end latency*, until no move improves.
//!    Measurement is the list-scheduling core of one
//!    [`CompiledPlan`] of the units, built once per correction and
//!    replayed per candidate move; it prices the CPU↔GPU communication
//!    the greedy step ignored — the paper refines on measured latency
//!    precisely because analytic communication estimates are unreliable
//!    (§IV-C).

pub mod baselines;
pub mod greedy;

use std::borrow::Cow;

use duet_compiler::CompiledSubgraph;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::Graph;
use duet_runtime::{CompiledPlan, Placed, SubgraphProfile};

use crate::partition::PhaseKind;

/// A schedulable unit: one compiled subgraph with its phase context and
/// profiled statistics.
#[derive(Debug, Clone)]
pub struct SubgraphUnit {
    /// Phase index in the partition.
    pub phase: usize,
    /// Whether the phase is sequential or multi-path.
    pub kind: PhaseKind,
    pub sg: CompiledSubgraph,
    pub profile: SubgraphProfile,
}

/// Scheduling policy (§VI-C compares these head-to-head, Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// The paper's algorithm: greedy critical-path placement + correction.
    GreedyCorrection,
    /// Ablation: steps 1-2 only, no correction loop.
    GreedyOnly,
    /// Random device per subgraph.
    Random { seed: u64 },
    /// Alternate CPU/GPU by subgraph index.
    RoundRobin,
    /// Random initialisation followed by the correction loop.
    RandomCorrection { seed: u64 },
    /// Exhaustive search over all placements (NP-hard in general; only
    /// feasible for small subgraph counts — the paper uses it to verify
    /// that greedy-correction finds the optimum).
    Ideal,
    /// §III-A ablation: greedy placement driven by a FLOPs-only cost
    /// proxy instead of compiler-aware profiles (no correction).
    FlopsProxy,
    /// Pin everything to one device.
    Pin(DeviceKind),
}

/// Compute a placement for `units` under `policy`.
pub fn schedule(
    graph: &Graph,
    units: &[SubgraphUnit],
    system: &SystemModel,
    policy: SchedulePolicy,
) -> Vec<DeviceKind> {
    schedule_on(
        || Cow::Owned(unit_plan(graph, units, system)),
        units,
        system,
        policy,
    )
}

/// [`schedule`] against the plan `plan()` yields, asked for only by the
/// policies that measure latency.
pub(crate) fn schedule_on<'p>(
    plan: impl FnOnce() -> Cow<'p, CompiledPlan>,
    units: &[SubgraphUnit],
    system: &SystemModel,
    policy: SchedulePolicy,
) -> Vec<DeviceKind> {
    match policy {
        SchedulePolicy::GreedyCorrection => {
            let init = greedy::greedy_placement(units);
            greedy::correct_on(&plan(), units, init)
        }
        SchedulePolicy::GreedyOnly => greedy::greedy_placement(units),
        SchedulePolicy::Random { seed } => baselines::random(units, seed),
        SchedulePolicy::RoundRobin => baselines::round_robin(units),
        SchedulePolicy::RandomCorrection { seed } => {
            let init = baselines::random(units, seed);
            greedy::correct_on(&plan(), units, init)
        }
        SchedulePolicy::Ideal => baselines::ideal_on(&plan()),
        SchedulePolicy::FlopsProxy => baselines::flops_proxy(units, system),
        SchedulePolicy::Pin(d) => vec![d; units.len()],
    }
}

/// The plan of `units`: their topology, priced on both devices under
/// `system`.
pub(crate) fn unit_plan(
    graph: &Graph,
    units: &[SubgraphUnit],
    system: &SystemModel,
) -> CompiledPlan {
    CompiledPlan::new(graph, units.iter().map(|u| &u.sg), system)
}

/// Turn units + devices into the simulator/executor's `Placed` list.
pub fn to_placed(units: &[SubgraphUnit], devices: &[DeviceKind]) -> Vec<Placed> {
    units
        .iter()
        .zip(devices)
        .map(|(u, &device)| Placed {
            sg: u.sg.clone(),
            device,
        })
        .collect()
}

/// Noise-free end-to-end latency of one placement, pricing each unit on
/// its placed device only. Measuring many placements of the same units
/// is cheaper on one [`unit_plan`].
pub fn placement_latency(
    graph: &Graph,
    units: &[SubgraphUnit],
    system: &SystemModel,
    devices: &[DeviceKind],
) -> f64 {
    CompiledPlan::for_devices(graph, units.iter().map(|u| &u.sg), devices, system).makespan(devices)
}

/// Build scheduling units from a compiled partition and its profiles.
pub fn make_units(
    partition: &crate::Partition,
    subgraphs: Vec<CompiledSubgraph>,
    profiles: Vec<SubgraphProfile>,
) -> Vec<SubgraphUnit> {
    let meta = partition.flat();
    assert_eq!(meta.len(), subgraphs.len());
    assert_eq!(meta.len(), profiles.len());
    meta.into_iter()
        .zip(subgraphs.into_iter().zip(profiles))
        .map(|((phase, kind, _), (sg, profile))| SubgraphUnit {
            phase,
            kind,
            sg,
            profile,
        })
        .collect()
}
