//! Deterministic virtual-clock simulation of a placed schedule.
//!
//! Given subgraphs with device placements, the simulator plays out the
//! execution the paper's engine (Fig. 9) would perform:
//!
//! * each device runs its assigned subgraphs **sequentially** (footnote 2:
//!   one subgraph at a time per device), picking the ready subgraph with
//!   the earliest feasible start;
//! * a subgraph becomes ready when all producer subgraphs finish, plus
//!   PCIe transfer latency for every value that crosses devices (graph
//!   inputs are host-resident: free for the CPU, one H2D transfer for the
//!   GPU; outputs produced on the GPU pay one D2H transfer);
//! * optional noise models perturb each execution and transfer, giving
//!   the tail-latency distributions of Fig. 12.
//!
//! The event loop is not here: a simulation is the list-scheduling core
//! of [`CompiledPlan`] with noise sampling ([`SimNoise`]) hooked in,
//! writing the run's event log. The timeline, transferred bytes and
//! witness are derived from that log after the run (module `event_log`). With noise disabled the latency is
//! bit-identical to [`CompiledPlan::makespan`] by construction, which
//! is also the scheduler's `measure_latency` oracle in the correction
//! step (Algorithm 1, step 3) — the paper refines placements by
//! *measured end-to-end latency* rather than analytic formulas, and so
//! does `duet-core`.

use duet_compiler::CompiledSubgraph;
use duet_device::{DeviceKind, NoiseModel, SystemModel};
use duet_ir::Graph;

use crate::candidate::{devices_of, CompiledPlan, Hooks, Output};
use crate::event_log::Run;
use crate::witness::{ExecutionWitness, WitnessSource};

/// A subgraph with its device assignment.
#[derive(Debug, Clone)]
pub struct Placed {
    pub sg: CompiledSubgraph,
    pub device: DeviceKind,
}

/// Execution time of a compiled subgraph on one device: the sum of its
/// fused kernels' times, each priced individually.
///
/// Summing per kernel (not pricing one merged profile) matters: a merged
/// profile FLOPs-averages parallelism, which would let a wide convolution
/// mask the low occupancy of the launch-bound LSTM kernels sharing the
/// subgraph — exactly the distinction the paper's per-subgraph profiling
/// exists to expose.
pub fn subgraph_exec_time_us(
    system: &SystemModel,
    device: DeviceKind,
    sg: &CompiledSubgraph,
) -> f64 {
    sg.kernels
        .iter()
        .map(|k| system.exec_time_us(device, &k.cost))
        .sum()
}

/// One executed subgraph in the simulated timeline.
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    pub name: String,
    pub device: DeviceKind,
    pub start_us: f64,
    pub end_us: f64,
}

/// Simulation output.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end latency: all graph outputs resident on the host.
    pub latency_us: f64,
    /// Per-subgraph execution intervals (Fig. 4-style timeline).
    pub timeline: Vec<TimelineEntry>,
    /// Total bytes moved across the interconnect.
    pub transferred_bytes: f64,
}

/// Per-run noise sources for the simulator.
#[derive(Debug, Clone)]
pub struct SimNoise {
    pub compute: NoiseModel,
    pub transfer: NoiseModel,
}

impl SimNoise {
    /// Deterministic (noise-free) simulation.
    pub fn disabled() -> Self {
        SimNoise {
            compute: NoiseModel::disabled(),
            transfer: NoiseModel::disabled(),
        }
    }

    /// Seeded realistic noise (compute jitter + PCIe contention spikes).
    pub fn seeded(seed: u64) -> Self {
        SimNoise {
            compute: NoiseModel::new(seed),
            transfer: NoiseModel::interconnect(seed ^ 0xfeed),
        }
    }
}

/// Simulate a placed schedule. Panics with "schedule does not cover
/// producer of node N" if a boundary input's producer is not covered by
/// `placed` — schedules must cover the whole graph.
pub fn simulate(
    graph: &Graph,
    placed: &[Placed],
    system: &SystemModel,
    noise: &mut SimNoise,
) -> SimResult {
    simulated(graph, placed, system, noise, false).0
}

/// [`simulate`] with its witness sealed next to the result.
///
/// Witnesses are meant for conformance checking, which models noise-free
/// clocks; pass [`SimNoise::disabled`] when the witness will be checked.
pub fn simulate_witnessed(
    graph: &Graph,
    placed: &[Placed],
    system: &SystemModel,
    noise: &mut SimNoise,
) -> (SimResult, ExecutionWitness) {
    let (result, witness) = simulated(graph, placed, system, noise, true);
    (result, witness.expect("witness requested"))
}

/// One simulated run, and its witness if `witnessed`.
fn simulated(
    graph: &Graph,
    placed: &[Placed],
    system: &SystemModel,
    noise: &mut SimNoise,
    witnessed: bool,
) -> (SimResult, Option<ExecutionWitness>) {
    let plan = CompiledPlan::for_placed(graph, placed, system);
    let devices = devices_of(placed);
    let mut log = Vec::with_capacity(placed.len());
    let latency_us = plan.schedule(&devices, noise, Some(&mut log));
    let run = Run {
        plan: &plan,
        placed,
        devices: &devices,
        log: &log,
    };
    let result = SimResult {
        latency_us,
        timeline: run.timeline(),
        transferred_bytes: run.transferred_bytes(),
    };
    let witness = witnessed.then(|| run.witness(&graph.name, WitnessSource::Simulator, latency_us));
    (result, witness)
}

impl CompiledPlan {
    /// End-to-end latency of one noisy run of a placement, µs. Noise is
    /// drawn in dispatch order: one transfer draw when a dispatch's
    /// inputs move bytes, one compute draw per dispatch, then one D2H
    /// draw per GPU-produced output.
    pub fn sample(&self, devices: &[DeviceKind], noise: &mut SimNoise) -> f64 {
        self.schedule(devices, noise, None)
    }
}

/// Noise hooks: transfer noise stretches readiness, compute noise
/// stretches execution.
impl Hooks for SimNoise {
    fn transfer(&mut self, ready_us: f64, _bytes: f64) -> f64 {
        ready_us * self.transfer.multiplier()
    }

    fn compute(&mut self, exec_us: f64) -> f64 {
        self.compute.sample(exec_us)
    }

    fn d2h(&mut self, out: &Output) -> f64 {
        out.d2h_us * self.transfer.multiplier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_compiler::Compiler;
    use duet_ir::{GraphBuilder, Op};

    /// Two independent dense branches joined by a concat head. The
    /// branches are wide enough (tens of microseconds) that cross-device
    /// overlap is visible past the ~10 us H2D transfer.
    fn branchy() -> Graph {
        let mut b = GraphBuilder::new("branchy", 1);
        let x = b.input("x", vec![1, 2048]);
        let l = b.dense("left", x, 4096, Some(Op::Relu)).unwrap();
        let r = b.dense("right", x, 4096, Some(Op::Tanh)).unwrap();
        let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
        let y = b.dense("head", cat, 8, None).unwrap();
        b.finish(&[y]).unwrap()
    }

    fn three_way_split(g: &Graph) -> Vec<CompiledSubgraph> {
        let c = Compiler::default();
        let ids = g.compute_ids();
        // left = {1st dense+act}, right = {2nd dense+act}, head = rest.
        let left: Vec<_> = ids
            .iter()
            .copied()
            .filter(|&i| g.node(i).label.starts_with("left"))
            .collect();
        let right: Vec<_> = ids
            .iter()
            .copied()
            .filter(|&i| g.node(i).label.starts_with("right"))
            .collect();
        let head: Vec<_> = ids
            .iter()
            .copied()
            .filter(|&i| {
                !g.node(i).label.starts_with("left") && !g.node(i).label.starts_with("right")
            })
            .collect();
        vec![
            c.compile_nodes(g, &left, "left"),
            c.compile_nodes(g, &right, "right"),
            c.compile_nodes(g, &head, "head"),
        ]
    }

    #[test]
    fn single_device_latency_is_sum_of_subgraphs() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        let placed: Vec<Placed> = sgs
            .iter()
            .map(|sg| Placed {
                sg: sg.clone(),
                device: DeviceKind::Cpu,
            })
            .collect();
        let r = simulate(&g, &placed, &sys, &mut SimNoise::disabled());
        let sum: f64 = sgs
            .iter()
            .map(|s| subgraph_exec_time_us(&sys, DeviceKind::Cpu, s))
            .sum();
        assert!((r.latency_us - sum).abs() < 1e-9);
        assert_eq!(r.transferred_bytes, 0.0);
    }

    #[test]
    fn parallel_branches_overlap_across_devices() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        let both_cpu: Vec<Placed> = sgs
            .iter()
            .map(|sg| Placed {
                sg: sg.clone(),
                device: DeviceKind::Cpu,
            })
            .collect();
        let mut split = both_cpu.clone();
        split[1].device = DeviceKind::Gpu;
        let seq = simulate(&g, &both_cpu, &sys, &mut SimNoise::disabled());
        let par = simulate(&g, &split, &sys, &mut SimNoise::disabled());
        // The branch subgraphs overlap in time in the split schedule.
        let l = par.timeline.iter().find(|t| t.name == "left").unwrap();
        let r = par.timeline.iter().find(|t| t.name == "right").unwrap();
        assert!(
            l.start_us < r.end_us && r.start_us < l.end_us,
            "branches overlap"
        );
        // And transfers were paid.
        assert!(par.transferred_bytes > 0.0);
        let _ = seq;
    }

    #[test]
    fn dependencies_are_respected() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        for devices in [
            [DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Cpu],
            [DeviceKind::Gpu, DeviceKind::Gpu, DeviceKind::Gpu],
            [DeviceKind::Gpu, DeviceKind::Cpu, DeviceKind::Gpu],
        ] {
            let placed: Vec<Placed> = sgs
                .iter()
                .zip(devices)
                .map(|(sg, device)| Placed {
                    sg: sg.clone(),
                    device,
                })
                .collect();
            let r = simulate(&g, &placed, &sys, &mut SimNoise::disabled());
            let head = r.timeline.iter().find(|t| t.name == "head").unwrap();
            for branch in ["left", "right"] {
                let b = r.timeline.iter().find(|t| t.name == branch).unwrap();
                assert!(
                    b.end_us <= head.start_us,
                    "{branch} finishes before head starts"
                );
            }
        }
    }

    #[test]
    fn gpu_placement_pays_host_transfers() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let c = Compiler::default();
        let whole = c.compile_whole(&g, "whole");
        let gpu = simulate(
            &g,
            &[Placed {
                sg: whole.clone(),
                device: DeviceKind::Gpu,
            }],
            &sys,
            &mut SimNoise::disabled(),
        );
        let exec = subgraph_exec_time_us(&sys, DeviceKind::Gpu, &whole);
        // H2D for x + D2H for output.
        assert!(gpu.latency_us > exec, "{} > {}", gpu.latency_us, exec);
        assert!(gpu.transferred_bytes > 0.0);
    }

    #[test]
    fn noise_disabled_is_deterministic() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        let placed: Vec<Placed> = sgs
            .iter()
            .map(|sg| Placed {
                sg: sg.clone(),
                device: DeviceKind::Cpu,
            })
            .collect();
        let a = simulate(&g, &placed, &sys, &mut SimNoise::disabled()).latency_us;
        let b = simulate(&g, &placed, &sys, &mut SimNoise::disabled()).latency_us;
        assert_eq!(a, b);
    }

    #[test]
    fn noisy_latency_at_least_spreads() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        let placed: Vec<Placed> = sgs
            .iter()
            .map(|sg| Placed {
                sg: sg.clone(),
                device: DeviceKind::Cpu,
            })
            .collect();
        let mut noise = SimNoise::seeded(1);
        let samples: Vec<f64> = (0..50)
            .map(|_| simulate(&g, &placed, &sys, &mut noise).latency_us)
            .collect();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max > min);
    }

    #[test]
    fn latency_bounded_by_critical_path_and_serial_sum() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        let placed: Vec<Placed> = sgs
            .iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg: sg.clone(),
                device: if i == 1 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let r = simulate(&g, &placed, &sys, &mut SimNoise::disabled());
        let times: Vec<f64> = placed
            .iter()
            .map(|p| subgraph_exec_time_us(&sys, p.device, &p.sg))
            .collect();
        // Lower bound: the longest single chain (left->head here).
        let lower = times[0].max(times[1]) + times[2];
        // Upper bound: serial sum plus all transfers ever paid.
        let upper: f64 = times.iter().sum::<f64>()
            + r.transferred_bytes / (sys.transfer.bandwidth_gbps * 1e3)
            + 10.0 * sys.transfer.latency_us;
        assert!(r.latency_us >= lower - 1e-9, "{} >= {lower}", r.latency_us);
        assert!(r.latency_us <= upper, "{} <= {upper}", r.latency_us);
    }
}
