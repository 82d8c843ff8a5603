//! The compiled plan: one derivation of a schedule's topology and
//! prices, and the one list-scheduling core every runtime consumer runs.
//!
//! A [`CompiledPlan`] is built once per (graph, subgraphs, system) and
//! holds everything a run derives from them:
//!
//! * each subgraph's boundary edges — the consumed node, its producing
//!   subgraph (`None` for a host-resident graph input), its bytes, and
//!   its transfer time should the edge cross the device boundary;
//! * each subgraph's distinct producer and consumer subgraphs;
//! * the graph outputs with their producers and D2H prices;
//! * a per-(subgraph, device) execution-time table, filled from the
//!   analytic device model or any caller-supplied cost function (the
//!   tuner's fitted model plugs in here).
//!
//! Nothing in it depends on *where* subgraphs run: a placement is a
//! device vector passed to each call, so one plan prices every candidate
//! of a schedule search. [`CompiledPlan::makespan`] is the noise-free
//! list scheduler — Algorithm 1's `measure_latency`, the tuner's oracle
//! ([`CandidateSim`] is this type), the single-device baselines and
//! `explain` all call it. The simulator ([`crate::simulate`]) runs the
//! same core with noise sampling and an event log hooked in, and the
//! threaded executor dispatches from the same edges and costs. Both
//! engines' witnesses, timelines and transfer accounting are derived
//! from their logs over this plan (module `event_log`). A candidate
//! evaluation is therefore a pure replay over `n` subgraphs: no kernel
//! walks, no hashing, no allocation beyond a few scratch vectors.

use std::collections::HashMap;

use duet_compiler::CompiledSubgraph;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, NodeId, Op};

use crate::event_log::Dispatch;
use crate::sim::{subgraph_exec_time_us, Placed};

/// The tuner's name for a [`CompiledPlan`]: a reusable evaluator of
/// placements over one fixed set of compiled subgraphs.
pub type CandidateSim = CompiledPlan;

/// One boundary input of a subgraph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    /// The graph node whose value crosses the subgraph boundary.
    pub node: NodeId,
    /// Producing subgraph, or `None` for a host-resident graph input.
    pub producer: Option<usize>,
    /// Value slot the producer writes this value to (see
    /// [`CompiledPlan::value_slots`]); `None` for a graph input.
    pub slot: Option<usize>,
    /// Size of the value.
    pub bytes: f64,
    /// Transfer cost if this edge crosses the device boundary, µs.
    pub transfer_us: f64,
}

impl Edge {
    /// Whether this edge crosses the device boundary into a consumer on
    /// `device`, under placement `devices` (graph inputs live on the
    /// host).
    pub(crate) fn crosses(&self, device: DeviceKind, devices: &[DeviceKind]) -> bool {
        match self.producer {
            None => device == DeviceKind::Gpu,
            Some(p) => devices[p] != device,
        }
    }

    /// Transfer time this edge costs a consumer on `device`: its planned
    /// transfer if it crosses the device boundary, 0 otherwise.
    pub(crate) fn transfer_us_into(&self, device: DeviceKind, devices: &[DeviceKind]) -> f64 {
        if self.crosses(device, devices) {
            self.transfer_us
        } else {
            0.0
        }
    }
}

/// One graph output and the subgraph that produces it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Output {
    pub node: NodeId,
    pub producer: usize,
    /// Value slot the producer writes this output to.
    pub slot: Option<usize>,
    pub bytes: f64,
    /// D2H cost, paid when the producer runs on the GPU, µs.
    pub d2h_us: f64,
}

/// A schedule's topology and prices, derived once; see the module docs.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// Boundary inputs per subgraph, in `CompiledSubgraph::inputs` order.
    edges: Vec<Vec<Edge>>,
    /// Distinct producing subgraphs per subgraph.
    deps: Vec<Vec<usize>>,
    /// Distinct consuming subgraphs per subgraph.
    consumers: Vec<Vec<usize>>,
    outputs: Vec<Output>,
    /// Subgraph `i`'s exported values occupy value slots
    /// `value_base[i]..value_base[i + 1]`, in `CompiledSubgraph::outputs`
    /// order.
    value_base: Vec<usize>,
    /// Execution time per (subgraph, device), µs.
    exec_us: Vec<[f64; 2]>,
    /// Execution lanes per device (paper engines run 1).
    lanes: [usize; 2],
    /// Lane-sharing contention penalty per device.
    lane_penalty: [f64; 2],
}

/// The prices the list-scheduling core lets a caller perturb. The
/// defaults leave every price as planned, which is
/// [`CompiledPlan::makespan`].
pub(crate) trait Hooks {
    /// Ready time of a dispatch whose inputs move `bytes > 0` across the
    /// interconnect.
    fn transfer(&mut self, ready_us: f64, _bytes: f64) -> f64 {
        ready_us
    }

    /// Execution time of one dispatch.
    fn compute(&mut self, exec_us: f64) -> f64 {
        exec_us
    }

    /// D2H time of a GPU-produced graph output.
    fn d2h(&mut self, out: &Output) -> f64 {
        out.d2h_us
    }
}

struct Planned;

impl Hooks for Planned {}

fn earliest_lane(free: &[f64]) -> usize {
    free.iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("device has at least one lane")
}

impl CompiledPlan {
    /// Plan over `subgraphs` of `graph`, pricing every subgraph on both
    /// devices with the analytic device model.
    ///
    /// Panics with "schedule does not cover producer of node N" when a
    /// boundary input or graph output has no producing subgraph:
    /// schedules must cover the whole graph (`duet-analysis`'
    /// `lint_schedule` is the typed check).
    pub fn new<'a>(
        graph: &Graph,
        subgraphs: impl IntoIterator<Item = &'a CompiledSubgraph>,
        system: &SystemModel,
    ) -> Self {
        Self::with_exec_time(graph, subgraphs, system, |device, sg| {
            subgraph_exec_time_us(system, device, sg)
        })
    }

    /// [`Self::new`] with a caller-supplied per-(device, subgraph) cost
    /// function. Dependency structure and transfer pricing stay analytic
    /// (PCIe time is a property of the interconnect model, not the
    /// kernel cost model).
    pub fn with_exec_time<'a>(
        graph: &Graph,
        subgraphs: impl IntoIterator<Item = &'a CompiledSubgraph>,
        system: &SystemModel,
        exec_time_us: impl Fn(DeviceKind, &CompiledSubgraph) -> f64,
    ) -> Self {
        Self::derive(graph, subgraphs, system, |_, sg| {
            [
                exec_time_us(DeviceKind::Cpu, sg),
                exec_time_us(DeviceKind::Gpu, sg),
            ]
        })
    }

    /// Plan priced only where `devices` places each subgraph — what one
    /// run of one placement needs. The other device's entry is NaN, so
    /// the plan answers for `devices` alone.
    pub fn for_devices<'a>(
        graph: &Graph,
        subgraphs: impl IntoIterator<Item = &'a CompiledSubgraph>,
        devices: &[DeviceKind],
        system: &SystemModel,
    ) -> Self {
        Self::derive(graph, subgraphs, system, |i, sg| {
            let mut exec = [f64::NAN; 2];
            exec[devices[i] as usize] = subgraph_exec_time_us(system, devices[i], sg);
            exec
        })
    }

    /// [`Self::for_devices`] over a placed schedule.
    pub(crate) fn for_placed(graph: &Graph, placed: &[Placed], system: &SystemModel) -> Self {
        Self::for_devices(
            graph,
            placed.iter().map(|p| &p.sg),
            &devices_of(placed),
            system,
        )
    }

    fn derive<'a>(
        graph: &Graph,
        subgraphs: impl IntoIterator<Item = &'a CompiledSubgraph>,
        system: &SystemModel,
        mut price: impl FnMut(usize, &CompiledSubgraph) -> [f64; 2],
    ) -> Self {
        let subgraphs: Vec<&CompiledSubgraph> = subgraphs.into_iter().collect();
        let n = subgraphs.len();
        let mut producer: HashMap<NodeId, usize> = HashMap::new();
        let mut value_base = Vec::with_capacity(n + 1);
        value_base.push(0);
        for (i, sg) in subgraphs.iter().enumerate() {
            for &id in &sg.node_ids {
                producer.insert(id, i);
            }
            value_base.push(value_base[i] + sg.outputs.len());
        }
        let producer_of = |node: NodeId| -> usize {
            *producer
                .get(&node)
                .unwrap_or_else(|| panic!("schedule does not cover producer of node {node}"))
        };
        let bytes_of = |node: NodeId| graph.node(node).shape.byte_size() as f64;
        let slot_of = |p: usize, node: NodeId| {
            let k = subgraphs[p].outputs.iter().position(|&o| o == node)?;
            Some(value_base[p] + k)
        };

        let mut edges = Vec::with_capacity(n);
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, sg) in subgraphs.iter().enumerate() {
            let mut sg_edges = Vec::with_capacity(sg.inputs.len());
            for &node in &sg.inputs {
                let producer = match graph.node(node).op {
                    Op::Input => None,
                    _ => Some(producer_of(node)),
                };
                if let Some(p) = producer {
                    if !deps[i].contains(&p) {
                        deps[i].push(p);
                        consumers[p].push(i);
                    }
                }
                let bytes = bytes_of(node);
                sg_edges.push(Edge {
                    node,
                    producer,
                    slot: producer.and_then(|p| slot_of(p, node)),
                    bytes,
                    transfer_us: system.transfer_time_us(bytes),
                });
            }
            edges.push(sg_edges);
        }
        let outputs = graph
            .outputs()
            .iter()
            .map(|&node| {
                let bytes = bytes_of(node);
                let producer = producer_of(node);
                Output {
                    node,
                    producer,
                    slot: slot_of(producer, node),
                    bytes,
                    d2h_us: system.transfer_time_us(bytes),
                }
            })
            .collect();
        let exec_us = subgraphs
            .iter()
            .enumerate()
            .map(|(i, sg)| price(i, sg))
            .collect();
        CompiledPlan {
            edges,
            deps,
            consumers,
            outputs,
            value_base,
            exec_us,
            lanes: [system.cpu.lanes.max(1), system.gpu.lanes.max(1)],
            lane_penalty: [system.cpu.lane_penalty(), system.gpu.lane_penalty()],
        }
    }

    /// Number of subgraphs a device vector must cover.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the plan covers no subgraphs.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Execution time of subgraph `i` on `device`, µs.
    pub fn exec_time_us(&self, i: usize, device: DeviceKind) -> f64 {
        self.exec_us[i][device as usize]
    }

    /// Boundary inputs of subgraph `i`.
    pub(crate) fn edges(&self, i: usize) -> &[Edge] {
        &self.edges[i]
    }

    /// Distinct subgraphs that must finish before subgraph `i` starts.
    pub(crate) fn deps(&self, i: usize) -> &[usize] {
        &self.deps[i]
    }

    /// Distinct subgraphs that consume an output of subgraph `i`.
    pub(crate) fn consumers(&self, i: usize) -> &[usize] {
        &self.consumers[i]
    }

    /// The graph outputs with their producers.
    pub(crate) fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// The value slots subgraph `i` writes, one per exported value in
    /// `CompiledSubgraph::outputs` order. A run keeps one value per slot,
    /// so values are found by index, never by hashing a node id.
    pub(crate) fn value_slots(&self, i: usize) -> std::ops::Range<usize> {
        self.value_base[i]..self.value_base[i + 1]
    }

    /// Number of value slots over all subgraphs.
    pub(crate) fn value_slot_count(&self) -> usize {
        self.value_base[self.len()]
    }

    /// Virtual time at which every input of subgraph `i` is resident on
    /// its device, given each producer's finish time.
    pub(crate) fn ready_us(
        &self,
        i: usize,
        devices: &[DeviceKind],
        finish: impl Fn(usize) -> f64,
    ) -> f64 {
        self.edges[i].iter().fold(0.0f64, |ready, e| {
            let produced = e.producer.map_or(0.0, &finish);
            ready.max(produced + e.transfer_us_into(devices[i], devices))
        })
    }

    /// Bytes a dispatch of subgraph `i` moves across the interconnect
    /// under placement `devices`.
    pub(crate) fn moved_bytes(&self, i: usize, devices: &[DeviceKind]) -> f64 {
        self.edges[i]
            .iter()
            .filter(|e| e.crosses(devices[i], devices))
            .map(|e| e.bytes)
            .sum()
    }

    /// Noise-free end-to-end makespan of one placement, µs: all graph
    /// outputs resident on the host.
    pub fn makespan(&self, devices: &[DeviceKind]) -> f64 {
        self.schedule(devices, &mut Planned, None)
    }

    /// The list-scheduling core. Each device runs its subgraphs one per
    /// lane; the next dispatch is the ready subgraph with the earliest
    /// feasible start, ties to the lower index. A subgraph is ready when
    /// its producers have finished and every cross-device input has been
    /// transferred. With a `log`, the `k`-th dispatch is appended to it,
    /// its `Start` and `Finish` committed as events `2k` and `2k + 1`.
    pub(crate) fn schedule(
        &self,
        devices: &[DeviceKind],
        hooks: &mut impl Hooks,
        mut log: Option<&mut Vec<Dispatch>>,
    ) -> f64 {
        let n = self.len();
        assert_eq!(devices.len(), n, "one device per subgraph");
        let mut finish = vec![f64::NAN; n];
        let mut done = vec![false; n];
        let mut free: [Vec<f64>; 2] = [vec![0.0; self.lanes[0]], vec![0.0; self.lanes[1]]];
        for k in 0..n {
            let mut best: Option<(f64, usize, f64)> = None; // (est, idx, ready)
            for i in 0..n {
                if done[i] || self.deps[i].iter().any(|&p| !done[p]) {
                    continue;
                }
                let ready = self.ready_us(i, devices, |p| finish[p]);
                let lanes = &free[devices[i] as usize];
                let est = ready.max(lanes[earliest_lane(lanes)]);
                if best.is_none_or(|(b, ..)| est < b) {
                    best = Some((est, i, ready));
                }
            }
            let (_, i, ready) = best.expect("acyclic schedule always has a ready subgraph");
            let dev = devices[i] as usize;
            let moved = self.moved_bytes(i, devices);
            let ready = if moved > 0.0 {
                hooks.transfer(ready, moved)
            } else {
                ready
            };
            let lanes = &mut free[dev];
            let lane = earliest_lane(lanes);
            let start = ready.max(lanes[lane]);
            // The lane-sharing discount applies only under actual
            // contention: another lane of this device still busy when we
            // dispatch.
            let contended = lanes
                .iter()
                .enumerate()
                .any(|(l, &t)| l != lane && t > start);
            let penalty = if contended {
                self.lane_penalty[dev]
            } else {
                1.0
            };
            let end = start + hooks.compute(self.exec_us[i][dev] * penalty);
            finish[i] = end;
            done[i] = true;
            lanes[lane] = end;
            if let Some(log) = log.as_deref_mut() {
                let seq = 2 * k as u32;
                log.push(Dispatch {
                    sg: i,
                    device: devices[i],
                    start_us: start,
                    end_us: end,
                    start_seq: seq,
                    finish_seq: seq + 1,
                });
            }
        }
        self.outputs.iter().fold(0.0f64, |latency, out| {
            let mut t = finish[out.producer];
            if devices[out.producer] == DeviceKind::Gpu {
                t += hooks.d2h(out);
            }
            latency.max(t)
        })
    }

    /// Critical-path lower bound on the makespan of *any* placement, µs.
    ///
    /// Two classic bounds, both sound for a two-device system, combined
    /// by `max`:
    ///
    /// * **chain bound** — the longest dependency chain through the
    ///   subgraph DAG with every subgraph priced at its *faster* device
    ///   and all transfers ignored (no placement can beat the best
    ///   device on a serial chain);
    /// * **work bound** — total best-device work divided by the system's
    ///   total lane capacity (two on the paper's one-lane-per-device
    ///   server): even perfect overlap cannot finish faster than the
    ///   work spread evenly, and lane sharing only *slows* lanes down
    ///   (`lane_penalty >= 1`), so capacity is an over-estimate and the
    ///   bound stays sound.
    ///
    /// No placement [`Self::makespan`] prices can undercut this, which
    /// makes `makespan / bound` a principled "how far from optimal"
    /// readout (reported in the placement report, linted as `D215` past
    /// 2×) and a stopping signal for schedule search. Needs both devices
    /// priced.
    pub fn critical_path_lower_bound_us(&self) -> f64 {
        let n = self.len();
        let best: Vec<f64> = self
            .exec_us
            .iter()
            .map(|[cpu, gpu]| cpu.min(*gpu))
            .collect();
        // Longest chain ending at each subgraph. Subgraphs are not
        // guaranteed topologically ordered, so iterate to a fixpoint over
        // the DAG (depth bounded by n).
        let mut chain = best.clone();
        for _ in 0..n {
            let mut changed = false;
            for i in 0..n {
                let longest_dep = self.edges[i]
                    .iter()
                    .filter_map(|e| e.producer)
                    .map(|p| chain[p])
                    .fold(0.0f64, f64::max);
                let c = best[i] + longest_dep;
                if c > chain[i] {
                    chain[i] = c;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let chain_bound = chain.iter().copied().fold(0.0f64, f64::max);
        let capacity = (self.lanes[0] + self.lanes[1]) as f64;
        let work_bound = best.iter().sum::<f64>() / capacity;
        chain_bound.max(work_bound)
    }
}

/// The device of each placed subgraph.
pub(crate) fn devices_of(placed: &[Placed]) -> Vec<DeviceKind> {
    placed.iter().map(|p| p.device).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_latency;
    use crate::sim::Placed;
    use duet_compiler::Compiler;
    use duet_ir::GraphBuilder;

    fn branchy() -> Graph {
        let mut b = GraphBuilder::new("branchy", 1);
        let x = b.input("x", vec![1, 512]);
        let l = b.dense("left", x, 1024, Some(Op::Relu)).unwrap();
        let r = b.dense("right", x, 1024, Some(Op::Tanh)).unwrap();
        let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
        let y = b.dense("head", cat, 8, None).unwrap();
        b.finish(&[y]).unwrap()
    }

    fn split(g: &Graph) -> Vec<CompiledSubgraph> {
        let c = Compiler::default();
        let ids = g.compute_ids();
        let by = |prefix: &str| -> Vec<NodeId> {
            ids.iter()
                .copied()
                .filter(|&i| g.node(i).label.starts_with(prefix))
                .collect()
        };
        let rest: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|&i| {
                !g.node(i).label.starts_with("left") && !g.node(i).label.starts_with("right")
            })
            .collect();
        vec![
            c.compile_nodes(g, &by("left"), "left"),
            c.compile_nodes(g, &by("right"), "right"),
            c.compile_nodes(g, &rest, "head"),
        ]
    }

    #[test]
    fn makespan_is_bit_identical_to_measure_latency() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = split(&g);
        let sim = CandidateSim::new(&g, &sgs, &sys);
        for mask in 0u32..8 {
            let devices: Vec<DeviceKind> = (0..3)
                .map(|i| {
                    if mask >> i & 1 == 0 {
                        DeviceKind::Cpu
                    } else {
                        DeviceKind::Gpu
                    }
                })
                .collect();
            let placed: Vec<Placed> = sgs
                .iter()
                .zip(&devices)
                .map(|(sg, &device)| Placed {
                    sg: sg.clone(),
                    device,
                })
                .collect();
            let want = measure_latency(&g, &placed, &sys);
            let got = sim.makespan(&devices);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "mask {mask}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn makespan_matches_under_cpu_lanes() {
        let g = branchy();
        let mut sys = SystemModel::paper_server();
        sys.cpu = sys.cpu.with_lanes(2, 0.7);
        let sgs = split(&g);
        let sim = CandidateSim::new(&g, &sgs, &sys);
        let devices = vec![DeviceKind::Cpu; 3];
        let placed: Vec<Placed> = sgs
            .iter()
            .map(|sg| Placed {
                sg: sg.clone(),
                device: DeviceKind::Cpu,
            })
            .collect();
        let want = measure_latency(&g, &placed, &sys);
        assert_eq!(sim.makespan(&devices).to_bits(), want.to_bits());
    }

    #[test]
    fn custom_exec_table_shifts_makespan() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = split(&g);
        let doubled = CandidateSim::with_exec_time(&g, &sgs, &sys, |d, sg| {
            2.0 * subgraph_exec_time_us(&sys, d, sg)
        });
        let plain = CandidateSim::new(&g, &sgs, &sys);
        let devices = vec![DeviceKind::Cpu; 3];
        assert!(doubled.makespan(&devices) > plain.makespan(&devices));
    }

    #[test]
    #[should_panic(expected = "schedule does not cover producer of node")]
    fn uncovered_producer_panics_at_plan_construction() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        // Without "left", the head's boundary input has no producer.
        let sgs = split(&g);
        CompiledPlan::new(&g, &sgs[1..], &sys);
    }

    #[test]
    #[should_panic(expected = "one device per subgraph")]
    fn wrong_arity_rejected() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = split(&g);
        CandidateSim::new(&g, &sgs, &sys).makespan(&[DeviceKind::Cpu]);
    }
}
