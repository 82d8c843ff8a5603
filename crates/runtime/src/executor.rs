//! The heterogeneous execution engine (§IV-D, Fig. 9).
//!
//! Once a schedule is decided, DUET instantiates an executor with one
//! worker per device. Each worker runs a loop over its own synchronization
//! queue: it polls for ready subgraphs, executes them, and triggers the
//! subgraphs that depend on the results. The paper uses two long-lived
//! child processes with a shared-memory queue. Here the workers are
//! threads, and neither is spawned per run: the calling thread runs the
//! CPU worker's loop itself, and one process-wide GPU worker thread
//! (module `gpu_worker`) runs the GPU loop as a job, only for runs whose
//! plan places a subgraph on the GPU. The queues are per-run channels
//! (the vendored crossbeam stand-in: a `Mutex`-guarded deque and a
//! `Condvar`). Values cross subgraphs through write-once slots indexed
//! by the plan, one per exported value — same architecture, same
//! dependency-triggered dataflow.
//!
//! The executor computes *real tensors* (host numerics for both devices)
//! while also maintaining the virtual clock of the device models, so a run
//! yields both verifiable outputs and the latency the modeled hardware
//! would have achieved.
//!
//! Per dispatch a worker does four things: receive, compute, write the
//! subgraph's record in the run's event log (module `event_log`) and
//! trigger its consumers. The log stamps each `Start` and `Finish` with
//! its commit order. Everything else a run reports — the task counts,
//! the [`ExecBreakdown`], the telemetry spans and, for
//! [`HeterogeneousExecutor::run_witnessed`], the `D3xx`-checkable
//! [`ExecutionWitness`] — is derived from that log after the workers
//! stop. For race hunting, [`DelayInjection`] makes each worker sleep a
//! seeded random interval before every dispatch and again between its
//! work and its `Finish` stamp, perturbing the real thread interleaving
//! without changing what a correct run may produce.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Once, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use duet_compiler::ArenaPool;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, GraphError, NodeId};
use duet_tensor::Tensor;
use parking_lot::Mutex;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::candidate::{devices_of, CompiledPlan};
use crate::event_log::{Dispatch, Run};
use crate::gpu_worker;
use crate::sim::Placed;
use crate::witness::{DelayInjection, ExecutionWitness, WitnessRecorder, WitnessSource};

/// Virtual-time decomposition of one run: where the modeled hardware
/// spent its microseconds. Busy times are summed per device (they can
/// overlap in wall terms — the two workers run concurrently — so the
/// three parts bound, rather than partition, the virtual latency); the
/// attribution layer in `duet-serve` uses their *ratios* to split a
/// measured wall interval into per-device compute and transfer shares.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecBreakdown {
    /// Summed virtual execution time of CPU-placed subgraphs, µs.
    pub cpu_busy_us: f64,
    /// Summed virtual execution time of GPU-placed subgraphs, µs.
    pub gpu_busy_us: f64,
    /// Summed virtual interconnect time (H2D + D2D + final D2H), µs.
    pub transfer_us: f64,
}

impl ExecBreakdown {
    /// Total accounted virtual time across all three parts.
    pub fn total_us(&self) -> f64 {
        self.cpu_busy_us + self.gpu_busy_us + self.transfer_us
    }
}

/// Result of one heterogeneous inference.
#[derive(Debug)]
pub struct ExecutionOutcome {
    /// Values of the graph outputs, keyed by node id. Empty for
    /// virtual-clock-only runs ([`HeterogeneousExecutor::run_virtual`]).
    pub outputs: HashMap<NodeId, Tensor>,
    /// End-to-end latency on the modeled hardware, microseconds.
    pub virtual_latency_us: f64,
    /// Wall-clock time of the host-side numeric execution (not the metric
    /// the paper reports — the virtual latency is — but useful for
    /// harness sanity checks).
    pub wall_time: Duration,
    /// How many subgraphs each device executed.
    pub tasks_per_device: HashMap<DeviceKind, usize>,
    /// Virtual-time decomposition of the run.
    pub breakdown: ExecBreakdown,
    /// Causally-linked spans of this run (run → subgraph → kernel),
    /// populated only when [`HeterogeneousExecutor::with_trace`] set a
    /// context. Independent of the global ring and of
    /// `duet_telemetry::enabled()`, so the flight recorder sees a
    /// complete tree even with span recording off.
    pub trace_spans: Vec<duet_telemetry::Span>,
}

enum Msg {
    Run(usize),
    Stop,
}

/// Two-worker dependency-triggered executor for a placed schedule.
pub struct HeterogeneousExecutor<'g> {
    graph: &'g Graph,
    placed: &'g [Placed],
    /// Topology and prices of `placed`, derived once per executor (or
    /// borrowed from the engine that owns them), never per run.
    plan: Cow<'g, CompiledPlan>,
    devices: Vec<DeviceKind>,
    delays: Option<DelayInjection>,
    pool: Option<&'g ArenaPool>,
    trace: Option<duet_telemetry::TraceContext>,
    /// Mutant switch for the interleaving suite; see
    /// [`HeterogeneousExecutor::with_finish_after_trigger`].
    finish_after_trigger: bool,
}

/// Inter-op worker threads the executor runs: one per device (CPU, GPU).
/// The CPU worker is each run's calling thread and the GPU worker one
/// process-wide thread, so a run occupies at most two threads at once.
pub const DEVICE_WORKERS: usize = 2;

impl<'g> HeterogeneousExecutor<'g> {
    /// Create an executor over a placed schedule, pricing each subgraph
    /// once on its placed device under `system`.
    ///
    /// Also pins the global kernel pool the first time any executor is
    /// built: intra-op data parallelism gets `available_parallelism() -
    /// DEVICE_WORKERS` threads (floored at 1), so kernel lanes and the two
    /// device workers together never oversubscribe the machine. The pool
    /// is process-wide and sized once — concurrent executors share it.
    ///
    /// Panics with "schedule does not cover producer of node N" when
    /// `placed` leaves a boundary producer uncovered.
    pub fn new(graph: &'g Graph, placed: &'g [Placed], system: SystemModel) -> Self {
        let plan = CompiledPlan::for_placed(graph, placed, &system);
        Self::over(graph, placed, Cow::Owned(plan))
    }

    /// Create an executor that borrows an existing plan of `placed`
    /// (priced at least on each subgraph's placed device) instead of
    /// deriving one.
    pub fn with_plan(graph: &'g Graph, placed: &'g [Placed], plan: &'g CompiledPlan) -> Self {
        Self::over(graph, placed, Cow::Borrowed(plan))
    }

    fn over(graph: &'g Graph, placed: &'g [Placed], plan: Cow<'g, CompiledPlan>) -> Self {
        assert_eq!(
            plan.len(),
            placed.len(),
            "one planned subgraph per placement"
        );
        static KERNEL_POOL_SIZED: Once = Once::new();
        KERNEL_POOL_SIZED.call_once(|| {
            let hw = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            rayon::configure(hw.saturating_sub(DEVICE_WORKERS).max(1));
        });
        HeterogeneousExecutor {
            graph,
            placed,
            devices: devices_of(placed),
            plan,
            delays: None,
            pool: None,
            trace: None,
            finish_after_trigger: false,
        }
    }

    /// Inject seeded random wall-clock delays before every dispatch and
    /// before every `Finish` stamp (interleaving stress testing; virtual
    /// clocks are unaffected).
    pub fn with_delays(mut self, delays: DelayInjection) -> Self {
        self.delays = Some(delays);
        self
    }

    /// A known-wrong executor for mutation tests, not for use: each
    /// dispatch stamps its `Finish` (and takes the delay before it)
    /// only *after* triggering its consumers, so a consumer on the other
    /// device can start before its producer has finished. The
    /// interleaving suite checks that delay injection exposes this to
    /// the `D3xx` witness checker.
    #[doc(hidden)]
    pub fn with_finish_after_trigger(mut self) -> Self {
        self.finish_after_trigger = true;
        self
    }

    /// Check tape arenas out of `pool` instead of allocating slot slabs
    /// per run — the steady-state serving path.
    pub fn with_arena_pool(mut self, pool: &'g ArenaPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Link this run into a causal trace: the run span becomes a child
    /// of `parent`, each subgraph dispatch a child of the run span, and
    /// each kernel-tape execution a child of its dispatch. The linked
    /// spans go to the global ring *and* come back in
    /// [`ExecutionOutcome::trace_spans`].
    pub fn with_trace(mut self, parent: duet_telemetry::TraceContext) -> Self {
        self.trace = Some(parent);
        self
    }

    /// Execute one inference with the given input feeds.
    pub fn run(&self, feeds: &HashMap<NodeId, Tensor>) -> Result<ExecutionOutcome, GraphError> {
        Ok(self.run_inner(Some(feeds))?.0)
    }

    /// Execute one inference and return its witness next to the outcome.
    pub fn run_witnessed(
        &self,
        feeds: &HashMap<NodeId, Tensor>,
    ) -> Result<(ExecutionOutcome, ExecutionWitness), GraphError> {
        let (outcome, log) = self.run_inner(Some(feeds))?;
        let witness = self.witness(&log, outcome.virtual_latency_us);
        Ok((outcome, witness))
    }

    /// Drive the full two-worker machinery — queues, triggers, virtual
    /// clocks — without computing any tensor numerics. `outputs` comes
    /// back empty; everything else (latency, task counts, witness
    /// events) is as a real run would produce. This makes the threaded
    /// engine's *scheduling* behavior testable on paper-size models in
    /// milliseconds. The run's witness events go to `recorder`, if any.
    pub fn run_virtual(
        &self,
        recorder: Option<&WitnessRecorder>,
    ) -> Result<ExecutionOutcome, GraphError> {
        let (outcome, log) = self.run_inner(None)?;
        if let Some(rec) = recorder {
            rec.record_all(self.witness(&log, outcome.virtual_latency_us).events);
        }
        Ok(outcome)
    }

    fn over_log<'a>(&'a self, log: &'a [Dispatch]) -> Run<'a> {
        Run {
            plan: &self.plan,
            placed: self.placed,
            devices: &self.devices,
            log,
        }
    }

    fn witness(&self, log: &[Dispatch], latency_us: f64) -> ExecutionWitness {
        self.over_log(log)
            .witness(&self.graph.name, WitnessSource::Executor, latency_us)
    }

    /// One run: its outcome and its event log in `Finish` commit order.
    fn run_inner(
        &self,
        feeds: Option<&HashMap<NodeId, Tensor>>,
    ) -> Result<(ExecutionOutcome, Vec<Dispatch>), GraphError> {
        let wall_start = Instant::now();
        let plan = &*self.plan;
        let (cpu_tx, cpu_rx) = unbounded::<Msg>();
        let (gpu_tx, gpu_rx) = unbounded::<Msg>();
        let state = RunState {
            exec: self,
            feeds,
            // One slot per subgraph: its producers still running, and its
            // log record (whose `end_us` is what consumers' readiness reads).
            slots: (0..self.placed.len())
                .map(|i| Slot {
                    pending: AtomicUsize::new(plan.deps(i).len()),
                    dispatch: Mutex::new(Dispatch {
                        sg: i,
                        device: self.devices[i],
                        start_us: 0.0,
                        end_us: 0.0,
                        start_seq: 0,
                        finish_seq: 0,
                    }),
                })
                .collect(),
            values: (0..plan.value_slot_count())
                .map(|_| OnceLock::new())
                .collect(),
            seq: AtomicU32::new(0),
            error: Mutex::new(None),
            done: AtomicUsize::new(0),
            queues: [cpu_tx, gpu_tx],
        };

        // Seed the queues with dependency-free subgraphs.
        for (i, &device) in self.devices.iter().enumerate() {
            if plan.deps(i).is_empty() {
                state.send(device, i);
            }
        }
        // The caller is the CPU worker; the GPU worker joins only when
        // the plan gives it work.
        if self.devices.contains(&DeviceKind::Gpu) {
            gpu_worker::join(
                || state.device_loop(DeviceKind::Gpu, &gpu_rx),
                || state.device_loop(DeviceKind::Cpu, &cpu_rx),
            );
        } else {
            state.device_loop(DeviceKind::Cpu, &cpu_rx);
        }

        let RunState {
            slots,
            values,
            error,
            ..
        } = state;
        if let Some(e) = error.into_inner() {
            return Err(e);
        }

        // Collect outputs; the latency includes the D2H of GPU outputs.
        let mut log: Vec<Dispatch> = slots.into_iter().map(|s| s.dispatch.into_inner()).collect();
        let mut outputs = HashMap::new();
        let mut latency = 0.0f64;
        for out in plan.outputs() {
            let mut t = log[out.producer].end_us;
            if self.devices[out.producer] == DeviceKind::Gpu {
                t += out.d2h_us;
            }
            latency = latency.max(t);
            if feeds.is_some() {
                let v = out
                    .slot
                    .and_then(|s| values[s].get().cloned())
                    .ok_or(GraphError::MissingFeed(out.node))?;
                outputs.insert(out.node, v);
            }
        }

        log.sort_unstable_by_key(|d| d.finish_seq);
        let run = self.over_log(&log);
        let tasks_per_device = run.tasks_per_device();
        duet_telemetry::registry::EXEC_SUBGRAPHS_CPU.add(tasks_per_device[&DeviceKind::Cpu] as u64);
        duet_telemetry::registry::EXEC_SUBGRAPHS_GPU.add(tasks_per_device[&DeviceKind::Gpu] as u64);
        duet_telemetry::registry::EXEC_RUNS.inc();
        let mut trace_spans = Vec::new();
        if self.trace.is_some() || duet_telemetry::enabled() {
            run.spans(self.trace, latency, |span| {
                duet_telemetry::publish_span(&span);
                if self.trace.is_some() {
                    let seq = trace_spans.len() as u64;
                    trace_spans.push(duet_telemetry::Span { seq, ..span });
                }
            });
        }
        let outcome = ExecutionOutcome {
            outputs,
            virtual_latency_us: latency,
            wall_time: wall_start.elapsed(),
            tasks_per_device,
            breakdown: run.breakdown(),
            trace_spans,
        };
        Ok((outcome, log))
    }
}

/// One subgraph's state during a run. Both fields share one slot so a
/// run allocates one vector for them, not two.
struct Slot {
    /// Producers that have not finished yet.
    pending: AtomicUsize,
    dispatch: Mutex<Dispatch>,
}

/// What the two device loops of one run share.
struct RunState<'r, 'g> {
    exec: &'r HeterogeneousExecutor<'g>,
    /// `None` for a virtual-clock-only run.
    feeds: Option<&'r HashMap<NodeId, Tensor>>,
    slots: Vec<Slot>,
    /// One per exported value ([`CompiledPlan::value_slots`]). A producer
    /// fills its slots before it triggers any consumer, and a consumer
    /// reads them only after its trigger, so a write-once cell suffices:
    /// no lock, no map.
    values: Vec<OnceLock<Tensor>>,
    /// Commit order of the log's events. A single atomic's modification
    /// order agrees with happens-before, so a producer's `Finish`
    /// (stamped before it triggers) always precedes its consumers'
    /// `Start`s (stamped after they receive the trigger).
    seq: AtomicU32,
    /// The first error; a second worker failing while the run shuts
    /// down must not mask the original cause.
    error: Mutex<Option<GraphError>>,
    /// Subgraphs finished so far.
    done: AtomicUsize,
    /// Each device's queue, indexed by `DeviceKind as usize`.
    queues: [Sender<Msg>; 2],
}

impl RunState<'_, '_> {
    fn send(&self, device: DeviceKind, i: usize) {
        self.queues[device as usize]
            .send(Msg::Run(i))
            .expect("queue open");
    }

    fn stop_all(&self) {
        for q in &self.queues {
            let _ = q.send(Msg::Stop);
        }
    }

    /// One device's worker loop: poll its own queue, execute, log,
    /// trigger consumers, until a `Stop` arrives.
    fn device_loop(&self, device: DeviceKind, queue: &Receiver<Msg>) {
        // A loop that unwinds stops the other one, so neither side of
        // `gpu_worker::join` waits forever on a trigger that never comes.
        let _unwind = StopOnUnwind(self);
        let plan = &*self.exec.plan;
        let devices = &self.exec.devices;
        let mut delays = self.exec.delays.map(|d| {
            let rng = SmallRng::seed_from_u64(d.seed ^ (0xD1CE << device as u64));
            (d.max_us, rng)
        });
        let mut pause = || {
            if let Some((max_us, rng)) = delays.as_mut() {
                std::thread::sleep(Duration::from_micros(rng.gen_range(0..*max_us + 1)));
            }
        };
        let mut device_time = 0.0f64;
        while let Ok(Msg::Run(i)) = queue.recv() {
            pause();
            // Virtual readiness: producers' finish + transfers.
            let ready = plan.ready_us(i, devices, |p| self.slots[p].dispatch.lock().end_us);
            let start = ready.max(device_time);
            let start_seq = self.seq.fetch_add(1, Ordering::Relaxed);
            if let Some(feeds) = self.feeds {
                if let Err(e) = self.compute(i, feeds) {
                    self.error.lock().get_or_insert(e);
                    self.stop_all();
                    return;
                }
            }
            device_time = start + plan.exec_time_us(i, device);
            let mut finish = || {
                pause();
                let mut d = self.slots[i].dispatch.lock();
                d.start_us = start;
                d.end_us = device_time;
                d.start_seq = start_seq;
                d.finish_seq = self.seq.fetch_add(1, Ordering::Relaxed);
            };
            if self.exec.finish_after_trigger {
                self.trigger(i);
                finish();
            } else {
                finish();
                self.trigger(i);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.slots.len() {
                self.stop_all();
            }
        }
    }

    /// Real numerics on the host: feed subgraph `i` its boundary inputs
    /// and fill its value slots.
    fn compute(&self, i: usize, feeds: &HashMap<NodeId, Tensor>) -> Result<(), GraphError> {
        let plan = &*self.exec.plan;
        let sg = &self.exec.placed[i].sg;
        let env: HashMap<NodeId, Tensor> = plan
            .edges(i)
            .iter()
            .filter_map(|e| {
                match e.slot {
                    Some(s) => self.values[s].get(),
                    None => feeds.get(&e.node),
                }
                .map(|t| (e.node, t.clone()))
            })
            .collect();
        let mut outs = match self.exec.pool {
            Some(pool) => {
                let mut arena = pool.checkout(&sg.tape);
                let r = sg.execute_with_arena(&env, &mut arena);
                pool.give_back(arena);
                r
            }
            None => sg.execute(self.exec.graph, &env),
        }?;
        for (slot, node) in plan.value_slots(i).zip(&sg.outputs) {
            if let Some(t) = outs.remove(node) {
                self.values[slot]
                    .set(t)
                    .expect("each value slot is written once");
            }
        }
        Ok(())
    }

    /// Queue every consumer whose last dependency `i` was.
    fn trigger(&self, i: usize) {
        for &c in self.exec.plan.consumers(i) {
            if self.slots[c].pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.send(self.exec.devices[c], c);
            }
        }
    }
}

struct StopOnUnwind<'a>(&'a RunState<'a, 'a>);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_latency;
    use crate::witness::{TransferKind, WitnessEvent};
    use duet_compiler::Compiler;
    use duet_ir::{GraphBuilder, Op};
    use duet_models::{input_feeds, siamese, SiameseConfig};

    fn branchy() -> Graph {
        let mut b = GraphBuilder::new("branchy", 1);
        let x = b.input("x", vec![1, 32]);
        let l = b.dense("left", x, 32, Some(Op::Relu)).unwrap();
        let r = b.dense("right", x, 32, Some(Op::Tanh)).unwrap();
        let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
        let y = b.dense("head", cat, 4, None).unwrap();
        b.finish(&[y]).unwrap()
    }

    fn split(g: &Graph, prefixes: &[&str]) -> Vec<duet_compiler::CompiledSubgraph> {
        let c = Compiler::default();
        let mut used: Vec<NodeId> = Vec::new();
        let mut sgs = Vec::new();
        for p in prefixes {
            let ids: Vec<NodeId> = g
                .compute_ids()
                .into_iter()
                .filter(|&i| g.node(i).label.starts_with(p))
                .collect();
            used.extend(&ids);
            sgs.push(c.compile_nodes(g, &ids, *p));
        }
        let rest: Vec<NodeId> = g
            .compute_ids()
            .into_iter()
            .filter(|i| !used.contains(i))
            .collect();
        if !rest.is_empty() {
            sgs.push(c.compile_nodes(g, &rest, "rest"));
        }
        sgs
    }

    #[test]
    fn heterogeneous_run_matches_reference_eval() {
        let g = branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i % 2 == 0 {
                    DeviceKind::Cpu
                } else {
                    DeviceKind::Gpu
                },
            })
            .collect();
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let feeds = input_feeds(&g, 5);
        let out = exec.run(&feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        let got = &out.outputs[&g.outputs()[0]];
        assert!(got.approx_eq(&want[0], 1e-5));
        assert_eq!(out.tasks_per_device[&DeviceKind::Cpu], 2);
        assert_eq!(out.tasks_per_device[&DeviceKind::Gpu], 1);
    }

    #[test]
    fn virtual_latency_close_to_simulator() {
        let g = branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 1 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let sys = SystemModel::paper_server();
        let sim_lat = measure_latency(&g, &placed, &sys);
        let exec = HeterogeneousExecutor::new(&g, &placed, sys);
        let out = exec.run(&input_feeds(&g, 1)).unwrap();
        // The threaded engine may serialize same-device work in a slightly
        // different (still valid) order; latencies agree within 20%.
        let rel = (out.virtual_latency_us - sim_lat).abs() / sim_lat;
        assert!(
            rel < 0.2,
            "threaded {} vs sim {sim_lat}",
            out.virtual_latency_us
        );
    }

    #[test]
    fn single_device_run_works() {
        let g = branchy();
        let c = Compiler::default();
        let whole = c.compile_whole(&g, "whole");
        let placed = vec![Placed {
            sg: whole,
            device: DeviceKind::Gpu,
        }];
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let feeds = input_feeds(&g, 2);
        let out = exec.run(&feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        assert!(out.outputs[&g.outputs()[0]].approx_eq(&want[0], 1e-5));
        assert_eq!(out.tasks_per_device[&DeviceKind::Cpu], 0);
    }

    #[test]
    fn siamese_split_across_devices_is_numerically_exact() {
        let g = siamese(&SiameseConfig::small());
        let sgs = split(&g, &["query", "passage"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 0 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let feeds = input_feeds(&g, 3);
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let out = exec.run(&feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        // Same host kernels run in both paths: results are bit-identical.
        assert_eq!(out.outputs[&g.outputs()[0]], want[0]);
    }

    #[test]
    fn missing_feed_surfaces_as_error() {
        let g = branchy();
        let c = Compiler::default();
        let whole = c.compile_whole(&g, "whole");
        let placed = vec![Placed {
            sg: whole,
            device: DeviceKind::Cpu,
        }];
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let res = exec.run(&HashMap::new());
        assert!(res.is_err());
    }

    #[test]
    #[should_panic(expected = "schedule does not cover producer of node")]
    fn uncovered_producer_is_a_coverage_panic_not_a_missing_feed() {
        let g = branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .skip(1)
            .map(|sg| Placed {
                sg,
                device: DeviceKind::Cpu,
            })
            .collect();
        HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
    }

    /// Two independent branches from two separate inputs; only one input
    /// is fed, so exactly one branch fails while the other succeeds.
    fn two_input_branchy() -> Graph {
        let mut b = GraphBuilder::new("two_input", 3);
        let x = b.input("x", vec![1, 16]);
        let z = b.input("z", vec![1, 16]);
        let l = b.dense("left", x, 16, Some(Op::Relu)).unwrap();
        let r = b.dense("right", z, 16, Some(Op::Tanh)).unwrap();
        let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
        let y = b.dense("head", cat, 4, None).unwrap();
        b.finish(&[y]).unwrap()
    }

    #[test]
    fn mid_graph_failure_stops_promptly_with_original_error() {
        let g = two_input_branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 1 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let z = g.input_ids()[1];
        // Feed only x: the "right" subgraph dies on the missing z feed,
        // the "head" subgraph never becomes ready. The run must return
        // (not hang) with exactly the missing-feed error — across many
        // perturbed interleavings, never masked by a later error.
        let mut feeds = input_feeds(&g, 4);
        feeds.remove(&z);
        for seed in 0..20 {
            let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server())
                .with_delays(DelayInjection::new(seed, 80));
            let err = exec.run(&feeds).unwrap_err();
            assert_eq!(err, GraphError::MissingFeed(z), "seed {seed}");
        }
    }

    #[test]
    fn gpu_failure_leaves_the_worker_serving_the_next_run() {
        let g = two_input_branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 1 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let z = g.input_ids()[1];
        let feeds = input_feeds(&g, 4);
        let mut partial = feeds.clone();
        partial.remove(&z);
        let want = g.eval(&feeds).unwrap();
        // One executor, so every run goes through the same GPU worker:
        // the GPU-placed "right" subgraph fails on the missing z feed,
        // and the run after it must succeed.
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        for _ in 0..5 {
            assert_eq!(exec.run(&partial).unwrap_err(), GraphError::MissingFeed(z));
            let out = exec.run(&feeds).unwrap();
            assert_eq!(out.outputs[&g.outputs()[0]], want[0]);
            assert_eq!(out.tasks_per_device[&DeviceKind::Gpu], 1);
        }
    }

    #[test]
    fn narrowed_env_leaves_outputs_unchanged_on_deep_chain() {
        // A deep chain split into many subgraphs: with whole-map cloning
        // this moved O(n²) tensors; the narrowed env must stay correct.
        let mut b = GraphBuilder::new("deep", 9);
        let x = b.input("x", vec![1, 24]);
        let mut cur = x;
        for i in 0..24 {
            cur = b.dense(&format!("fc{i}"), cur, 24, Some(Op::Relu)).unwrap();
        }
        let g = b.finish(&[cur]).unwrap();
        let c = Compiler::default();
        let ids = g.compute_ids();
        let placed: Vec<Placed> = ids
            .chunks(3)
            .enumerate()
            .map(|(i, chunk)| Placed {
                sg: c.compile_nodes(&g, chunk, format!("c{i}")),
                device: if i % 2 == 0 {
                    DeviceKind::Cpu
                } else {
                    DeviceKind::Gpu
                },
            })
            .collect();
        let feeds = input_feeds(&g, 11);
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let out = exec.run(&feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        assert_eq!(out.outputs[&g.outputs()[0]], want[0]);
    }

    #[test]
    fn repeated_runs_are_stable() {
        let g = branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 0 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let feeds = input_feeds(&g, 8);
        let first = exec.run(&feeds).unwrap();
        for _ in 0..10 {
            let again = exec.run(&feeds).unwrap();
            assert_eq!(
                again.outputs[&g.outputs()[0]],
                first.outputs[&g.outputs()[0]]
            );
        }
    }

    #[test]
    fn witnessed_run_logs_every_subgraph_and_transfer() {
        let g = branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 1 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let (out, w) = exec.run_witnessed(&input_feeds(&g, 5)).unwrap();
        assert_eq!(w.source, WitnessSource::Executor);
        assert_eq!(w.virtual_latency_us, out.virtual_latency_us);
        assert_eq!(w.dispatch_count(), placed.len());
        // The GPU-placed "right" subgraph consumed the host input: an H2D
        // transfer must be on record, and its boundary output crosses back.
        assert!(w.events.iter().any(|e| matches!(
            e,
            WitnessEvent::Transfer {
                kind: TransferKind::HostToDevice,
                ..
            }
        )));
        assert!(w.events.iter().any(|e| matches!(
            e,
            WitnessEvent::Transfer {
                kind: TransferKind::DeviceToDevice,
                ..
            }
        )));
    }

    #[test]
    fn virtual_run_matches_real_run_latency() {
        let g = branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 0 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let real = exec.run(&input_feeds(&g, 2)).unwrap();
        let virt = exec.run_virtual(None).unwrap();
        assert!(virt.outputs.is_empty());
        // Virtual clocks do not depend on the numerics; a same-ordering
        // virtual run lands on the same latency.
        let rel =
            (real.virtual_latency_us - virt.virtual_latency_us).abs() / real.virtual_latency_us;
        assert!(rel < 0.2, "real {real:?} vs virtual {virt:?}");
    }
}
