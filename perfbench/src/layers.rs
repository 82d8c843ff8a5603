//! Per-layer probes shared by the traced runs: a stage-by-stage replay of
//! the engine build, serial tape execution, and the executor breakdown.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use duet_compiler::{CompileOptions, Compiler, TapeArena};
use duet_core::sched::{make_units, schedule, to_placed};
use duet_core::{partition, Duet, SchedulePolicy};
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, NodeId};
use duet_runtime::{measure_latency, Placed, Profiler};
use duet_tensor::Tensor;

use crate::stats::{median, percentile, sorted};
use crate::trace::{Tracer, NONE};
use crate::{Args, Outcome};

/// Profiling repetitions of `DuetBuilder`'s default.
pub const BUILDER_PROFILE_RUNS: (usize, usize) = (500, 50);

/// The spans a replayed build records, one per public pipeline call, and
/// the per-layer metric each one's self time is reported as.
pub const BUILD_STAGES: [(&str, &str); 6] = [
    ("compiler.optimize", "compiler.optimize_us"),
    ("partition.partition", "partition.partition_us"),
    ("compiler.lower", "compiler.lower_us"),
    ("profile.profile", "profile.profile_us"),
    ("sched.schedule", "sched.schedule_us"),
    ("sched.measure", "sched.measure_us"),
];

/// Replay `DuetBuilder::build` with its release defaults (no checker
/// gates: `CompileOptions::full()` checks only in debug builds) one
/// public call at a time, each under its own span.
pub fn replay_build(
    tr: &mut Tracer,
    op: u64,
    model: &Graph,
    system: &SystemModel,
    profile_runs: (usize, usize),
) {
    let root = tr.open("build.replay", NONE, op);
    let compiler = Compiler::new(CompileOptions::full());
    let (graph, _) = tr.time("compiler.optimize", root, op, || {
        compiler.optimize(model).expect("model optimizes").0
    });
    let (part, _) = tr.time("partition.partition", root, op, || partition(&graph));
    let ((subgraphs, whole), _) = tr.time("compiler.lower", root, op, || {
        (
            part.compile(&graph, &compiler),
            compiler.compile_whole(&graph, graph.name.clone()),
        )
    });
    let (profiles, _) = tr.time("profile.profile", root, op, || {
        Profiler::new(system.clone())
            .with_runs(profile_runs.0, profile_runs.1)
            .profile_all(&graph, &subgraphs)
    });
    let ((units, devices), _) = tr.time("sched.schedule", root, op, || {
        let units = make_units(&part, subgraphs, profiles);
        let devices = schedule(&graph, &units, system, SchedulePolicy::GreedyCorrection);
        (units, devices)
    });
    tr.time("sched.measure", root, op, || {
        black_box(measure_latency(
            &graph,
            &to_placed(&units, &devices),
            system,
        ));
        for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
            let placed = [Placed {
                sg: whole.clone(),
                device,
            }];
            black_box(measure_latency(&graph, &placed, system));
        }
    });
    tr.close(root);
}

/// Report the replayed stages' self times, each summed within a group of
/// operations and taken as the median over groups; returns the median
/// over groups of all stages together.
pub fn report_stages(tr: &Tracer, group: impl Fn(u64) -> u64 + Copy, out: &mut Outcome) -> f64 {
    let self_us = tr.self_times();
    for (span, metric) in BUILD_STAGES {
        out.set(
            metric,
            median(&tr.group_sum(&self_us, |n| n == span, group)),
        );
    }
    median(&tr.group_sum(
        &self_us,
        |n| BUILD_STAGES.iter().any(|(s, _)| *s == n),
        group,
    ))
}

/// Fresh arenas for serial execution of `duet`'s placed tapes.
pub fn arenas_for(duet: &Duet) -> Vec<TapeArena> {
    duet.placed()
        .iter()
        .map(|p| TapeArena::for_tape(&p.sg.tape))
        .collect()
}

/// Execute `duet`'s placed subgraphs one after another on this thread
/// (no executor machinery): the tape layer alone.
pub fn run_tapes(
    duet: &Duet,
    feeds: &HashMap<NodeId, Tensor>,
    arenas: &mut [TapeArena],
) -> HashMap<NodeId, Tensor> {
    let mut env = feeds.clone();
    for (p, arena) in duet.placed().iter().zip(arenas) {
        let out = p.sg.execute_with_arena(&env, arena).expect("tape executes");
        env.extend(out);
    }
    env
}

/// Modeled FLOPs of one inference through `duet`'s plan (`duet-ir`
/// cost profiles).
pub fn plan_flops(duet: &Duet) -> f64 {
    duet.placed().iter().map(|p| p.sg.cost.flops).sum()
}

pub fn plan_kernels(duet: &Duet) -> usize {
    duet.placed().iter().map(|p| p.sg.kernel_count()).sum()
}

/// The executor and tape layers of repeated inferences: each traced
/// operation runs `Duet::run`, `run_virtual` and the serial tapes under
/// spans, and is paired with one untraced `Duet::run` so the tracing
/// overhead can be read off.
#[derive(Default)]
pub struct ExecProbe {
    run_us: Vec<f64>,
    virtual_us: Vec<f64>,
    tape_us: Vec<f64>,
    residual_us: Vec<f64>,
    untraced_run_us: Vec<f64>,
    flops: f64,
    tape_total_us: f64,
}

impl ExecProbe {
    pub fn sample(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        duet: &Duet,
        feeds: &HashMap<NodeId, Tensor>,
        arenas: &mut [TapeArena],
    ) {
        // Alternate which of the pair runs first, so neither always finds
        // the caches warm.
        let untraced_first = op.is_multiple_of(2);
        if untraced_first {
            self.untraced_run(duet, feeds);
        }
        let root = tr.open("exec.op", NONE, op);
        let (out, run) = tr.time("exec.run", root, op, || duet.run(feeds));
        black_box(out.expect("inference runs"));
        let (out, virt) = tr.time("exec.virtual", root, op, || {
            duet.executor_with(duet.system().clone()).run_virtual(None)
        });
        black_box(out.expect("virtual run"));
        let (out, tape) = tr.time("tape.execute", root, op, || run_tapes(duet, feeds, arenas));
        black_box(out);
        tr.close(root);
        if !untraced_first {
            self.untraced_run(duet, feeds);
        }

        self.run_us.push(run);
        self.virtual_us.push(virt);
        self.tape_us.push(tape);
        self.residual_us.push(run - virt - tape);
        self.flops += plan_flops(duet);
        self.tape_total_us += tape;
    }

    fn untraced_run(&mut self, duet: &Duet, feeds: &HashMap<NodeId, Tensor>) {
        let t = Instant::now();
        black_box(duet.run(feeds).expect("inference runs"));
        self.untraced_run_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    pub fn run_percentile(&self, p: f64) -> f64 {
        percentile(&sorted(&self.run_us), p)
    }

    /// Median traced `Duet::run` over median untraced run, minus one.
    pub fn overhead_pct(&self) -> f64 {
        let untraced = median(&self.untraced_run_us);
        100.0 * (median(&self.run_us) - untraced) / untraced
    }

    pub fn report(&self, out: &mut Outcome) {
        out.set("exec.run_us", median(&self.run_us));
        out.set("exec.virtual_us", median(&self.virtual_us));
        out.set("exec.residual_us", median(&self.residual_us));
        out.set("tape.execute_us", median(&self.tape_us));
        // FLOPs are computed from the cost model, not counted.
        out.set("tape.gflops", self.flops / self.tape_total_us / 1e3);
    }
}

/// Write the spans to `perfbench/out/` inside the checkout; a failure to
/// write is reported, not fatal.
pub fn write_trace(tr: &Tracer, args: &Args) {
    let path = PathBuf::from(format!(
        "perfbench/out/{}-seed{}.trace.json",
        args.workload, args.seed
    ));
    match tr.write_json(&path) {
        Ok(()) => crate::note!("spans written to {}", path.display()),
        Err(e) => crate::note!("could not write {}: {e}", path.display()),
    }
}
