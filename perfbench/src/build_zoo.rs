//! `build-zoo`: the offline pipeline over the paper-scale zoo.
//!
//! Set-up constructs the eight `zoo_model` graphs. The measured loop runs
//! `Duet::builder().build` over all of them, one zoo cycle at a time, in
//! an order the seed shuffles per cycle. Only the compiler, partitioner,
//! profiler and scheduler run; no kernel or executor does. Every built
//! plan must pass `lint_plan` and be identical on every cycle.

use std::time::{Duration, Instant};

use duet_analysis::{check_dataflow, lint_plan, LintConfig, ModelCheckConfig};
use duet_core::Duet;
use duet_device::SystemModel;
use duet_ir::Graph;
use duet_models::{zoo_model, zoo_names};

use crate::layers::{plan_kernels, replay_build, report_stages, write_trace, BUILDER_PROFILE_RUNS};
use crate::stats::{beyond, geomean, median, percentile, sorted, Rng, Windows};
use crate::trace::{Tracer, NONE};
use crate::{note, peak_rss_mb, Args, Outcome};

/// Zoo constructions per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Tail percentile of the zoo-cycle time.
const TAIL_PCT: f64 = 99.0;
/// Largest allowed gap between the summed stage self times of the replay
/// and the measured `build` wall time, percent.
const RECON_TOLERANCE_PCT: f64 = 10.0;

/// Correctness state: every model's first plan, which later cycles must
/// reproduce exactly.
struct Plans {
    first: Vec<Option<String>>,
    latency_us: Vec<f64>,
    /// Per model: kernels, optimized nodes and subgraphs of its plan.
    counts: Vec<[usize; 3]>,
    attempted: u64,
    failed: u64,
}

impl Plans {
    fn new(n: usize) -> Self {
        Plans {
            first: vec![None; n],
            latency_us: vec![0.0; n],
            counts: vec![[0; 3]; n],
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one build result; counts it as attempted and maybe failed.
    fn check(&mut self, i: usize, built: Result<Duet, duet_core::EngineError>) -> Option<Duet> {
        self.attempted += 1;
        let engine = match built {
            Ok(e) => e,
            Err(e) => {
                note!("build of model {i} failed: {e:?}");
                self.failed += 1;
                return None;
            }
        };
        let plan = engine.export_plan();
        let lint = lint_plan(engine.graph(), &plan.to_facts(), &LintConfig::default());
        let json = plan.to_json();
        let ok = !lint.has_errors()
            && match &self.first[i] {
                Some(first) => *first == json,
                None => {
                    self.first[i] = Some(json);
                    self.latency_us[i] = engine.latency_us();
                    self.counts[i] = [
                        plan_kernels(&engine),
                        engine.graph().len(),
                        engine.units().len(),
                    ];
                    true
                }
            };
        if !ok {
            note!("{}: plan failed lint or changed between cycles", plan.model);
            self.failed += 1;
        }
        Some(engine)
    }
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    order
}

/// One zoo cycle; returns the summed build wall time, µs.
fn cycle(graphs: &[Graph], order: &[usize], plans: &mut Plans, windows: &mut Windows) -> f64 {
    let mut build_us = 0.0;
    for &i in order {
        let t = Instant::now();
        let built = Duet::builder().build(&graphs[i]);
        let done = Instant::now();
        build_us += (done - t).as_secs_f64() * 1e6;
        windows.tick(done);
        plans.check(i, built);
    }
    build_us
}

pub fn run(args: &Args) -> Outcome {
    let names = zoo_names();
    let n = names.len();
    let mut rng = Rng::new(args.seed);
    let mut plans = Plans::new(n);
    let mut setup_s = Vec::new();
    let mut graphs: Vec<Graph> = Vec::new();
    for _ in 0..SETUPS {
        graphs.clear();
        let t = Instant::now();
        graphs = names
            .iter()
            .map(|name| zoo_model(name).expect("zoo roster name builds"))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    if args.trace {
        let tr = traced(&graphs, &mut rng, &mut plans, deadline, &mut out);
        write_trace(&tr, args);
        out.set("models.zoo_construct_ms", median(&setup_s) * 1e3);
    } else {
        let mut cycles_us = Vec::new();
        let mut windows = Windows::new(Instant::now());
        while Instant::now() < deadline {
            cycles_us.push(cycle(
                &graphs,
                &shuffled(&mut rng, n),
                &mut plans,
                &mut windows,
            ));
        }
        let s = sorted(&cycles_us);
        note!(
            "{} zoo cycles: P50 {:.2} ms, P{TAIL_PCT} {:.2} ms ({} beyond)",
            s.len(),
            percentile(&s, 50.0) / 1e3,
            percentile(&s, TAIL_PCT) / 1e3,
            beyond(s.len(), TAIL_PCT)
        );
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("p50_ms", percentile(&s, 50.0) / 1e3);
        out.set("throughput_per_s", windows.per_s(deadline));
        out.set("virtual_latency", geomean(&plans.latency_us));
    }
    out.attempted += plans.attempted;
    out.failed += plans.failed;
    out.correct &= out.failed == 0;
    out
}

/// The traced loop: each model is built once untraced (the reference wall
/// time), replayed stage by stage under spans, and its plan is checked by
/// the D2xx linter, the D6xx dataflow analyzer and the D5xx model checker,
/// each under a span.
fn traced(
    graphs: &[Graph],
    rng: &mut Rng,
    plans: &mut Plans,
    deadline: Instant,
    out: &mut Outcome,
) -> Tracer {
    let n = graphs.len() as u64;
    let system = SystemModel::paper_server();
    let mut tr = Tracer::new();
    let mut build_us: Vec<f64> = Vec::new();
    let mut cycle_no = 0u64;
    while Instant::now() < deadline || cycle_no < 2 {
        let mut wall = 0.0;
        for i in shuffled(rng, graphs.len()) {
            let op = cycle_no * n + i as u64;
            let t = Instant::now();
            let built = Duet::builder().build(&graphs[i]);
            wall += t.elapsed().as_secs_f64() * 1e6;
            let (engine, _) = tr.time("analysis.lint", NONE, op, || plans.check(i, built));
            if let Some(engine) = engine {
                tr.time("analysis.dataflow", NONE, op, || {
                    check_dataflow(engine.graph())
                });
                tr.time("analysis.model_check", NONE, op, || {
                    engine.check_plan(&ModelCheckConfig::default())
                });
            }
            replay_build(&mut tr, op, &graphs[i], &system, BUILDER_PROFILE_RUNS);
        }
        build_us.push(wall);
        cycle_no += 1;
    }

    let per_cycle = |op: u64| op / n;
    let stages_us = report_stages(&tr, per_cycle, out);
    let self_us = tr.self_times();
    for (span, metric) in [
        ("analysis.lint", "analysis.lint_us"),
        ("analysis.dataflow", "analysis.dataflow_us"),
        ("analysis.model_check", "analysis.model_check_us"),
    ] {
        out.set(
            metric,
            median(&tr.group_sum(&self_us, |s| s == span, per_cycle)),
        );
    }
    let replay_us = median(&tr.group_sum(
        &tr.spans().iter().map(|s| s.dur_us()).collect::<Vec<_>>(),
        |s| s == "build.replay",
        per_cycle,
    ));
    let wall_us = median(&build_us);
    out.set(
        "build.cycle_p99_ms",
        percentile(&sorted(&build_us), TAIL_PCT) / 1e3,
    );
    let gap_pct = 100.0 * (stages_us - wall_us) / wall_us;
    note!(
        "{cycle_no} traced cycles: build {wall_us:.0} us/cycle, replayed stages {stages_us:.0} us \
         ({gap_pct:+.1}%, tolerance ±{RECON_TOLERANCE_PCT}%)"
    );
    if gap_pct.abs() > RECON_TOLERANCE_PCT {
        note!("build reconciliation failed");
        out.correct = false;
    }
    out.set("build.wall_us", wall_us);
    out.set("build.recon_gap_pct", gap_pct);
    out.set(
        "trace.overhead_pct",
        100.0 * (replay_us - wall_us) / wall_us,
    );
    for (k, metric) in [
        "compiler.kernels",
        "compiler.nodes_after",
        "partition.subgraphs",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(
            metric,
            plans.counts.iter().map(|c| c[k]).sum::<usize>() as f64,
        );
    }
    tr
}
