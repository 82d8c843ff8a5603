//! `infer-small`: one caller in a closed loop calling `Duet::run`
//! round-robin on default-built engines of the small zoo (siamese, mtdnn,
//! mlp). The graphs are tiny, so executor machinery (thread hand-off,
//! value maps, virtual clocks) is a large share of every run. Outputs are
//! checked against the `Graph::eval` interpreter.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use duet_bench::count_allocs;
use duet_core::Duet;
use duet_ir::{Graph, NodeId};
use duet_models::{input_feeds, mlp, mtdnn, siamese, MlpConfig, MtDnnConfig, SiameseConfig};
use duet_tensor::Tensor;

use crate::layers::{arenas_for, plan_kernels, write_trace, ExecProbe};
use crate::stats::{geomean, median, Hist, Windows};
use crate::trace::Tracer;
use crate::{note, peak_rss_mb, Args, Outcome};

/// Engine set-ups per run; `setup_s` and `cold_ms` are their medians.
const SETUPS: usize = 15;
/// Distinct feeds per model, cycled.
const FEEDS: u64 = 8;
/// Every this many rounds, each model's outputs are checked.
const CHECK_EVERY: u64 = 8;
/// `Tensor::approx_eq` tolerance, as in the end-to-end tests.
const TOLERANCE: f32 = 1e-4;
const TAIL_PCT: f64 = 99.0;

/// The small zoo of the end-to-end tests that DUET runs numerically.
fn small_zoo() -> Vec<Graph> {
    vec![
        siamese(&SiameseConfig::small()),
        mtdnn(&MtDnnConfig::small()),
        mlp(&MlpConfig {
            input: 16,
            hidden: 32,
            ..Default::default()
        }),
    ]
}

struct Model {
    engine: Duet,
    /// `(feeds, reference outputs in graph-output order)`.
    cases: Vec<(HashMap<NodeId, Tensor>, Vec<Tensor>)>,
}

impl Model {
    fn matches(&self, case: usize, outputs: &HashMap<NodeId, Tensor>) -> bool {
        let want = &self.cases[case].1;
        self.engine
            .graph()
            .outputs()
            .iter()
            .zip(want)
            .all(|(id, w)| outputs.get(id).is_some_and(|o| o.approx_eq(w, TOLERANCE)))
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut setup_s = Vec::new();
    let mut engines = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        engines = small_zoo()
            .iter()
            .map(|g| Duet::builder().build(g).expect("small zoo builds"))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let models: Vec<Model> = engines
        .into_iter()
        .map(|engine| {
            let cases = (0..FEEDS)
                .map(|k| {
                    let feeds = input_feeds(engine.graph(), args.seed * FEEDS + k);
                    let want = engine.graph().eval(&feeds).expect("reference eval");
                    (feeds, want)
                })
                .collect();
            Model { engine, cases }
        })
        .collect();

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let m = models.len() as u64;
    if args.trace {
        let mut tr = Tracer::new();
        let mut probe = ExecProbe::default();
        let mut arenas: Vec<_> = models.iter().map(|md| arenas_for(&md.engine)).collect();
        let mut op = 0u64;
        while Instant::now() < deadline {
            let i = (op % m) as usize;
            let case = &models[i].cases[((op / m) % FEEDS) as usize].0;
            probe.sample(&mut tr, op, &models[i].engine, case, &mut arenas[i]);
            op += 1;
        }
        probe.report(&mut out);
        out.set("exec.run_p99_us", probe.run_percentile(TAIL_PCT));
        out.set("trace.overhead_pct", probe.overhead_pct());
        // Exact counts: heap allocations of one run (all threads), the
        // fewest of several so a one-off lazy allocation does not count.
        let allocs: u64 = models
            .iter()
            .map(|md| {
                (0..5)
                    .map(|_| count_allocs(|| md.engine.run(&md.cases[0].0)).0)
                    .min()
                    .expect("five samples")
            })
            .sum();
        out.set("exec.allocs_per_run", allocs as f64 / m as f64);
        out.set(
            "compiler.kernels",
            models
                .iter()
                .map(|md| plan_kernels(&md.engine))
                .sum::<usize>() as f64,
        );
        out.set(
            "partition.subgraphs",
            models
                .iter()
                .map(|md| md.engine.units().len())
                .sum::<usize>() as f64,
        );
        // The traced operations discard their outputs; check every case once.
        for md in &models {
            for case in 0..md.cases.len() {
                let outcome = md.engine.run(&md.cases[case].0).expect("inference runs");
                out.attempted += 1;
                if !md.matches(case, &outcome.outputs) {
                    out.failed += 1;
                }
            }
        }
        out.correct = out.failed == 0;
        write_trace(&tr, args);
        return out;
    }

    let mut runs_us = Hist::new();
    let mut windows = Windows::new(Instant::now());
    let mut op = 0u64;
    while Instant::now() < deadline {
        let i = (op % m) as usize;
        let case = ((op / m) % FEEDS) as usize;
        let model = &models[i];
        let t = Instant::now();
        let result = model.engine.run(&model.cases[case].0);
        let done = Instant::now();
        runs_us.record((done - t).as_secs_f64() * 1e6);
        windows.tick(done);
        out.attempted += 1;
        let ok = match result {
            Ok(o) => !(op / m).is_multiple_of(CHECK_EVERY) || model.matches(case, &o.outputs),
            Err(e) => {
                note!("run failed: {e}");
                false
            }
        };
        if !ok {
            out.failed += 1;
        }
        op += 1;
    }
    note!(
        "{} runs: P50 {:.1} us, P{TAIL_PCT} {:.1} us",
        runs_us.len(),
        runs_us.percentile(50.0),
        runs_us.percentile(TAIL_PCT)
    );
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("p50_ms", runs_us.percentile(50.0) / 1e3);
    out.set("throughput_per_s", windows.per_s(deadline));
    out.set(
        "virtual_latency",
        geomean(
            &models
                .iter()
                .map(|md| md.engine.latency_us())
                .collect::<Vec<_>>(),
        ),
    );
    out.correct = out.failed == 0;
    out
}
