//! `serve-wd`: the serving runtime under load, on the serving-scale
//! `wide_deep` model with `max_batch` 4 against the paper's server model.
//!
//! Phases, in order, in one process:
//!
//! * **cold** — `COLD_CYCLES` times: construct the spec and a fresh
//!   server, `register` (the set-up), then an open loop at 100 qps that
//!   starts as `register` returns, with no warm-up. Batch sizes that
//!   `register` does not prewarm are built on the request path, as after
//!   every restart.
//! * **light** — open loop, Poisson at 40 qps (mean batch near 1; the
//!   linger window bounds it).
//! * **heavy** — open loop, Poisson at 100 qps (batches of 2 to 4).
//! * **saturated** — closed loop from one thread keeping 8 requests in
//!   flight.
//!
//! Open-loop sojourn is timed from each request's *due* time, so a stall
//! also charges the requests queued behind it, and the generator reports
//! how late it ran. One generator thread submits, one collector thread
//! waits; `LoadGen` is not used because it times from submit.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use duet_bench::count_allocs;
use duet_core::Duet;
use duet_device::SystemModel;
use duet_serve::{
    merge_feeds, Attribution, ModelSpec, ServeConfig, ServeError, ServeHandle, ServeServer,
};
use duet_tensor::Tensor;

use crate::layers::{
    arenas_for, plan_kernels, replay_build, report_stages, write_trace, ExecProbe,
};
use crate::stats::{beyond, median, percentile, sorted, Rng, Windows};
use crate::trace::{Tracer, NONE};
use crate::{note, peak_rss_mb, Args, Outcome};

const MODEL: &str = "wide_and_deep";
const MAX_BATCH: usize = 4;
const COLD_CYCLES: usize = 5;
const COLD_QPS: f64 = 100.0;
const LIGHT_QPS: f64 = 40.0;
const HEAVY_QPS: f64 = 100.0;
const IN_FLIGHT: usize = 8;
/// Shares of `--seconds`: all cold windows together, light, heavy and
/// saturated.
const SHARES: [f64; 4] = [0.1, 0.4, 0.2, 0.3];
/// Tail percentiles of the light and heavy phases: the highest that keep
/// at least ten samples beyond them at their rates over a 30 s run.
const LIGHT_TAIL_PCT: f64 = 97.0;
const HEAVY_TAIL_PCT: f64 = 98.0;
/// Distinct request feeds; request `i` uses feed `i % FEED_POOL`.
const FEED_POOL: usize = 256;
/// Requests whose feed index is below this have their outputs compared
/// with `ServeServer::reference_run` (one in eight).
const CHECKED_FEEDS: usize = FEED_POOL / 8;
/// A phase whose generator ran later than these limits is invalid; it is
/// run again, up to `PHASE_ATTEMPTS` times in all (the cold phase gets
/// `PHASE_ATTEMPTS - 1` extra cycles).
const LATE_P99_LIMIT_MS: f64 = 10.0;
const LATE_MAX_LIMIT_MS: f64 = 100.0;
const PHASE_ATTEMPTS: usize = 3;
/// Largest allowed median gap between the sojourn measured from due time
/// and generator lateness plus the server's attribution, percent of the
/// median sojourn.
const RECON_TOLERANCE_PCT: f64 = 5.0;
/// `PlanCache`'s profiling repetitions for serving variants.
const VARIANT_PROFILE_RUNS: (usize, usize) = (120, 12);

fn config() -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        ..ServeConfig::default()
    }
}

/// A submitted request, not yet answered.
struct Sent {
    feed: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    handle: Result<ServeHandle, ServeError>,
}

impl Sent {
    /// Block for the response; the receipt time ends the sojourn.
    fn wait(self) -> Record {
        let result = self.handle.and_then(ServeHandle::wait);
        let done = Instant::now();
        Record {
            feed: self.feed,
            due: self.due,
            submit_start: self.submit_start,
            submit_end: self.submit_end,
            done,
            result: result.map(|r| Served {
                attribution: r.attribution,
                outputs: (self.feed < CHECKED_FEEDS).then_some(r.outputs),
            }),
        }
    }
}

/// One request as the generator and collector saw it.
struct Record {
    feed: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    done: Instant,
    result: Result<Served, ServeError>,
}

struct Served {
    attribution: Attribution,
    /// Kept only for checked feeds.
    outputs: Option<HashMap<String, Tensor>>,
}

impl Record {
    fn sojourn_ms(&self) -> f64 {
        ms(self.done - self.due)
    }

    fn late_ms(&self) -> f64 {
        ms(self.submit_start.saturating_duration_since(self.due))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// State shared by the phases: the feeds, the arrival stream, and the
/// counts of attempted and failed requests.
struct Load<'a> {
    feeds: &'a [HashMap<String, Tensor>],
    next: usize,
    rng: Rng,
    attempted: u64,
    failed: u64,
    /// Generator lateness of the kept open-loop phases, ms.
    late_ms: Vec<f64>,
    invalid: bool,
}

impl Load<'_> {
    /// Submit the next request; a closed loop passes no due time, so the
    /// request is due when it is submitted.
    fn submit(&mut self, server: &ServeServer, due: Option<Instant>) -> Sent {
        let feed = self.next % FEED_POOL;
        self.next += 1;
        let submit_start = Instant::now();
        let handle = server.submit(MODEL, self.feeds[feed].clone(), None);
        Sent {
            feed,
            due: due.unwrap_or(submit_start),
            submit_start,
            submit_end: Instant::now(),
            handle,
        }
    }

    /// Open loop: Poisson arrivals at `qps` for `window`, starting at
    /// `start`. Returns once every response is in.
    fn open_loop(
        &mut self,
        server: &ServeServer,
        qps: f64,
        start: Instant,
        window: Duration,
    ) -> Vec<Record> {
        let mut dues = Vec::new();
        let mut t = self.rng.exp_gap_s(qps);
        while t < window.as_secs_f64() {
            dues.push(start + Duration::from_secs_f64(t));
            t += self.rng.exp_gap_s(qps);
        }
        let (tx, rx) = mpsc::channel::<Sent>();
        std::thread::scope(|scope| {
            let collector = scope.spawn(move || rx.into_iter().map(Sent::wait).collect());
            for due in dues {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                tx.send(self.submit(server, Some(due)))
                    .expect("collector is alive");
            }
            drop(tx);
            collector.join().expect("collector thread")
        })
    }

    /// Closed loop from this thread keeping `IN_FLIGHT` requests in
    /// flight for `window`; returns the completion rate per second.
    fn closed_loop(&mut self, server: &ServeServer, window: Duration) -> (f64, Vec<Record>) {
        let start = Instant::now();
        let end = start + window;
        let mut windows = Windows::new(start);
        let mut inflight: VecDeque<Sent> =
            (0..IN_FLIGHT).map(|_| self.submit(server, None)).collect();
        let mut records = Vec::new();
        while let Some(sent) = inflight.pop_front() {
            let record = sent.wait();
            if record.done < end {
                windows.tick(record.done);
                inflight.push_back(self.submit(server, None));
            }
            records.push(record);
        }
        (windows.per_s(end), records)
    }

    /// Count a phase's requests. Failed are those that were shed, expired
    /// or errored, and checked responses that differ from a direct batch-1
    /// reference run on the same server.
    fn settle(&mut self, server: &ServeServer, records: &[Record]) {
        self.attempted += records.len() as u64;
        let mut refs: HashMap<usize, HashMap<String, Tensor>> = HashMap::new();
        for r in records {
            let got = match &r.result {
                Err(e) => {
                    note!("request for feed {} failed: {e}", r.feed);
                    self.failed += 1;
                    continue;
                }
                Ok(Served { outputs: None, .. }) => continue,
                Ok(Served {
                    outputs: Some(got), ..
                }) => got,
            };
            let want = refs.entry(r.feed).or_insert_with(|| {
                server
                    .reference_run(MODEL, &self.feeds[r.feed])
                    .expect("reference run")
            });
            if got != want {
                note!(
                    "response for feed {} differs from the reference run",
                    r.feed
                );
                self.failed += 1;
            }
        }
    }

    /// Generator health of an open-loop phase: false when the generator
    /// ran later than the limits and the phase should be run again. On the
    /// `last` attempt a late phase is kept and the run marked invalid.
    fn generator_ok(&mut self, phase: &str, records: &[Record], last: bool) -> bool {
        let late = sorted(&records.iter().map(Record::late_ms).collect::<Vec<_>>());
        let (p99, max) = (percentile(&late, 99.0), late[late.len() - 1]);
        if p99 > LATE_P99_LIMIT_MS || max > LATE_MAX_LIMIT_MS {
            note!(
                "{phase}: generator late by P99 {p99:.2} ms / max {max:.2} ms, over the \
                 {LATE_P99_LIMIT_MS}/{LATE_MAX_LIMIT_MS} ms limit: phase invalid{}",
                if last {
                    ", run marked invalid"
                } else {
                    ", running it again"
                }
            );
            if !last {
                return false;
            }
            self.invalid = true;
        }
        self.late_ms.extend(late);
        true
    }

    /// An open-loop phase on the warm server, run again while its generator
    /// fell behind; returns its records and mean batch size.
    fn warm_phase(
        &mut self,
        server: &ServeServer,
        phase: &str,
        qps: f64,
        window: Duration,
    ) -> (Vec<Record>, f64) {
        for attempt in 1.. {
            let before = batch_counters(server);
            let records = self.open_loop(server, qps, Instant::now(), window);
            let batch = batch_mean(server, before);
            self.settle(server, &records);
            if self.generator_ok(phase, &records, attempt == PHASE_ATTEMPTS) {
                return (records, batch);
            }
        }
        unreachable!("the last attempt is always kept")
    }
}

fn sojourns(records: &[Record]) -> Vec<f64> {
    sorted(
        &records
            .iter()
            .filter(|r| r.result.is_ok())
            .map(Record::sojourn_ms)
            .collect::<Vec<_>>(),
    )
}

fn attributions(records: &[Record]) -> impl Iterator<Item = (&Record, &Attribution)> {
    records.iter().filter_map(|r| match &r.result {
        Ok(s) => Some((r, &s.attribution)),
        Err(_) => None,
    })
}

/// Completed requests per executed batch between two metric snapshots.
fn batch_mean(server: &ServeServer, before: (u64, u64)) -> f64 {
    let (c, b) = batch_counters(server);
    (c - before.0) as f64 / (b - before.1) as f64
}

fn batch_counters(server: &ServeServer) -> (u64, u64) {
    let s = server.metrics(MODEL).expect("registered").snapshot();
    (s.completed, s.batches_executed)
}

fn summary(phase: &str, s: &[f64], tail: f64) {
    note!(
        "{phase}: {} requests, P50 {:.2} ms, P{tail} {:.2} ms ({} beyond), max {:.2} ms",
        s.len(),
        percentile(s, 50.0),
        percentile(s, tail),
        beyond(s.len(), tail),
        s[s.len() - 1]
    );
}

pub fn run(args: &Args) -> Outcome {
    let secs = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let feeder = ModelSpec::serving_zoo(MODEL).expect("serving zoo model");
    let feeds: Vec<_> = (0..FEED_POOL as u64)
        .map(|k| feeder.request_feeds(args.seed * FEED_POOL as u64 + k))
        .collect();
    let mut load = Load {
        feeds: &feeds,
        next: 0,
        rng: Rng::new(args.seed),
        attempted: 0,
        failed: 0,
        late_ms: Vec::new(),
        invalid: false,
    };

    let mut setup_s = Vec::new();
    let mut cold_max_ms = Vec::new();
    let mut cold_stall_ms = Vec::new();
    let mut server = None;
    let mut registered = (0, 0);
    let cold_attempts = COLD_CYCLES + PHASE_ATTEMPTS - 1;
    for attempt in 1..=cold_attempts {
        drop(server.take());
        let t = Instant::now();
        let mut s = ServeServer::new(config());
        s.register(
            ModelSpec::serving_zoo(MODEL).expect("serving zoo model"),
            SystemModel::paper_server(),
        );
        let start = Instant::now();
        registered = s.cache(MODEL).expect("registered").counters();
        let records = load.open_loop(&s, COLD_QPS, start, secs(SHARES[0] / COLD_CYCLES as f64));
        load.settle(&s, &records);
        server = Some(s);
        if !load.generator_ok("cold", &records, attempt == cold_attempts) {
            continue;
        }
        setup_s.push((start - t).as_secs_f64());
        let so = sojourns(&records);
        cold_max_ms.push(so[so.len() - 1]);
        // The lazy variant build lands in the linger segment of the batch
        // that needed it.
        cold_stall_ms.push(
            attributions(&records)
                .map(|(_, a)| a.linger_us / 1e3)
                .fold(0.0, f64::max),
        );
        note!(
            "cold cycle {attempt}: register {:.3} s, worst sojourn {:.1} ms",
            (start - t).as_secs_f64(),
            so[so.len() - 1]
        );
        if setup_s.len() == COLD_CYCLES {
            break;
        }
    }
    let server = server.expect("at least one cold cycle");
    let cache = server.cache(MODEL).expect("registered");

    let (light, light_batch) = load.warm_phase(&server, "light", LIGHT_QPS, secs(SHARES[1]));
    let (heavy, heavy_batch) = load.warm_phase(&server, "heavy", HEAVY_QPS, secs(SHARES[2]));
    let before = batch_counters(&server);
    let (rps, saturated) = load.closed_loop(&server, secs(SHARES[3]));
    let saturated_batch = batch_mean(&server, before);
    load.settle(&server, &saturated);
    let counters = cache.counters();

    let (light_ms, heavy_ms) = (sojourns(&light), sojourns(&heavy));
    summary("light", &light_ms, LIGHT_TAIL_PCT);
    summary("heavy", &heavy_ms, HEAVY_TAIL_PCT);
    note!(
        "saturated: {rps:.1} rps; mean batch light {light_batch:.2}, heavy {heavy_batch:.2}, \
         saturated {saturated_batch:.2}"
    );

    let mut out = Outcome::default();
    let variant = cache.get_or_build(1);
    if args.trace {
        let mut tr = Tracer::new();
        let mut gaps = Vec::new();
        for (phase, records, first_op) in [("light", &light, 0), ("heavy", &heavy, light.len())] {
            gaps.extend(trace_requests(&mut tr, phase, records, first_op as u64));
            report_segments(&mut out, phase, records);
        }
        let gap_pct = 100.0 * median(&gaps) / percentile(&light_ms, 50.0);
        note!("serve reconciliation: median unexplained {gap_pct:+.2}% of light P50 (tolerance ±{RECON_TOLERANCE_PCT}%)");
        if gap_pct.abs() > RECON_TOLERANCE_PCT {
            note!("serve reconciliation failed");
            load.invalid = true;
        }
        out.set("serve.recon_gap_pct", gap_pct);
        let submit_us: Vec<f64> = light
            .iter()
            .chain(&heavy)
            .map(|r| (r.submit_end - r.submit_start).as_secs_f64() * 1e6)
            .collect();
        out.set("serve.submit_p50_us", median(&submit_us));
        out.set("serve.heavy_p50_ms", percentile(&heavy_ms, 50.0));
        out.set("serve.heavy_p98_ms", percentile(&heavy_ms, HEAVY_TAIL_PCT));
        out.set("serve.batch_mean_light", light_batch);
        out.set("serve.batch_mean_heavy", heavy_batch);
        out.set("serve.batch_mean_saturated", saturated_batch);
        out.set("serve.lazy_builds", (counters.1 - registered.1) as f64);
        out.set("serve.cache_hits", (counters.0 - registered.0) as f64);
        let snap = server.metrics(MODEL).expect("registered").snapshot();
        out.set("serve.plan_swaps", snap.plan_swaps as f64);
        out.set("serve.cold_stall_ms", median(&cold_stall_ms));
        out.set("serve.cold_max_ms", median(&cold_max_ms));
        out.set("serve.light_p97_ms", percentile(&light_ms, LIGHT_TAIL_PCT));
        let late = sorted(&load.late_ms);
        out.set("loadgen.late_p99_ms", percentile(&late, 99.0));
        out.set("loadgen.late_max_ms", late[late.len() - 1]);

        // Exact count: heap allocations of one request on the idle server,
        // all threads; the fewest of several.
        let allocs = (0..8)
            .map(|_| {
                count_allocs(|| {
                    server
                        .submit(MODEL, feeds[0].clone(), None)
                        .and_then(ServeHandle::wait)
                        .expect("idle request")
                })
                .0
            })
            .min()
            .expect("eight samples");
        out.set("serve.allocs_per_request", allocs as f64);

        cold_path(&mut tr, &feeder, &mut out);

        let merged = merge_feeds(variant.duet.graph(), &[&feeds[0]]).expect("feeds merge");
        let mut probe = ExecProbe::default();
        let mut arenas = arenas_for(&variant.duet);
        for op in 0..100 {
            probe.sample(&mut tr, op, &variant.duet, &merged, &mut arenas);
        }
        probe.report(&mut out);
        out.set("trace.overhead_pct", probe.overhead_pct());
        out.set("compiler.kernels", plan_kernels(&variant.duet) as f64);
        out.set("partition.subgraphs", variant.duet.units().len() as f64);
        out.set("compiler.nodes_after", variant.duet.graph().len() as f64);
        write_trace(&tr, args);
    } else {
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("p50_ms", percentile(&light_ms, 50.0));
        out.set("throughput_per_s", rps);
        out.set("virtual_latency", variant.duet.latency_us());
    }
    out.attempted = load.attempted;
    out.failed = load.failed;
    out.correct = load.failed == 0 && !load.invalid;
    out
}

/// Record each request's spans: the root runs from due time to the
/// collector's receipt; its children are the generator's lateness, then
/// the server's attribution segments laid end to end from submit. Returns
/// each request's unexplained time (root minus children), ms.
fn trace_requests(
    tr: &mut Tracer,
    phase: &'static str,
    records: &[Record],
    first_op: u64,
) -> Vec<f64> {
    let name = if phase == "light" {
        "serve.light.request"
    } else {
        "serve.heavy.request"
    };
    let mut gaps = Vec::new();
    for (i, (r, a)) in attributions(records).enumerate() {
        let op = first_op + i as u64;
        let root = tr.record(name, NONE, op, r.due, r.done);
        tr.record("loadgen.late", root, op, r.due, r.submit_start);
        let mut at = r.submit_start;
        for (seg, us) in segments(a) {
            let end = at + Duration::from_secs_f64(us / 1e6);
            tr.record(seg, root, op, at, end);
            at = end;
        }
        gaps.push(r.sojourn_ms() - r.late_ms() - a.total_us() / 1e3);
    }
    gaps
}

/// The attribution segments reported per layer, compute folding the CPU
/// and GPU shares together.
fn segments(a: &Attribution) -> [(&'static str, f64); 5] {
    [
        ("queue", a.queue_us),
        ("linger", a.linger_us),
        ("compute", a.compute_cpu_us + a.compute_gpu_us),
        ("transfer", a.transfer_us),
        ("overhead", a.overhead_us),
    ]
}

/// P50 and P99 of each attribution segment in one phase.
fn report_segments(out: &mut Outcome, phase: &str, records: &[Record]) {
    let per_request: Vec<_> = attributions(records).map(|(_, a)| segments(a)).collect();
    for (k, (seg, _)) in segments(&Attribution::default()).iter().enumerate() {
        let v = sorted(&per_request.iter().map(|s| s[k].1).collect::<Vec<_>>());
        for p in [50.0, 99.0] {
            out.set(&format!("serve.{phase}.{seg}_p{p}_us"), percentile(&v, p));
        }
    }
}

/// The cold stall, split: regenerating the model at each batch size
/// (`ModelSpec::graph_at`) and building the batch-2 engine the way the
/// plan cache does, replayed stage by stage.
fn cold_path(tr: &mut Tracer, spec: &ModelSpec, out: &mut Outcome) {
    for (batch, metric) in [
        (1, "models.graph_at_b1_ms"),
        (2, "models.graph_at_b2_ms"),
        (4, "models.graph_at_b4_ms"),
    ] {
        let times: Vec<f64> = (0..3)
            .map(|_| {
                tr.time("models.graph_at", NONE, batch, || {
                    spec.graph_at(batch as usize)
                })
                .1 / 1e3
            })
            .collect();
        out.set(metric, median(&times));
    }
    let graph = spec.graph_at(2);
    let system = SystemModel::paper_server();
    let mut build_ms = Vec::new();
    for op in 0..3 {
        let (built, us) = tr.time("serve.variant_build", NONE, op, || {
            Duet::builder()
                .system(system.clone())
                .profile_runs(VARIANT_PROFILE_RUNS.0, VARIANT_PROFILE_RUNS.1)
                .build(&graph)
        });
        built.expect("batch-2 variant builds");
        build_ms.push(us / 1e3);
        replay_build(tr, 100 + op, &graph, &system, VARIANT_PROFILE_RUNS);
    }
    out.set("serve.variant_build_ms", median(&build_ms));
    report_stages(tr, |op| op, out);
}
