//! The repository benchmark for the DUET stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-wd|infer-small|build-zoo> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload times calls into the public APIs of `duet-core`,
//! `duet-runtime`, `duet-compiler`, `duet-analysis` and `duet-serve`, and
//! checks the program's outputs. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it records spans around each
//! layer call and reports the per-layer metrics instead. The last line of
//! standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! What each metric means on each workload is in `perfbench/README.md`.

mod build_zoo;
mod infer_small;
mod layers;
mod serve_wd;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports every one, with tracing
/// off. `(name, unit)`; names and units match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("virtual_latency", "virtual_us"),
];

/// Per-layer metrics of the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.graph_at_b1_ms", "ms"),
    ("models.graph_at_b2_ms", "ms"),
    ("models.graph_at_b4_ms", "ms"),
    ("models.zoo_construct_ms", "ms"),
    ("compiler.optimize_us", "us"),
    ("compiler.nodes_after", "count"),
    ("compiler.lower_us", "us"),
    ("compiler.kernels", "count"),
    ("partition.partition_us", "us"),
    ("partition.subgraphs", "count"),
    ("profile.profile_us", "us"),
    ("sched.schedule_us", "us"),
    ("sched.measure_us", "us"),
    ("analysis.dataflow_us", "us"),
    ("analysis.model_check_us", "us"),
    ("analysis.lint_us", "us"),
    ("build.wall_us", "us"),
    ("build.cycle_p99_ms", "ms"),
    ("build.recon_gap_pct", "%"),
    ("exec.run_us", "us"),
    ("exec.run_p99_us", "us"),
    ("exec.virtual_us", "us"),
    ("exec.residual_us", "us"),
    ("exec.allocs_per_run", "count"),
    ("tape.execute_us", "us"),
    ("tape.gflops", "GFLOP/s"),
    ("serve.submit_p50_us", "us"),
    ("serve.light.queue_p50_us", "us"),
    ("serve.light.queue_p99_us", "us"),
    ("serve.light.linger_p50_us", "us"),
    ("serve.light.linger_p99_us", "us"),
    ("serve.light.compute_p50_us", "us"),
    ("serve.light.compute_p99_us", "us"),
    ("serve.light.transfer_p50_us", "us"),
    ("serve.light.transfer_p99_us", "us"),
    ("serve.light.overhead_p50_us", "us"),
    ("serve.light.overhead_p99_us", "us"),
    ("serve.heavy.queue_p50_us", "us"),
    ("serve.heavy.queue_p99_us", "us"),
    ("serve.heavy.linger_p50_us", "us"),
    ("serve.heavy.linger_p99_us", "us"),
    ("serve.heavy.compute_p50_us", "us"),
    ("serve.heavy.compute_p99_us", "us"),
    ("serve.heavy.transfer_p50_us", "us"),
    ("serve.heavy.transfer_p99_us", "us"),
    ("serve.heavy.overhead_p50_us", "us"),
    ("serve.heavy.overhead_p99_us", "us"),
    ("serve.cold_max_ms", "ms"),
    ("serve.light_p97_ms", "ms"),
    ("serve.heavy_p50_ms", "ms"),
    ("serve.heavy_p98_ms", "ms"),
    ("serve.batch_mean_light", "count"),
    ("serve.batch_mean_heavy", "count"),
    ("serve.batch_mean_saturated", "count"),
    ("serve.lazy_builds", "count"),
    ("serve.cache_hits", "count"),
    ("serve.plan_swaps", "count"),
    ("serve.allocs_per_request", "count"),
    ("serve.cold_stall_ms", "ms"),
    ("serve.variant_build_ms", "ms"),
    ("serve.recon_gap_pct", "%"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Command-line settings shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check and validity limit held.
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric; `name` must be in one of the catalogues.
    pub fn set(&mut self, name: &str, value: f64) {
        let name = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.insert(name, value);
    }
}

/// Print a human-readable note to stderr (stdout's last line is the
/// result).
#[macro_export]
macro_rules! note {
    ($($t:tt)*) => { eprintln!("perfbench: {}", format!($($t)*)) };
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Render the result line, checking the metric set against the
/// catalogue for this mode.
fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    if let Some(extra) = out
        .metrics
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in this mode's catalogue"));
    }
    let mut json = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.correct, out.attempted, out.failed
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if i > 0 {
            json.push(',');
        }
        write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            .expect("write to String");
    }
    json.push_str("}}");
    Ok(json)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-wd" => serve_wd::run(&args),
        "infer-small" => infer_small::run(&args),
        "build-zoo" => build_zoo::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    match result_json(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
