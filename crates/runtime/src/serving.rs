//! Online-serving simulation: latency under load.
//!
//! The paper motivates DUET with online inference serving — "the
//! deployment engineers iterate until the inference speed satisfies a
//! latency SLA (e.g., often a few milliseconds per query)" (§II-A) — and
//! reports tail latency because that is what SLAs bound. This module
//! extends the evaluation from isolated-request latency to *latency under
//! load*: a FIFO single-server queue in front of the engine, Poisson
//! arrivals, per-request noisy execution.
//!
//! The engine serves one request at a time (the paper's engine is a
//! dedicated per-model deployment), so a request's sojourn time is its
//! queueing delay plus its own noisy execution latency. Faster schedules
//! don't just shift the latency curve down — they raise the saturation
//! rate, which is where DUET's 2-3x mean-latency advantage turns into an
//! order-of-magnitude P99 advantage.

use duet_device::SystemModel;
use duet_ir::Graph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::candidate::{devices_of, CompiledPlan};
use crate::sim::{Placed, SimNoise};
use crate::stats::LatencyStats;

/// Serving workload description.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Mean arrival rate, queries per second (Poisson process).
    pub arrival_rate_qps: f64,
    /// Number of requests to simulate.
    pub requests: usize,
    /// Seed for arrivals and per-request execution noise.
    pub seed: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            arrival_rate_qps: 100.0,
            requests: 2000,
            seed: 0x5e12,
        }
    }
}

/// Serving simulation outcome.
#[derive(Debug, Clone)]
pub struct ServingResult {
    /// Sojourn times (queueing + service), microseconds.
    pub sojourn: LatencyStats,
    /// Pure service times, microseconds.
    pub service: LatencyStats,
    /// Fraction of simulated time the engine was busy.
    pub utilization: f64,
    /// Achieved throughput, queries per second.
    pub throughput_qps: f64,
}

/// Simulate `cfg.requests` queries against a placed schedule.
pub fn simulate_serving(
    graph: &Graph,
    placed: &[Placed],
    system: &SystemModel,
    cfg: &ServingConfig,
) -> ServingResult {
    assert!(cfg.arrival_rate_qps > 0.0, "need a positive arrival rate");
    assert!(cfg.requests > 0, "need at least one request");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut noise = SimNoise::seeded(cfg.seed ^ 0x5eef);
    let plan = CompiledPlan::for_placed(graph, placed, system);
    let devices = devices_of(placed);
    let mean_gap_us = 1e6 / cfg.arrival_rate_qps;

    let mut clock_arrival = 0.0f64;
    let mut server_free = 0.0f64;
    let mut busy_us = 0.0f64;
    let mut sojourn = Vec::with_capacity(cfg.requests);
    let mut service = Vec::with_capacity(cfg.requests);
    let mut last_finish = 0.0f64;
    for _ in 0..cfg.requests {
        // Exponential interarrival via inverse transform.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        clock_arrival += -mean_gap_us * u.ln();
        let exec = plan.sample(&devices, &mut noise);
        let start = clock_arrival.max(server_free);
        let finish = start + exec;
        server_free = finish;
        busy_us += exec;
        sojourn.push(finish - clock_arrival);
        service.push(exec);
        last_finish = finish;
    }
    ServingResult {
        sojourn: LatencyStats::from_samples(sojourn),
        service: LatencyStats::from_samples(service),
        utilization: (busy_us / last_finish).min(1.0),
        throughput_qps: cfg.requests as f64 / (last_finish / 1e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_compiler::Compiler;
    use duet_device::DeviceKind;
    use duet_models::{mlp, MlpConfig};

    fn plan(graph: &Graph) -> Vec<Placed> {
        let sg = Compiler::default().compile_whole(graph, "w");
        vec![Placed {
            sg,
            device: DeviceKind::Gpu,
        }]
    }

    #[test]
    fn light_load_sojourn_is_service_time() {
        let g = mlp(&MlpConfig::default());
        let sys = SystemModel::paper_server();
        let placed = plan(&g);
        // Arrivals far apart: no queueing.
        let r = simulate_serving(
            &g,
            &placed,
            &sys,
            &ServingConfig {
                arrival_rate_qps: 1.0,
                requests: 300,
                seed: 1,
            },
        );
        assert!((r.sojourn.p50() - r.service.p50()).abs() / r.service.p50() < 0.01);
        assert!(r.utilization < 0.01);
    }

    #[test]
    fn heavy_load_queues_and_saturates() {
        let g = mlp(&MlpConfig::default());
        let sys = SystemModel::paper_server();
        let placed = plan(&g);
        let service = crate::measure_latency(&g, &placed, &sys);
        // Offer 3x the service capacity.
        let rate = 3.0 * 1e6 / service;
        let r = simulate_serving(
            &g,
            &placed,
            &sys,
            &ServingConfig {
                arrival_rate_qps: rate,
                requests: 500,
                seed: 2,
            },
        );
        assert!(r.utilization > 0.95, "{}", r.utilization);
        // Sojourn far exceeds service under overload.
        assert!(r.sojourn.p50() > 5.0 * r.service.p50());
        // Throughput capped near capacity, not at the offered rate.
        let capacity = 1e6 / service;
        assert!(r.throughput_qps < 1.1 * capacity);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = mlp(&MlpConfig::default());
        let sys = SystemModel::paper_server();
        let placed = plan(&g);
        let cfg = ServingConfig {
            arrival_rate_qps: 200.0,
            requests: 200,
            seed: 7,
        };
        let a = simulate_serving(&g, &placed, &sys, &cfg);
        let b = simulate_serving(&g, &placed, &sys, &cfg);
        assert_eq!(a.sojourn.p99(), b.sojourn.p99());
        assert_eq!(a.throughput_qps, b.throughput_qps);
    }

    #[test]
    #[should_panic(expected = "positive arrival rate")]
    fn zero_rate_rejected() {
        let g = mlp(&MlpConfig::default());
        let sys = SystemModel::paper_server();
        let placed = plan(&g);
        simulate_serving(
            &g,
            &placed,
            &sys,
            &ServingConfig {
                arrival_rate_qps: 0.0,
                requests: 10,
                seed: 0,
            },
        );
    }
}
