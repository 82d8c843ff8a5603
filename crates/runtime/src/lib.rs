//! # duet-runtime
//!
//! The runtime half of DUET: profiling, schedule simulation, heterogeneous
//! execution, and latency measurement.
//!
//! * [`Profiler`] — the compiler-aware profiler of §IV-B: each compiled
//!   subgraph is treated as a standalone model and "run" on both device
//!   models for a fixed number of runs, recording execution time and I/O
//!   sizes.
//! * [`CompiledPlan`] — a schedule's topology and prices, derived once
//!   per (graph, subgraphs, system): boundary edges with producers and
//!   transfer times, producer/consumer lists, graph outputs, and a
//!   per-(subgraph, device) execution-cost table. Its
//!   [`CompiledPlan::makespan`] is the one list-scheduling core
//!   (per-device serialization, cross-device transfer latency); the
//!   scheduler's correction loop, the tuner's oracle ([`CandidateSim`])
//!   and [`measure_latency`] all evaluate placements with it.
//! * [`simulate`] — the same core with seeded noise sampling hooked in,
//!   writing the run's event log. All evaluation figures are produced
//!   with it.
//! * [`HeterogeneousExecutor`] — the engine of §IV-D: one worker per
//!   device polling its own synchronization queue, dependency-
//!   triggered subgraph execution, real tensor numerics. The caller is
//!   the CPU worker and one long-lived process-wide thread the GPU
//!   worker, so a run spawns no thread. It dispatches from a plan built
//!   once per executor (or borrowed from the engine), never re-derived
//!   per run, and passes values through write-once slots the plan
//!   indexes.
//! * One event log per run — both engines record each dispatch once;
//!   witness, breakdown, task counts, telemetry spans and timeline are
//!   derived from it after the run.
//! * [`LatencyStats`] — mean and percentile statistics over repeated runs
//!   (the paper reports P50/P99/P99.9 over 5000 runs).
//! * [`ExecutionWitness`] — a run's events in commit order, built from its
//!   log on request ([`simulate_witnessed`],
//!   [`HeterogeneousExecutor::run_witnessed`]) and rendered by
//!   [`witness_to_chrome_trace`]; `duet-analysis` checks witnesses for
//!   runtime conformance (`D3xx`): happens-before order, virtual-clock
//!   readiness, per-device monotonicity, transfer accounting, reported
//!   latency.

pub mod candidate;
mod event_log;
pub mod executor;
mod gpu_worker;
pub mod measure;
pub mod profile;
pub mod serving;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod witness;

pub use candidate::{CandidateSim, CompiledPlan};
pub use executor::{ExecBreakdown, ExecutionOutcome, HeterogeneousExecutor};
pub use measure::{measure_latency, measure_stats};
pub use profile::{Profiler, SubgraphProfile};
pub use serving::{simulate_serving, ServingConfig, ServingResult};
pub use sim::{
    simulate, simulate_witnessed, subgraph_exec_time_us, Placed, SimNoise, SimResult, TimelineEntry,
};
pub use stats::LatencyStats;
pub use trace::{merged_perfetto_trace, witness_to_chrome_trace};
pub use witness::{
    DelayInjection, ExecutionWitness, TransferKind, TriggerEdge, WitnessEvent, WitnessRecorder,
    WitnessSource,
};
