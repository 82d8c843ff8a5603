//! Telemetry/witness conformance: the executor's telemetry spans must
//! tell the same story as the execution witness.
//!
//! Executor spans are stamped with the *virtual* clock — the same clock
//! the witness records — so every witnessed subgraph dispatch must have
//! exactly one matching `ExecSubgraph` span (same subgraph, device,
//! start and finish), and span order must agree with the witness's
//! happens-before relation: a consumer's span may not start before the
//! spans of the producers that trigger it have finished, and spans on
//! one device may not overlap.
//!
//! A traced run's owned reports must be folds of its own witness: the
//! per-device busy time and transfer total of its breakdown, its task
//! counts, and its span tree (one subgraph and one kernel span per
//! dispatch, one run span).
//!
//! This lives in its own integration-test binary (one process, one test
//! function) because the span ring is process-global.

use std::collections::HashMap;

use duet_compiler::Compiler;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::NodeId;
use duet_models::{input_feeds, wide_and_deep, WideAndDeepConfig};
use duet_runtime::{ExecutionWitness, HeterogeneousExecutor, Placed, WitnessEvent};
use duet_telemetry::{Span, SpanKind, TraceContext};
use duet_tensor::Tensor;

/// Contiguous topo chunks on alternating devices (always valid).
fn chunked(graph: &duet_ir::Graph, k: usize) -> Vec<Placed> {
    let c = Compiler::default();
    let ids = graph.compute_ids();
    let chunk = ids.len().div_ceil(k.clamp(1, ids.len()));
    ids.chunks(chunk)
        .enumerate()
        .map(|(i, nodes)| Placed {
            sg: c.compile_nodes(graph, nodes, format!("c{i}")),
            device: if i % 2 == 0 {
                DeviceKind::Cpu
            } else {
                DeviceKind::Gpu
            },
        })
        .collect()
}

#[test]
fn executor_spans_agree_with_witness_happens_before() {
    duet_telemetry::set_enabled(true);
    // Shrunk so the numerics finish quickly in debug builds; the graph
    // still has parallel branches, so cross-device trigger edges exist.
    let graph = wide_and_deep(&WideAndDeepConfig {
        batch: 1,
        wide_features: 32,
        deep_features: 16,
        ffn_hidden: 16,
        ffn_layers: 2,
        seq_len: 4,
        embed_dim: 8,
        rnn_hidden: 8,
        rnn_layers: 1,
        cnn_depth: 18,
        image: 8,
        ..WideAndDeepConfig::default()
    });
    let placed = chunked(&graph, 6);
    let feeds = input_feeds(&graph, 42);
    let exec = HeterogeneousExecutor::new(&graph, &placed, SystemModel::paper_server());

    duet_telemetry::reset_spans();
    let (_, witness) = exec.run_witnessed(&feeds).expect("run succeeds");
    let spans: Vec<Span> = duet_telemetry::spans()
        .into_iter()
        .filter(|s| s.kind == SpanKind::ExecSubgraph)
        .collect();

    // One span per witnessed dispatch, with identical virtual times.
    let mut matched = 0usize;
    for ev in &witness.events {
        let WitnessEvent::Start {
            sg, device, at_us, ..
        } = ev
        else {
            continue;
        };
        let finish = witness
            .events
            .iter()
            .find_map(|e| match e {
                WitnessEvent::Finish {
                    sg: s, at_us: f, ..
                } if s == sg => Some(*f),
                _ => None,
            })
            .expect("every start has a finish");
        let matches: Vec<&Span> = spans.iter().filter(|s| s.detail == *sg as u64).collect();
        assert_eq!(matches.len(), 1, "exactly one span for subgraph {sg}");
        let span = matches[0];
        assert_eq!(
            span.start_us, *at_us,
            "sg {sg}: span start == witness start"
        );
        assert_eq!(
            span.start_us + span.dur_us,
            finish,
            "sg {sg}: span end == witness finish"
        );
        assert_eq!(
            span.arg0 as usize, *device as usize,
            "sg {sg}: span device == witness device"
        );
        matched += 1;
    }
    assert_eq!(matched, placed.len(), "every subgraph was witnessed");
    assert_eq!(spans.len(), placed.len(), "no spurious executor spans");

    // Happens-before: a consumer span starts no earlier than every
    // triggering producer's span ends (the witness's triggering edges
    // are the dependency order the checker verifies).
    let span_of = |sg: usize| spans.iter().find(|s| s.detail == sg as u64).unwrap();
    let mut edges = 0usize;
    for ev in &witness.events {
        let WitnessEvent::Start { sg, triggers, .. } = ev else {
            continue;
        };
        for t in triggers {
            let Some(producer) = t.producer else { continue };
            let p = span_of(producer);
            let c = span_of(*sg);
            assert!(
                p.start_us + p.dur_us <= c.start_us + 1e-9,
                "span order violates happens-before: producer {producer} ends at \
                 {} but consumer {sg} starts at {}",
                p.start_us + p.dur_us,
                c.start_us
            );
            edges += 1;
        }
    }
    assert!(edges > 0, "the model has cross-subgraph dependencies");

    // Per-device serialization: spans on one device never overlap, and
    // recording order (seq) matches virtual start order per device.
    for device in [0.0, 1.0] {
        let mut on_device: Vec<&Span> = spans.iter().filter(|s| s.arg0 == device).collect();
        on_device.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        for pair in on_device.windows(2) {
            assert!(
                pair[0].start_us + pair[0].dur_us <= pair[1].start_us + 1e-9,
                "device {device} spans overlap"
            );
            assert!(
                pair[0].seq < pair[1].seq,
                "device {device} recording order disagrees with virtual time"
            );
        }
    }

    // The run-level span carries the end-to-end virtual latency.
    let runs: Vec<Span> = duet_telemetry::spans()
        .into_iter()
        .filter(|s| s.kind == SpanKind::ExecRun)
        .collect();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].detail, placed.len() as u64);
    assert_eq!(runs[0].dur_us, witness.virtual_latency_us);

    let traced = HeterogeneousExecutor::new(&graph, &placed, SystemModel::paper_server());
    traced_reports_are_folds_of_the_witness(traced, &feeds);
}

/// The virtual start and finish of every dispatch in `witness`, by
/// subgraph.
fn intervals(witness: &ExecutionWitness) -> Vec<(usize, DeviceKind, f64, f64)> {
    witness
        .events
        .iter()
        .filter_map(|e| match e {
            WitnessEvent::Start {
                sg, device, at_us, ..
            } => {
                let finish = witness.events.iter().find_map(|f| match f {
                    WitnessEvent::Finish { sg: s, at_us, .. } if s == sg => Some(*at_us),
                    _ => None,
                });
                Some((
                    *sg,
                    *device,
                    *at_us,
                    finish.expect("every start has a finish"),
                ))
            }
            _ => None,
        })
        .collect()
}

fn assert_rel_eq(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-9 * want.abs().max(f64::MIN_POSITIVE),
        "{what}: {got} vs witness fold {want}"
    );
}

fn traced_reports_are_folds_of_the_witness(
    exec: HeterogeneousExecutor<'_>,
    feeds: &HashMap<NodeId, Tensor>,
) {
    let parent = TraceContext::root();
    let (outcome, witness) = exec
        .with_trace(parent)
        .run_witnessed(feeds)
        .expect("traced run succeeds");
    let dispatches = intervals(&witness);

    // Breakdown: busy = Σ(Finish − Start) per device, transfer = Σ
    // Transfer.time_us.
    let busy = |device| -> f64 {
        dispatches
            .iter()
            .filter(|d| d.1 == device)
            .map(|d| d.3 - d.2)
            .sum()
    };
    let transfer: f64 = witness
        .events
        .iter()
        .filter_map(|e| match e {
            WitnessEvent::Transfer { time_us, .. } => Some(*time_us),
            _ => None,
        })
        .sum();
    let b = outcome.breakdown;
    assert_rel_eq(b.cpu_busy_us, busy(DeviceKind::Cpu), "CPU busy");
    assert_rel_eq(b.gpu_busy_us, busy(DeviceKind::Gpu), "GPU busy");
    assert_rel_eq(b.transfer_us, transfer, "transfer");

    // Task counts: Starts per device.
    for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
        let starts = dispatches.iter().filter(|d| d.1 == device).count();
        assert_eq!(
            outcome.tasks_per_device[&device], starts,
            "{device:?} tasks"
        );
    }

    // Span tree: one run span under `parent`, carrying the latency; per
    // Start one subgraph span under the run and one kernel span under
    // that subgraph span, all on the witness's times.
    let spans = &outcome.trace_spans;
    let of_kind = |kind| spans.iter().filter(move |s: &&Span| s.kind == kind);
    let runs: Vec<&Span> = of_kind(SpanKind::ExecRun).collect();
    assert_eq!(runs.len(), 1, "one run span");
    let run = runs[0];
    assert_eq!(run.parent_id, parent.span_id);
    assert_eq!(run.trace_id, parent.trace_id);
    assert_eq!(run.dur_us, witness.virtual_latency_us);
    assert_eq!(run.detail, dispatches.len() as u64);
    assert_eq!(of_kind(SpanKind::ExecSubgraph).count(), dispatches.len());
    assert_eq!(of_kind(SpanKind::ExecKernel).count(), dispatches.len());
    for &(sg, device, start, finish) in &dispatches {
        let sub: Vec<&Span> = of_kind(SpanKind::ExecSubgraph)
            .filter(|s| s.detail == sg as u64)
            .collect();
        assert_eq!(sub.len(), 1, "one subgraph span for subgraph {sg}");
        let sub = sub[0];
        assert_eq!(
            sub.parent_id, run.span_id,
            "sg {sg}: parented under the run"
        );
        let kernels: Vec<&Span> = of_kind(SpanKind::ExecKernel)
            .filter(|k| k.parent_id == sub.span_id)
            .collect();
        assert_eq!(kernels.len(), 1, "one kernel span under subgraph {sg}");
        for span in [sub, kernels[0]] {
            assert_eq!(span.trace_id, parent.trace_id, "sg {sg}: same trace");
            assert_eq!(span.start_us, start, "sg {sg}: span start == witness start");
            assert_eq!(
                span.start_us + span.dur_us,
                finish,
                "sg {sg}: span end == witness finish"
            );
            assert_eq!(span.arg0 as usize, device as usize, "sg {sg}: device");
        }
    }
}
