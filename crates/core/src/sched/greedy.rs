//! Greedy-correction scheduling (Algorithm 1).

use duet_device::{DeviceKind, SystemModel};
use duet_ir::Graph;
use duet_runtime::CompiledPlan;
use duet_telemetry::SpanKind;

use super::{unit_plan, SubgraphUnit};
use crate::partition::PhaseKind;

/// Relative improvement below which a correction move is considered noise.
const EPS: f64 = 1e-9;
/// Hard cap on correction iterations per phase (the loop converges long
/// before this; the cap guards against measurement oscillation).
const MAX_ROUNDS: usize = 64;

/// Steps 1 + 2: critical-path-first greedy placement.
pub fn greedy_placement(units: &[SubgraphUnit]) -> Vec<DeviceKind> {
    let mut devices = vec![DeviceKind::Cpu; units.len()];
    let phases: Vec<usize> = {
        let mut p: Vec<usize> = units.iter().map(|u| u.phase).collect();
        p.dedup();
        p
    };
    for phase in phases {
        let idxs: Vec<usize> = (0..units.len())
            .filter(|&i| units[i].phase == phase)
            .collect();
        if units[idxs[0]].kind == PhaseKind::Sequential {
            // Step 1, sequential phase: the chain is on the critical path
            // by definition; give it its faster device.
            for &i in &idxs {
                devices[i] = units[i].profile.best_device();
            }
            continue;
        }
        // Step 1, multi-path phase: the costliest subgraph (cost =
        // min(cpu, gpu)) joins the critical path on its faster device.
        let crit = *idxs
            .iter()
            .max_by(|&&a, &&b| {
                units[a]
                    .profile
                    .best_time()
                    .total_cmp(&units[b].profile.best_time())
            })
            .expect("phase non-empty");
        devices[crit] = units[crit].profile.best_device();
        let mut load = [0.0f64; 2];
        load[devices[crit] as usize] += units[crit].profile.time_on(devices[crit]);
        // Step 2: remaining subgraphs in decreasing cost order, each to
        // the device that least increases the phase makespan.
        let mut rest: Vec<usize> = idxs.iter().copied().filter(|&i| i != crit).collect();
        rest.sort_by(|&a, &b| {
            units[b]
                .profile
                .best_time()
                .total_cmp(&units[a].profile.best_time())
        });
        for i in rest {
            let mut best = (f64::INFINITY, DeviceKind::Cpu);
            for d in DeviceKind::both() {
                let mut l = load;
                l[d as usize] += units[i].profile.time_on(d);
                let makespan = l[0].max(l[1]);
                // Strict `<` keeps the CPU on ties (cheaper to reach).
                if makespan < best.0 {
                    best = (makespan, d);
                }
            }
            devices[i] = best.1;
            load[best.1 as usize] += units[i].profile.time_on(best.1);
        }
    }
    devices
}

/// Telemetry payload for one candidate move: encoded identity (single
/// move `i+1`, pairwise swap `i*1024 + j + 1`), predicted latency, and
/// the margin vs the epsilon-scaled incumbent (positive = improving).
fn encode_move(mv: &[usize]) -> u64 {
    match mv {
        [i] => *i as u64 + 1,
        [i, j] => *i as u64 * 1024 + *j as u64 + 1,
        _ => 0,
    }
}

fn record_rejected(encoded: u64, t_new: f64, margin: f64) {
    duet_telemetry::registry::SCHED_MOVES_REJECTED.inc();
    duet_telemetry::record_instant(SpanKind::SchedMoveRejected, encoded, t_new, margin);
}

fn record_accepted(encoded: u64, t_new: f64, margin: f64, gain_us: f64) {
    duet_telemetry::registry::SCHED_MOVES_ACCEPTED.inc();
    duet_telemetry::registry::SCHED_ACCEPTED_GAIN_US.observe_us(gain_us);
    duet_telemetry::record_instant(SpanKind::SchedMoveAccepted, encoded, t_new, margin);
}

/// Step 3: per-multi-path-phase swap refinement against measured
/// end-to-end latency.
pub fn correct(
    graph: &Graph,
    units: &[SubgraphUnit],
    system: &SystemModel,
    devices: Vec<DeviceKind>,
) -> Vec<DeviceKind> {
    correct_on(&unit_plan(graph, units, system), units, devices)
}

/// [`correct`] measuring every candidate move on `plan`, a plan of
/// `units`.
pub(crate) fn correct_on(
    plan: &CompiledPlan,
    units: &[SubgraphUnit],
    mut devices: Vec<DeviceKind>,
) -> Vec<DeviceKind> {
    use duet_telemetry::registry as tm;
    let correction_start = duet_telemetry::clock_us();
    tm::SCHED_CORRECTIONS.inc();
    let mut rounds_total = 0u64;
    let mut t_old = plan.makespan(&devices);
    let t_initial = t_old;
    let phases: Vec<usize> = {
        let mut p: Vec<usize> = units.iter().map(|u| u.phase).collect();
        p.dedup();
        p
    };
    // The paper runs the correction once per multi-path layer; a model may
    // have several such layers (§IV-C), so loop phases in order.
    for phase in phases {
        let idxs: Vec<usize> = (0..units.len())
            .filter(|&i| units[i].phase == phase)
            .collect();
        if units[idxs[0]].kind != PhaseKind::MultiPath {
            continue;
        }
        for round in 0..MAX_ROUNDS {
            let round_start = duet_telemetry::clock_us();
            tm::SCHED_ROUNDS.inc();
            rounds_total += 1;
            // Enumerate single moves and pairwise swaps within the phase
            // ("one of the subgraphs could be empty" — a single move is a
            // swap against the empty subgraph).
            let cpu_side: Vec<usize> = idxs
                .iter()
                .copied()
                .filter(|&i| devices[i] == DeviceKind::Cpu)
                .collect();
            let gpu_side: Vec<usize> = idxs
                .iter()
                .copied()
                .filter(|&i| devices[i] == DeviceKind::Gpu)
                .collect();
            let mut moves: Vec<Vec<usize>> = Vec::new();
            for &i in cpu_side.iter().chain(gpu_side.iter()) {
                moves.push(vec![i]);
            }
            for &i in &cpu_side {
                for &j in &gpu_side {
                    moves.push(vec![i, j]);
                }
            }
            let mut best: Option<(f64, Vec<usize>)> = None;
            for mv in moves {
                for &i in &mv {
                    devices[i] = devices[i].other();
                }
                let t_new = plan.makespan(&devices);
                for &i in &mv {
                    devices[i] = devices[i].other();
                }
                tm::SCHED_MOVES_EVALUATED.inc();
                let margin = t_old * (1.0 - EPS) - t_new;
                if t_new < t_old * (1.0 - EPS)
                    && best.as_ref().map(|(b, _)| t_new < *b).unwrap_or(true)
                {
                    // The superseded incumbent candidate ends up rejected.
                    if let Some((b_t, b_mv)) = best.replace((t_new, mv)) {
                        record_rejected(encode_move(&b_mv), b_t, t_old * (1.0 - EPS) - b_t);
                    }
                } else {
                    record_rejected(encode_move(&mv), t_new, margin);
                }
            }
            duet_telemetry::record_span(
                SpanKind::SchedRound,
                round as u64,
                round_start,
                duet_telemetry::clock_us() - round_start,
                t_old,
                0.0,
            );
            match best {
                Some((t_new, mv)) => {
                    for &i in &mv {
                        devices[i] = devices[i].other();
                    }
                    record_accepted(
                        encode_move(&mv),
                        t_new,
                        t_old * (1.0 - EPS) - t_new,
                        t_old - t_new,
                    );
                    t_old = t_new;
                }
                None => break, // no improving move: converged for this phase
            }
        }
    }
    // Final global pass: single-subgraph moves across *all* phases,
    // including sequential ones. Algorithm 1 only refines multi-path
    // layers — sufficient when step 1 placed every sequential chain on
    // its faster device, but a correction run from an arbitrary
    // initialisation (the Random+Correction baseline of §VI-C) must also
    // be able to repair a misplaced sequential phase.
    for round in 0..MAX_ROUNDS {
        let round_start = duet_telemetry::clock_us();
        tm::SCHED_ROUNDS.inc();
        rounds_total += 1;
        let mut best: Option<(f64, usize)> = None;
        for i in 0..units.len() {
            devices[i] = devices[i].other();
            let t_new = plan.makespan(&devices);
            devices[i] = devices[i].other();
            tm::SCHED_MOVES_EVALUATED.inc();
            let margin = t_old * (1.0 - EPS) - t_new;
            if t_new < t_old * (1.0 - EPS) && best.as_ref().map(|(b, _)| t_new < *b).unwrap_or(true)
            {
                if let Some((b_t, b_i)) = best.replace((t_new, i)) {
                    record_rejected(b_i as u64 + 1, b_t, t_old * (1.0 - EPS) - b_t);
                }
            } else {
                record_rejected(i as u64 + 1, t_new, margin);
            }
        }
        duet_telemetry::record_span(
            SpanKind::SchedRound,
            round as u64,
            round_start,
            duet_telemetry::clock_us() - round_start,
            t_old,
            0.0,
        );
        match best {
            Some((t_new, i)) => {
                devices[i] = devices[i].other();
                record_accepted(
                    i as u64 + 1,
                    t_new,
                    t_old * (1.0 - EPS) - t_new,
                    t_old - t_new,
                );
                t_old = t_new;
            }
            None => break,
        }
    }
    tm::SCHED_PREDICTED_LATENCY_US.set(t_old as i64);
    duet_telemetry::record_span(
        SpanKind::SchedCorrection,
        rounds_total,
        correction_start,
        duet_telemetry::clock_us() - correction_start,
        t_initial,
        t_old,
    );
    devices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use crate::sched::{make_units, placement_latency};
    use duet_compiler::Compiler;
    use duet_device::SystemModel;
    use duet_models::{siamese, wide_and_deep, SiameseConfig, WideAndDeepConfig};
    use duet_runtime::Profiler;

    fn units_for(graph: &Graph) -> Vec<SubgraphUnit> {
        let part = partition(graph);
        let compiler = Compiler::default();
        let sgs = part.compile(graph, &compiler);
        let profiler = Profiler::new(SystemModel::paper_server());
        let profiles = profiler.profile_all(graph, &sgs);
        make_units(&part, sgs, profiles)
    }

    #[test]
    fn wide_and_deep_greedy_splits_rnn_cpu_cnn_gpu() {
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let units = units_for(&g);
        let devices = greedy_placement(&units);
        for (u, d) in units.iter().zip(&devices) {
            if u.sg.name.starts_with("rnn") {
                assert_eq!(*d, DeviceKind::Cpu, "RNN belongs on CPU");
            }
            if u.sg.name.starts_with("cnn@") {
                assert_eq!(*d, DeviceKind::Gpu, "CNN belongs on GPU");
            }
        }
    }

    #[test]
    fn correction_never_hurts() {
        let sys = SystemModel::paper_server();
        for g in [
            wide_and_deep(&WideAndDeepConfig::default()),
            siamese(&SiameseConfig::default()),
        ] {
            let units = units_for(&g);
            let init = greedy_placement(&units);
            let t_init = placement_latency(&g, &units, &sys, &init);
            let corrected = correct(&g, &units, &sys, init);
            let t_corr = placement_latency(&g, &units, &sys, &corrected);
            assert!(t_corr <= t_init + 1e-9, "{}: {t_corr} <= {t_init}", g.name);
        }
    }

    #[test]
    fn correction_fixes_adversarial_start() {
        // Start from the *worst* intuition: RNN on GPU, CNN on CPU.
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let sys = SystemModel::paper_server();
        let units = units_for(&g);
        let adversarial: Vec<DeviceKind> = units
            .iter()
            .map(|u| {
                if u.sg.name.starts_with("rnn") {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                }
            })
            .collect();
        let t_bad = placement_latency(&g, &units, &sys, &adversarial);
        let fixed = correct(&g, &units, &sys, adversarial);
        let t_fixed = placement_latency(&g, &units, &sys, &fixed);
        assert!(
            t_fixed < t_bad * 0.8,
            "correction recovers: {t_fixed} < {t_bad}"
        );
    }

    #[test]
    fn sequential_phases_get_their_best_device() {
        let g = siamese(&SiameseConfig::default());
        let units = units_for(&g);
        let devices = greedy_placement(&units);
        for (u, d) in units.iter().zip(&devices) {
            if u.kind == PhaseKind::Sequential {
                assert_eq!(*d, u.profile.best_device());
            }
        }
    }
}
