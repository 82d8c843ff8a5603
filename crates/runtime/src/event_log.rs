//! The event log of one run, and every report derived from it.
//!
//! Both engines record each subgraph dispatch exactly once, as a
//! [`Dispatch`]: the subgraph, its device, its virtual start and end,
//! and the commit order of its `Start` and `Finish` among all of the
//! run's events. Nothing else is recorded while a run is in flight. The
//! reports are functions of the finished [`Run`] — the log over its
//! [`CompiledPlan`] and placement — and are built only when asked for:
//!
//! * the [`ExecutionWitness`] ([`Run::witness`]);
//! * the executor's [`ExecBreakdown`] and per-device task counts;
//! * the executor's telemetry spans ([`Run::spans`]);
//! * the simulator's timeline and transferred bytes.
//!
//! The Chrome trace is a rendering of the witness
//! ([`crate::witness_to_chrome_trace`]).

use std::collections::HashMap;

use duet_device::DeviceKind;
use duet_telemetry::{Span, SpanKind, TraceContext};

use crate::candidate::{CompiledPlan, Output};
use crate::executor::ExecBreakdown;
use crate::sim::{Placed, TimelineEntry};
use crate::witness::{ExecutionWitness, TransferKind, TriggerEdge, WitnessEvent, WitnessSource};

/// One subgraph dispatch, as an engine committed it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dispatch {
    pub sg: usize,
    pub device: DeviceKind,
    /// Virtual start and end, µs.
    pub start_us: f64,
    pub end_us: f64,
    /// Commit order of this dispatch's `Start` and `Finish` among the
    /// run's `2n` start and finish events.
    pub start_seq: u32,
    pub finish_seq: u32,
}

/// A finished run: its log, in `Finish` commit order, over the plan and
/// placement it ran.
pub(crate) struct Run<'a> {
    pub plan: &'a CompiledPlan,
    pub placed: &'a [Placed],
    pub devices: &'a [DeviceKind],
    pub log: &'a [Dispatch],
}

impl Run<'_> {
    /// The witness of the run. Events are in commit order: per `Start`,
    /// first one transfer per input that crosses the device boundary;
    /// after all dispatches, the D2H of every GPU-produced graph output.
    pub fn witness(&self, model: &str, source: WitnessSource, latency_us: f64) -> ExecutionWitness {
        let mut order: Vec<(u32, &Dispatch)> = self
            .log
            .iter()
            .flat_map(|d| [(d.start_seq, d), (d.finish_seq, d)])
            .collect();
        order.sort_unstable_by_key(|&(seq, _)| seq);
        let mut events = Vec::with_capacity(order.len());
        for (seq, d) in order {
            if seq == d.start_seq {
                self.push_start(d, &mut events);
            } else {
                events.push(WitnessEvent::Finish {
                    sg: d.sg,
                    device: d.device,
                    at_us: d.end_us,
                });
            }
        }
        events.extend(self.gpu_outputs().map(|out| WitnessEvent::Transfer {
            node: out.node,
            kind: TransferKind::DeviceToHost,
            bytes: out.bytes,
            time_us: out.d2h_us,
            consumer: None,
        }));
        ExecutionWitness {
            model: model.to_string(),
            source,
            events,
            virtual_latency_us: latency_us,
        }
    }

    fn push_start(&self, d: &Dispatch, events: &mut Vec<WitnessEvent>) {
        let triggers = self
            .plan
            .edges(d.sg)
            .iter()
            .map(|e| {
                let transfer_us = e.transfer_us_into(d.device, self.devices);
                if e.crosses(d.device, self.devices) {
                    events.push(WitnessEvent::Transfer {
                        node: e.node,
                        kind: match e.producer {
                            None => TransferKind::HostToDevice,
                            Some(_) => TransferKind::DeviceToDevice,
                        },
                        bytes: e.bytes,
                        time_us: transfer_us,
                        consumer: Some(d.sg),
                    });
                }
                TriggerEdge {
                    node: e.node,
                    producer: e.producer,
                    bytes: e.bytes,
                    transfer_us,
                }
            })
            .collect();
        events.push(WitnessEvent::Start {
            sg: d.sg,
            name: self.placed[d.sg].sg.name.clone(),
            device: d.device,
            at_us: d.start_us,
            triggers,
        });
    }

    fn gpu_outputs(&self) -> impl Iterator<Item = &Output> {
        self.plan
            .outputs()
            .iter()
            .filter(|out| self.devices[out.producer] == DeviceKind::Gpu)
    }

    /// Busy time per device and every transfer the run paid: the
    /// transfers of each dispatch's crossing inputs, then the D2H of the
    /// GPU-produced outputs.
    pub fn breakdown(&self) -> ExecBreakdown {
        let mut busy = [0.0f64; 2];
        let mut transfer_us = 0.0;
        for d in self.log {
            busy[d.device as usize] += self.plan.exec_time_us(d.sg, d.device);
            for e in self.plan.edges(d.sg) {
                transfer_us += e.transfer_us_into(d.device, self.devices);
            }
        }
        for out in self.gpu_outputs() {
            transfer_us += out.d2h_us;
        }
        ExecBreakdown {
            cpu_busy_us: busy[0],
            gpu_busy_us: busy[1],
            transfer_us,
        }
    }

    /// Dispatches per device.
    pub fn tasks_per_device(&self) -> HashMap<DeviceKind, usize> {
        let mut tasks = HashMap::from([(DeviceKind::Cpu, 0), (DeviceKind::Gpu, 0)]);
        for d in self.log {
            *tasks.entry(d.device).or_default() += 1;
        }
        tasks
    }

    /// The executor's telemetry spans, handed to `emit` in commit order:
    /// per dispatch one `ExecSubgraph` span, then the `ExecRun` span.
    /// With a `trace` parent, the run span is its child, each dispatch a
    /// child of the run, and each dispatch gets an `ExecKernel` child.
    /// Times are virtual µs, the witness's clock; a dispatch lasts its
    /// planned execution time, which ends it exactly at its logged end.
    pub fn spans(&self, trace: Option<TraceContext>, latency_us: f64, mut emit: impl FnMut(Span)) {
        let run = trace.map(|parent| parent.child());
        for d in self.log {
            let exec = self.plan.exec_time_us(d.sg, d.device);
            let (sg, device) = (d.sg as u64, d.device as u64 as f64);
            let span = Span::untraced(SpanKind::ExecSubgraph, sg, d.start_us, exec, device, 0.0);
            let Some(run) = run else {
                emit(span);
                continue;
            };
            let ctx = run.child();
            emit(span.linked(ctx, run.span_id));
            let instrs = self.placed[d.sg].sg.tape.instrs.len() as u64;
            let kernel =
                Span::untraced(SpanKind::ExecKernel, instrs, d.start_us, exec, device, 0.0);
            emit(kernel.linked(ctx.child(), ctx.span_id));
        }
        let n = self.log.len() as u64;
        let span = Span::untraced(SpanKind::ExecRun, n, 0.0, latency_us, 0.0, 0.0);
        emit(match (trace, run) {
            (Some(parent), Some(run)) => span.linked(run, parent.span_id),
            _ => span,
        });
    }

    /// The simulator's Fig. 4-style timeline, in dispatch order.
    pub fn timeline(&self) -> Vec<TimelineEntry> {
        self.log
            .iter()
            .map(|d| TimelineEntry {
                name: self.placed[d.sg].sg.name.clone(),
                device: d.device,
                start_us: d.start_us,
                end_us: d.end_us,
            })
            .collect()
    }

    /// Bytes moved across the interconnect: each dispatch's crossing
    /// inputs, then the GPU-produced outputs.
    pub fn transferred_bytes(&self) -> f64 {
        let inputs = self.log.iter().fold(0.0, |sum, d| {
            sum + self.plan.moved_bytes(d.sg, self.devices)
        });
        self.gpu_outputs().fold(inputs, |sum, out| sum + out.bytes)
    }
}
