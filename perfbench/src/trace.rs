//! The traced run's span recorder.
//!
//! Spans are recorded by benchmark code around its calls into each public
//! layer, kept in memory, and written out when the run ends. Every span
//! carries the id of the operation (request, inference or engine build)
//! it belongs to, and the id of the span that caused it. A span's *self
//! time* is its duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans written to the trace file; the rest are still aggregated.
const WRITE_LIMIT: usize = 20_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Causing span's id, `NONE` for a root.
    pub parent: usize,
    /// Operation the span belongs to.
    pub op: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span id is its index in the recorder; `NONE` marks "no parent".
pub const NONE: usize = usize::MAX;

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a span timed elsewhere (on another thread, or inside the
    /// program as reported by its own timestamps).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            parent,
            op,
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: usize, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, op, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.us(Instant::now());
    }

    /// Time `f` as a span; returns its result and duration in µs.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, op);
        let r = f();
        self.close(id);
        (r, self.spans[id].dur_us())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`]: its
    /// duration minus the union of its children's intervals.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start_us;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_us() - covered
            })
            .collect()
    }

    /// Sum `self_us` (from [`Tracer::self_times`]) over the spans whose
    /// name passes `pick`, per `group(op)`; one total per group, in group
    /// order.
    pub fn group_sum(
        &self,
        self_us: &[f64],
        pick: impl Fn(&str) -> bool,
        group: impl Fn(u64) -> u64,
    ) -> Vec<f64> {
        let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self_us) {
            if pick(s.name) {
                *totals.entry(group(s.op)).or_default() += st;
            }
        }
        totals.into_values().collect()
    }

    /// Write the spans (the first [`WRITE_LIMIT`] of them) as JSON.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let self_us = self.self_times();
        let mut out = String::from("{\"spans\":[");
        for (i, (s, st)) in self
            .spans
            .iter()
            .zip(&self_us)
            .take(WRITE_LIMIT)
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name, s.op, s.start_us, s.end_us, st
            )
            .expect("write to String");
        }
        write!(
            out,
            "],\"recorded\":{},\"written\":{}}}",
            self.spans.len(),
            self.spans.len().min(WRITE_LIMIT)
        )
        .expect("write to String");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut t = Tracer::new();
        let o = t.origin;
        let at = |us: u64| o + Duration::from_micros(us);
        let root = t.record("root", NONE, 1, at(0), at(100));
        t.record("a", root, 1, at(10), at(40));
        // Overlaps `a`: only 30..50 is new.
        t.record("b", root, 1, at(30), at(50));
        let st = t.self_times();
        assert!((st[root] - 60.0).abs() < 1e-6, "{}", st[root]);
        assert!((st[1] - 30.0).abs() < 1e-6);
    }
}
