//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each product layer (spans *inside* the product are ROADMAP
//! item 2's later change).
//!
//! One [`Tracer`] per thread; spans nest through an explicit open/close
//! stack, carry the id of the step or request they belong to, and stay
//! in memory until the run ends, when [`write_chrome_trace`] writes them
//! as Chrome-trace JSON. With the tracer off, `open`/`close` cost one
//! branch, which is how the same loop serves as the untraced reference
//! for `bench.trace_overhead_frac`.

use crate::json::Json;
use std::path::Path;
use std::time::Instant;

/// Parent index of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.what`; the layer is the product crate the time belongs to.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Step or request this span belongs to.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

/// Handle returned by [`Tracer::open`]; pass it back to `close`.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Thread lane in the exported trace (world rank, or a role id).
    pub tid: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run so lanes line up.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `t` on this tracer's clock.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span nested under the currently open one.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            id,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// End the innermost open span (must be `open`'s handle).
    pub fn close(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost-first");
        self.spans[open.0 as usize].end_ns = self.now_ns();
    }

    /// Record a finished child of the innermost open span whose duration
    /// was measured elsewhere (e.g. `DpOverlap::take_comm_wait` reports
    /// time blocked *inside* the step call). It is placed at the end of
    /// its parent.
    pub fn child_at_end(&mut self, name: &'static str, id: u64, dur_ns: u64) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now.saturating_sub(dur_ns),
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            id,
        });
    }

    /// Record a finished top-level span from two instants taken by the
    /// caller (a request's span ends at the server's completion stamp).
    pub fn push_closed(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            let start_ns = self.ns_of(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: self.ns_of(end).max(start_ns),
                parent: NO_PARENT,
                id,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }

    /// Total duration (ms) of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Self time per span: its duration minus the part its children
    /// cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time (ms) of every layer span inside `[start_ns, end_ns]`:
    /// what the trace attributes to a product layer. `bench.*` spans are
    /// the harness's own structure (a rep, an iteration) and attribute
    /// nothing. Divided by the window's wall time this is
    /// `core.span_coverage`; what is missing is harness self time.
    pub fn attributed_ms(&self, start_ns: u64, end_ns: u64) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| {
                !s.name.starts_with("bench.") && s.start_ns >= start_ns && s.end_ns <= end_ns
            })
            .map(|(_, own)| own as f64 / 1e6)
            .sum()
    }
}

/// Write every tracer's spans as one Chrome-trace (`chrome://tracing`,
/// Perfetto) JSON file: complete events, one lane per tracer.
pub fn write_chrome_trace(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut events = Vec::new();
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(layer)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(t.tid))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        ("span", Json::Num(i as f64)),
                        (
                            "parent",
                            if s.parent == NO_PARENT {
                                Json::Null
                            } else {
                                Json::Num(f64::from(s.parent))
                            },
                        ),
                    ]),
                ),
            ]));
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
        .encode(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let root = t.open("bench.iteration", 1);
        let a = t.open("gan.step", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.child_at_end("comm.wait", 1, 500_000);
        t.close(a);
        t.close(root);
        let own = t.self_ns();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(own[1], spans[1].dur_ns() - 500_000);
        assert!(own[0] < spans[0].dur_ns());
        // step self + wait = the step's whole duration; the root adds none
        let attributed = t.attributed_ms(0, u64::MAX);
        assert!((attributed - spans[1].dur_ms()).abs() < 1e-9);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let o = t.open("x.y", 0);
        t.close(o);
        t.child_at_end("x.z", 0, 10);
        assert!(t.spans().is_empty());
    }
}
