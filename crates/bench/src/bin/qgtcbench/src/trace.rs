//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public function; nothing inside the program is instrumented. Each span
//! holds its name, start, end, parent and (for serving spans) the request
//! ticket. Two clocks share one file: epoch and replay spans use wall time
//! since the recorder started, serving spans use the open loop's virtual
//! clock (arrival schedule plus measured service time), each on its own
//! process lane of the Chrome trace.

use std::fmt::Write as _;
use std::time::Instant;

/// Which clock a span's timestamps are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Virtual,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub clock: Clock,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Span store. When disabled every call is a no-op returning `None`, so
/// the untraced passes run the same code at the cost of a branch.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    /// Added to every virtual-clock span, so that successive sessions (each
    /// starting its virtual clock at zero) follow one another in the trace.
    virtual_origin_us: f64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            virtual_origin_us: 0.0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Microseconds since the recorder started.
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a wall-clock span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name,
            clock: Clock::Wall,
            start_us: now,
            end_us: now,
            parent,
            request: None,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_us = self.now_us();
        }
    }

    /// Time `f` as a wall-clock span. The duration is returned whether or
    /// not the recorder is enabled.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.close(id);
        (out, ms)
    }

    /// Record an already-measured span (used for the virtual clock).
    pub fn record(&mut self, mut span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if span.clock == Clock::Virtual {
            span.start_us += self.virtual_origin_us;
            span.end_us += self.virtual_origin_us;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Move the virtual-clock origin past a session that ran until
    /// `end_us` on its own virtual clock.
    pub fn advance_virtual(&mut self, end_us: f64) {
        self.virtual_origin_us += end_us;
    }

    /// Durations of every span with this name, in milliseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }

    /// Summed durations (ms) of the spans named `name` under each span named
    /// `root`, one entry per such root in recording order: the per-pass
    /// totals of a repeated pass.
    pub fn per_root(&self, name: &str, root: &str) -> Vec<f64> {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == root)
            .collect();
        let mut sums = vec![0.0; roots.len()];
        for span in self.spans.iter().filter(|s| s.name == name) {
            let mut up = span.parent;
            while let Some(id) = up {
                if let Ok(slot) = roots.binary_search(&id) {
                    sums[slot] += span.dur_ms();
                    break;
                }
                up = self.spans[id].parent;
            }
        }
        sums
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// that its children cover (overlapping children counted once).
    pub fn self_ms(&self, id: usize) -> f64 {
        let parent = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        parent.dur_ms() - covered / 1e3
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// ("X") event per span; process 1 is the wall clock, process 2 the
    /// serving virtual clock.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (pid, label) in [(1, "wall clock"), (2, "serving virtual clock")] {
            let _ = writeln!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\"args\":{{\"name\":\"{label}\"}}}},"
            );
        }
        for (id, s) in self.spans.iter().enumerate() {
            let pid = match s.clock {
                Clock::Wall => 1,
                Clock::Virtual => 2,
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id}",
                s.name,
                s.start_us,
                s.end_us - s.start_us
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            clock: Clock::Wall,
            start_us,
            end_us,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(true);
        let root = r.record(span("epoch", 0.0, 10_000.0, None)).unwrap();
        // Two overlapping children cover 1..4 ms; a third 6..7 ms; one
        // spills past the parent's end and is clipped to 9..10 ms.
        r.record(span("a", 1_000.0, 3_000.0, Some(root)));
        r.record(span("b", 2_000.0, 4_000.0, Some(root)));
        r.record(span("c", 6_000.0, 7_000.0, Some(root)));
        r.record(span("d", 9_000.0, 12_000.0, Some(root)));
        // A grandchild does not count against the root.
        r.record(span("e", 1_500.0, 2_500.0, Some(1)));
        assert!((r.self_ms(root) - 5.0).abs() < 1e-9);
        assert!((r.self_ms(1) - 1.0).abs() < 1e-9);
        assert!(
            (r.self_ms(5) - 1.0).abs() < 1e-9,
            "a leaf's self time is its duration"
        );
    }

    #[test]
    fn per_root_sums_descendants_of_each_root() {
        let mut r = Recorder::new(true);
        for pass in 0..2 {
            let root = r.record(span("replay", 0.0, 100.0, None));
            for b in 0..3 {
                let batch = r.record(span("replay.batch", 0.0, 10.0, root));
                let ms = (pass * 10 + b) as f64;
                r.record(span("gnn.forward", 0.0, ms * 1e3, batch));
            }
        }
        r.record(span("gnn.forward", 0.0, 5e3, None));
        assert_eq!(r.per_root("gnn.forward", "replay"), vec![3.0, 33.0]);
        assert_eq!(r.per_root("gnn.forward", "nothing"), Vec::<f64>::new());
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_times() {
        let mut r = Recorder::new(false);
        let (v, ms) = r.time("x", None, || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(r.record(span("y", 0.0, 1.0, None)).is_none());
        assert!(r.spans.is_empty());
    }

    #[test]
    fn chrome_export_has_one_event_per_span_and_parses() {
        let mut r = Recorder::new(true);
        let root = r.open("setup", None);
        r.time("materialise", root, || ());
        r.close(root);
        let virtual_span = Span {
            clock: Clock::Virtual,
            request: Some(3),
            ..span("serve.drain", 5.0, 9.0, None)
        };
        r.record(virtual_span.clone());
        r.advance_virtual(10.0);
        let second = r.record(virtual_span).unwrap();
        assert_eq!(
            r.spans[second].start_us, 15.0,
            "the next session follows the first"
        );
        let json = r.chrome_json();
        let doc = crate::json::parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), 2 + 4);
        assert!(json.contains("\"request\":3"));
        assert!(json.contains("\"parent\":0"));
    }
}
