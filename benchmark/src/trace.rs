//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! crates' public functions; the program under test is not instrumented.
//! Each span has a name, a start and end (nanoseconds since the run's
//! epoch), the span that was open when it started, and the id of the
//! selection or request it belongs to. Spans stay in memory until the
//! benchmark ends and are then written out as one JSON array.

use cfcc_util::json::{array, JsonObject};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.delta`.
    pub name: &'static str,
    /// Selection or request the span belongs to.
    pub trace: u64,
    /// Index of this span in the recorder.
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans on one thread. Threads that trace concurrently
/// each own a recorder with the same epoch and are merged at the end.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Append another recorder's spans (same epoch), renumbering its ids.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All closed spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0; report it as 0
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of every span named `name`, in seconds: each span's
    /// duration minus the part of its interval its child spans cover.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            let mut kids: Vec<(u64, u64)> = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            total += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
        }
        total
    }

    /// Render every span as a JSON array.
    pub fn to_json(&self) -> String {
        array(self.spans.iter().map(|s| {
            let obj = JsonObject::new()
                .str("name", s.name)
                .int("trace", s.trace)
                .int("id", s.id as u64)
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns);
            match s.parent {
                Some(p) => obj.int("parent", p as u64),
                None => obj.raw("parent", "null"),
            }
            .render()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: usize, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            trace: 0,
            id,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let mut r = Recorder::new(Instant::now());
        r.spans = vec![
            span("outer", 0, None, 0, 1_000),
            span("kid", 1, Some(0), 100, 300),
            // Overlaps the first child: the shared 200..300 counts once.
            span("kid", 2, Some(0), 200, 400),
            // A grandchild is covered by its parent, not by "outer".
            span("leaf", 3, Some(2), 250, 260),
        ];
        assert!((r.self_time("outer") - 700e-9).abs() < 1e-15);
        assert!((r.self_time("kid") - (200e-9 + 190e-9)).abs() < 1e-15);
        assert!((r.total("kid") - 400e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_record_parents_and_merge_renumbers() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.span("select", 7, |r| r.span("core.delta", 7, |_| ()));
        let mut b = Recorder::new(epoch);
        b.span("select", 8, |r| r.span("core.delta", 8, |_| ()));
        a.merge(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[3].trace, 8);
        assert!(s.iter().all(|x| x.start_ns <= x.end_ns));
        assert!(a.to_json().starts_with("[{\"name\":\"select\""));
    }
}
