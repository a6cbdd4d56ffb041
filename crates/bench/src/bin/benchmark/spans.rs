//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only in the traced run, from outside the program:
//! each one brackets a public call (or a loop of them) and nests under
//! whichever span was open when it began. They are written out once,
//! when the run ends.

use std::time::Instant;

use serde::Serialize;

/// One closed span: nanoseconds since the tracer started, and the index
/// of its parent span in the same list.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub workload: &'static str,
}

/// A stack of open spans over a list of recorded ones.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; closing it out of order is a bug.
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let i = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            workload: self.workload,
        });
        self.open.push(i);
        Open(i)
    }

    /// Closes `span` and returns its length in seconds.
    pub fn end(&mut self, span: Open) -> f64 {
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        let s = &mut self.spans[span.0];
        s.end_ns = self.origin.elapsed().as_nanos() as u64;
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Total seconds in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Total seconds in spans named `name`, less the time their direct
    /// children cover.
    pub fn self_time(&self, name: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|c| (c.end_ns - c.start_ns) as f64 * 1e-9)
            .sum();
        self.total(name) - children
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f`, inside a span named `name` when there is a tracer.
pub fn maybe<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("w");
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.total("inner") >= 0.04);
        assert!(t.self_time("outer") >= 0.0);
        assert!(t.self_time("outer") < t.total("inner"));
        assert_eq!(t.self_time("inner"), t.total("inner"));
    }
}
