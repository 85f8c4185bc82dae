//! In-memory spans recorded by the harness *around* calls into each crate's
//! public functions, kept until the run ends and then written out.
//!
//! A span is `{name, start_ns, end_ns, parent, request}`: `parent` is the
//! index of the span that caused it (a replay pass is the parent of the
//! per-request spans it records) and spans of one operation share its
//! `request` number. A span's self time is its duration minus the time its
//! direct children cover.

use crate::obj;
use serde::{Content, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<function>` of the call the span brackets.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// The operation (query or write number) the span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Number of spans with the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Self time of every span: duration minus the summed durations of its
/// direct children (children of one parent never overlap here — the harness
/// is single-threaded — so the sum is the covered interval). Saturates at 0.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            if let Some(slot) = covered.get_mut(parent) {
                *slot += span.duration_ns();
            }
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, children)| span.duration_ns().saturating_sub(children))
        .collect()
}

/// Totals per span name, ordered by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The span recorder. Capacity is reserved up front so recording never
/// allocates inside a measured pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// The currently open pass span, parent of everything recorded inside.
    open_parent: Option<usize>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open_parent: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span named `name` for operation `request`, child of
    /// the open pass (if any). Returns `f`'s result and the span's ns.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open_parent,
            request,
        });
        (out, end_ns - start_ns)
    }

    /// Runs `body` inside a parent span named `name`: every span `body`
    /// records becomes its child, so the pass's self time is the harness's
    /// own loop cost.
    pub fn pass<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let outer = self.open_parent;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: outer,
            request: 0,
        });
        self.open_parent = Some(index);
        let out = body(self);
        self.open_parent = outer;
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration in µs of the spans named `name`; 0 when there are none.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.duration_ns()));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// Total duration in µs of the spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e3
    }

    /// The whole trace as a tree: per-name totals, then every span.
    pub fn to_content(&self) -> Content {
        let summary = totals_by_name(&self.spans)
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    obj([
                        ("count", t.count.to_content()),
                        ("total_ns", t.total_ns.to_content()),
                        ("self_ns", t.self_ns.to_content()),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", s.name.to_content()),
                    ("start_ns", s.start_ns.to_content()),
                    ("end_ns", s.end_ns.to_content()),
                    ("parent", s.parent.to_content()),
                    ("request", s.request.to_content()),
                ])
            })
            .collect();
        obj([
            ("summary", Content::Map(summary)),
            ("spans", Content::Seq(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, 100, None),    // 0: root, children 1 and 4
            span(10, 40, Some(0)), // 1: child with its own children 2, 3
            span(12, 20, Some(1)), // 2
            span(25, 35, Some(1)), // 3: sibling of 2
            span(50, 90, Some(0)), // 4: sibling of 1, leaf
            span(200, 230, None),  // 5: unrelated root, no children
        ];
        // Grandchildren count against their parent only, never the root.
        assert_eq!(self_times(&spans), vec![30, 12, 8, 10, 40, 30]);
    }

    #[test]
    fn self_time_saturates_and_ignores_dangling_parents() {
        let spans = vec![
            span(0, 10, None),
            span(0, 8, Some(0)),
            span(0, 8, Some(0)), // children sum past the parent: clamp to 0
            span(0, 5, Some(99)),
        ];
        assert_eq!(self_times(&spans), vec![0, 8, 8, 5]);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_pass() {
        let mut t = Tracer::with_capacity(8);
        t.span("outside", 7, || ());
        t.pass("pass", |t| {
            t.span("inner", 1, || ());
            t.span("inner", 2, || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].name, "pass");
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!(spans[3].request, 2);
        assert!(spans[1].end_ns >= spans[3].end_ns);
        let totals = totals_by_name(spans);
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(
            totals["pass"].self_ns,
            spans[1].duration_ns() - spans[2].duration_ns() - spans[3].duration_ns()
        );
    }
}
