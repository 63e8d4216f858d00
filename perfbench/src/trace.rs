//! In-memory spans and counters recorded by the benchmark around its
//! calls into each layer's public functions. The program itself carries
//! no instrumentation: a span covers exactly one call made from here.
//!
//! The benchmark runs on a single closed-loop thread, so the recorder needs no
//! locking; a span's parent is whatever span was open when it started.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Iteration id of spans and counts recorded while setting up.
pub const SETUP: u32 = 0;
/// Iteration id of the discarded warm-up.
pub const WARM_UP: u32 = 1;

/// One finished span. Times are seconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub iteration: u32,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

/// Span and counter recorder; records nothing while disabled.
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    iteration: Cell<u32>,
    open: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
    values: RefCell<Vec<(u32, &'static str, f64)>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            iteration: Cell::new(SETUP),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
            values: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tag everything recorded from now on with iteration `i`.
    pub fn set_iteration(&self, i: u32) {
        self.iteration.set(i);
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start = self.epoch.elapsed().as_secs_f64();
            let iteration = self.iteration.get();
            let id = spans.len();
            spans.push(Span { id, parent, iteration, name, start, end: start });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Record the value `v` of `name` in the current iteration; a name
    /// recorded more than once per iteration sums as a counter.
    pub fn count(&self, name: &'static str, v: f64) {
        if self.enabled.get() {
            self.values.borrow_mut().push((self.iteration.get(), name, v));
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Per-iteration sums of counter `name`, over `iterations`.
    pub fn counts(&self, name: &str, iterations: &[u32]) -> Vec<f64> {
        let values = self.values.borrow();
        iterations
            .iter()
            .map(|&i| values.iter().filter(|(it, n, _)| *it == i && *n == name).map(|v| v.2).sum())
            .collect()
    }

    /// Every single value recorded for `name` in `iterations`.
    pub fn values(&self, name: &str, iterations: &[u32]) -> Vec<f64> {
        self.values
            .borrow()
            .iter()
            .filter(|(it, n, _)| *n == name && iterations.contains(it))
            .map(|v| v.2)
            .collect()
    }

    /// Per-iteration summed duration of spans called `name`.
    pub fn span_secs(&self, name: &str, iterations: &[u32]) -> Vec<f64> {
        let spans = self.spans.borrow();
        iterations
            .iter()
            .map(|&i| {
                spans
                    .iter()
                    .filter(|s| s.iteration == i && s.name == name)
                    .map(|s| s.end - s.start)
                    .sum()
            })
            .collect()
    }

    /// Durations of every single span called `name` in `iterations`.
    pub fn each_span_secs(&self, name: &str, iterations: &[u32]) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && iterations.contains(&s.iteration))
            .map(|s| s.end - s.start)
            .collect()
    }
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that its direct children cover. Overlapping
/// children count once, and a child running past its parent's end only
/// counts inside the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in kids {
                let from = a.max(reach);
                if b > from {
                    covered += b - from;
                }
                reach = reach.max(b);
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// The spans as JSON lines, one object per span with its self time.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(selfs)
        .map(|(s, own)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\":{},\"parent\":{parent},\"iteration\":{},\"name\":\"{}\",\
                 \"start_s\":{},\"end_s\":{},\"self_s\":{own}}}\n",
                s.id, s.iteration, s.name, s.start, s.end
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span { id, parent, iteration: 2, name: "s", start, end }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..10 ⊃ child 1..4 ⊃ grandchild 2..3
        let spans =
            [span(0, None, 0.0, 10.0), span(1, Some(0), 1.0, 4.0), span(2, Some(1), 2.0, 3.0)];
        let t = self_times(&spans);
        assert!(close(t[0], 7.0), "{t:?}");
        assert!(close(t[1], 2.0), "{t:?}");
        assert!(close(t[2], 1.0), "{t:?}");
    }

    #[test]
    fn overlapping_children_count_once() {
        // children 1..5 and 3..7 cover 1..7; a third, 8..9, is disjoint.
        let spans = [
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 5.0),
            span(2, Some(0), 3.0, 7.0),
            span(3, Some(0), 8.0, 9.0),
        ];
        assert!(close(self_times(&spans)[0], 3.0));
        // A child contained in another adds nothing.
        let nested =
            [span(0, None, 0.0, 10.0), span(1, Some(0), 1.0, 9.0), span(2, Some(0), 2.0, 3.0)];
        assert!(close(self_times(&nested)[0], 2.0));
    }

    #[test]
    fn child_past_parent_end_is_clipped() {
        let spans = [span(0, None, 0.0, 4.0), span(1, Some(0), 3.0, 6.0)];
        let t = self_times(&spans);
        assert!(close(t[0], 3.0));
        assert!(close(t[1], 3.0));
    }

    #[test]
    fn recorder_nests_and_counts_per_iteration() {
        let t = Tracer::new(true);
        t.set_iteration(2);
        t.span("outer", || t.span("inner", || t.count("jobs", 3.0)));
        t.count("jobs", 1.0);
        t.set_iteration(3);
        t.set_enabled(false);
        t.span("outer", || t.count("jobs", 5.0));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(t.counts("jobs", &[2, 3]), vec![4.0, 0.0]);
        assert_eq!(t.values("jobs", &[2, 3]), vec![3.0, 1.0]);
        assert_eq!(t.span_secs("outer", &[3]), vec![0.0]);
        let lines = spans_jsonl(&spans);
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"parent\":0"));
    }
}
