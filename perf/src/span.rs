//! Spans recorded by the benchmark around calls into each layer's public
//! API. They stay in memory and are written out when the run ends; an
//! untraced run records none.

use crate::json::Json;
use std::time::Instant;

/// One timed interval. `trace` groups the spans of one pass or case
/// (`<workload>/<pass>/<case>`); `parent` is the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub trace: String,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. When off, every call is a no-op and `open`
/// returns `None`, so untraced passes pay one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// Pauses or resumes recording (an untraced pass inside a traced run).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, parent: Option<u32>, trace: &str, name: &'static str) -> Option<u32> {
        let now = Instant::now();
        self.record(parent, trace, name, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Records a finished span from timestamps the caller already took.
    pub fn record(
        &mut self,
        parent: Option<u32>,
        trace: &str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            id,
            parent,
            trace: trace.to_string(),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(id)
    }
}

/// Self time of every span, indexed like `spans` (ids are indices): its
/// duration minus the part of its interval that its direct children
/// cover. Overlapping children count once; a child's time outside its
/// parent's interval is not subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of the self times of the spans named `name` whose trace starts
/// with `trace_prefix`, in seconds.
pub fn self_seconds(spans: &[Span], selfs: &[u64], trace_prefix: &str, name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name && s.trace.starts_with(trace_prefix))
        .map(|(_, &t)| t)
        .sum();
    ns as f64 / 1e9
}

/// One JSON line per span, with its self time.
pub fn to_json_lines(spans: &[Span]) -> Vec<String> {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(&selfs)
        .map(|(s, &own)| {
            Json::obj([
                ("id", Json::from(u64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| u64::from(p).into()),
                ),
                ("trace", s.trace.as_str().into()),
                ("name", s.name.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("self_ns", own.into()),
            ])
            .to_string()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: "t".into(),
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(0, None, "pass", 0, 100),
            // Overlapping children count once: [10, 50) covers 40.
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 20, 50),
            // A child reaching past its parent only covers [90, 100).
            span(3, Some(0), "c", 90, 120),
            // A grandchild is its parent's business, not the pass's.
            span(4, Some(1), "d", 12, 18),
            // Out-of-order ids are fine; a child wholly inside another.
            span(5, Some(0), "e", 25, 28),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![50, 14, 30, 30, 6, 3]);
        assert_eq!(self_seconds(&spans, &selfs, "t", "pass"), 50e-9);
        assert_eq!(self_seconds(&spans, &selfs, "other", "pass"), 0.0);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration_and_touching_children_do_not_overlap() {
        let spans = vec![
            span(0, None, "case", 0, 10),
            span(1, Some(0), "x", 0, 4),
            span(2, Some(0), "y", 4, 10),
        ];
        assert_eq!(self_times(&spans), vec![0, 4, 6]);
    }

    #[test]
    fn an_untraced_recorder_keeps_nothing() {
        let mut off = Tracer::new(false);
        let id = off.open(None, "t", "pass");
        assert_eq!(id, None);
        off.close(id);
        assert!(off.spans().is_empty());
        let mut on = Tracer::new(true);
        let id = on.open(None, "t", "pass");
        on.close(id);
        assert_eq!(on.spans().len(), 1);
        assert!(on.spans()[0].end_ns >= on.spans()[0].start_ns);
    }
}
