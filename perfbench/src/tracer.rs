//! In-memory wall-clock spans around the calls the benchmark makes into
//! each layer, written out when the run ends.
//!
//! Each thread records into its own [`Lane`]; a span knows its name,
//! start, end, parent and run id. A layer's self time is its span's
//! duration minus the part of that interval its children cover, where
//! children on other lanes (worker threads under the run's root span)
//! count as a union of intervals.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The cell the call was about, if any.
    pub cell: Option<u32>,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer. Ids are unique across lanes of a run
/// (the lane number sits in the top bits).
pub struct Lane {
    origin: Instant,
    run: u32,
    next_id: u64,
    /// Open spans: (id, name, start, cell).
    stack: Vec<(u64, &'static str, u64, Option<u32>)>,
    /// The parent for spans opened with an empty stack.
    root: Option<u64>,
    pub spans: Vec<SpanRec>,
}

impl Lane {
    pub fn new(origin: Instant, run: u32, lane: u32, root: Option<u64>) -> Self {
        Lane {
            origin,
            run,
            next_id: u64::from(lane) << 40,
            stack: Vec::new(),
            root,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, cell: Option<u32>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now_ns();
        self.stack.push((id, name, start, cell));
        id
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end = self.now_ns();
        let (id, name, start_ns, cell) = self.stack.pop().expect("a span is open");
        let parent = self.stack.last().map(|s| s.0).or(self.root);
        self.spans.push(SpanRec {
            id,
            parent,
            run: self.run,
            name,
            start_ns,
            end_ns: end,
            cell,
        });
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, cell: Option<u32>, f: impl FnOnce() -> R) -> R {
        self.open(name, cell);
        let out = f();
        self.close();
        out
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, by id: duration minus the union of its
/// children's intervals (clipped to the parent).
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some((ps, pe)) = s.parent.and_then(|p| bounds.get(&p)) {
            let (cs, ce) = (s.start_ns.max(*ps), s.end_ns.min(*pe));
            if cs < ce {
                children
                    .entry(s.parent.unwrap())
                    .or_default()
                    .push((cs, ce));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.remove(&s.id).map_or(0, union_ns);
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += selfs[&s.id];
    }
    out
}

/// The spans as JSON lines, in start order.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut sorted: Vec<&SpanRec> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::new();
    for s in sorted {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let cell = s.cell.map_or("null".to_string(), |c| c.to_string());
        let _ = writeln!(
            out,
            "{{\"run\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cell\":{cell}}}",
            s.run, s.id, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            run: 1,
            name,
            start_ns: start,
            end_ns: end,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children on different lanes cover [10, 60).
        let spans = vec![
            span(1, None, "run", 0, 100),
            span(2, Some(1), "step", 10, 50),
            span(3, Some(1), "step", 20, 60),
            span(4, Some(2), "inner", 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 40);
        assert_eq!(selfs[&4], 10);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["step"].count, 2);
        assert_eq!(by_name["step"].total_ns, 80);
        assert_eq!(by_name["step"].self_ns, 70);
    }

    #[test]
    fn lanes_nest_spans_and_parent_top_level_ones_to_the_root() {
        let origin = Instant::now();
        let mut main = Lane::new(origin, 9, 0, None);
        let root = main.open("run", None);
        let mut worker = Lane::new(origin, 9, 1, Some(root));
        worker.time("outer", Some(3), || {});
        worker.open("a", None);
        worker.time("b", None, || {});
        worker.close();
        main.close();
        let by_id: BTreeMap<&str, &SpanRec> = worker.spans.iter().map(|s| (s.name, s)).collect();
        assert_eq!(by_id["outer"].parent, Some(root));
        assert_eq!(by_id["outer"].cell, Some(3));
        assert_eq!(by_id["b"].parent, Some(by_id["a"].id));
        assert_ne!(by_id["a"].id, root, "lanes never reuse ids");
        assert!(worker.spans.iter().all(|s| s.run == 9));
        let text = to_jsonl(&worker.spans);
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"run\":9,"));
    }
}
