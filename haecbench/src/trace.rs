//! Spans recorded from outside the engine, around the benchmark's own
//! calls into each layer, kept in memory and written when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;

/// One timed interval. `parent` is the id of the enclosing span, 0 for
/// a root; spans of one operation share `op`, the id of its root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span buffer, one per thread that records. Buffer `lane` of
/// `lanes` hands out ids `lane + 1`, `lane + 1 + lanes`, …, so ids are
/// unique across the run without sharing a counter.
#[derive(Debug)]
pub struct Tracer {
    pub spans: Vec<Span>,
    next_id: u32,
    lanes: u32,
}

impl Tracer {
    pub fn new(lane: u32, lanes: u32) -> Tracer {
        Tracer { spans: Vec::new(), next_id: lane + 1, lanes }
    }

    fn push(&mut self, parent: u32, name: &'static str, (start_ns, end_ns): (u64, u64)) -> u32 {
        let id = self.next_id;
        self.next_id += self.lanes;
        let op = if parent == 0 { id } else { parent };
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns });
        id
    }

    /// Records a root span and one child per call into a layer made
    /// under it — an operation or writer batch has one, a probe has one
    /// per repetition.
    pub fn group(
        &mut self,
        root: &'static str,
        root_ns: (u64, u64),
        call: &'static str,
        calls: &[(u64, u64)],
    ) {
        let parent = self.push(0, root, root_ns);
        for &call_ns in calls {
            self.push(parent, call, call_ns);
        }
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover, summed by name. Children of one parent
/// may overlap (parallel parts), so the covered part is the union of
/// their intervals clipped to the parent.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    // Child intervals grouped by parent, each group by start time.
    let mut children: Vec<(u32, u64, u64)> =
        spans.iter().filter(|s| s.parent != 0).map(|s| (s.parent, s.start_ns, s.end_ns)).collect();
    children.sort_unstable();
    let mut out = BTreeMap::new();
    for s in spans {
        let first = children.partition_point(|c| c.0 < s.id);
        let (mut covered, mut reach) = (0, s.start_ns);
        for &(_, start, end) in children[first..].iter().take_while(|c| c.0 == s.id) {
            let (start, end) = (start.max(reach), end.min(s.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - covered;
    }
    out
}

pub fn span_json(s: &Span) -> Json {
    Json::obj([
        ("id", Json::Num(s.id as f64)),
        ("parent", Json::Num(s.parent as f64)),
        ("op", Json::Num(s.op as f64)),
        ("name", Json::Str(s.name.into())),
        ("start_ns", Json::Num(s.start_ns as f64)),
        ("end_ns", Json::Num(s.end_ns as f64)),
    ])
}
