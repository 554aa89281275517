//! The benchmark's own spans, recorded around each call into a layer.
//!
//! Spans are kept in memory while a traced run measures and written out
//! once it ends. A span's parent is passed explicitly, so a span opened on
//! a load-generator thread can hang under the phase span that started the
//! thread. Self time is a span's duration minus the part of it that its
//! children cover; children on different threads that overlap in time are
//! counted once.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// In-memory span recorder. A disabled tracer hands out guards that
/// record nothing, so untraced runs pay one branch per span.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, t0: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Open a span under `parent`; it closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        let (id, start_ns) = if self.on {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        SpanGuard { tracer: self, id, parent, name, start_ns }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Every span closed so far, in closing order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span recorder poisoned by a panicking thread").clone()
    }
}

/// An open span; records itself on drop when its tracer is on.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// This span's id, for children to name as parent (`None` untraced).
    pub fn id(&self) -> Option<u64> {
        self.tracer.on.then_some(self.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.tracer.on {
            return;
        }
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
            thread: THREAD.with(|t| *t),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, by id.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Per-name totals of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    /// Mean duration per occurrence, seconds (0 when the span never ran).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e9
        }
    }
}

pub fn by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += selfs[&s.id];
    }
    out
}

/// Write the spans as JSON lines, each tagged with `workload`.
pub fn write_jsonl(
    path: &std::path::Path,
    workload: &str,
    spans: &[SpanRec],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.thread
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64, thread: u64) -> SpanRec {
        SpanRec { id, parent, name: "x", start_ns, end_ns, thread }
    }

    #[test]
    fn overlapping_children_on_two_threads_count_once() {
        let spans = vec![
            rec(1, None, 0, 100, 0),
            // Two load threads whose children overlap on [30, 40).
            rec(2, Some(1), 10, 40, 1),
            rec(3, Some(1), 30, 60, 2),
            // A grandchild does not count against the root.
            rec(4, Some(3), 35, 55, 2),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50, "union of [10,40) and [30,60) is 50, not 60");
        assert_eq!(st[&2], 30);
        assert_eq!(st[&3], 30 - 20);
        assert_eq!(st[&4], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![rec(1, None, 100, 200, 0), rec(2, Some(1), 150, 260, 1)];
        assert_eq!(self_times(&spans)[&1], 50);
    }

    #[test]
    fn disjoint_and_nested_children_merge() {
        assert_eq!(covered_ns(vec![(0, 10), (20, 30), (22, 25), (29, 40)], 0, 100), 30);
        assert_eq!(covered_ns(vec![], 0, 100), 0);
    }

    #[test]
    fn tracer_links_parents_across_threads() {
        let t = Tracer::new(true);
        {
            let root = t.span("root", None);
            let root_id = root.id();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| drop(t.span("child", root_id)));
                }
            });
        }
        let spans = t.spans();
        let stats = by_name(&spans);
        assert_eq!(stats["child"].count, 2);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert!(spans.iter().filter(|s| s.name == "child").all(|s| s.parent == Some(root.id)));
        let threads: std::collections::HashSet<u64> = spans.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let g = t.span("root", None);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(t.spans().is_empty());
    }
}
