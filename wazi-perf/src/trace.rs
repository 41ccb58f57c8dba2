//! Spans recorded from outside the program, around each call into a layer.
//!
//! One operation is one tree: a root `bench.op`, children timed directly
//! around the public calls, and grandchildren *filled in* from the durations
//! the public responses carry (`queue_ns`, `BatchSummary::latency_ns`, the
//! `ExecStats` phases). Children of one span never overlap and never leave
//! it — a child is clipped to what is left of its parent — so a span's self
//! time is its duration minus its children's, and the self times of a tree
//! sum to the root's wall time exactly.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Name of every tree's root.
pub const ROOT: &str = "bench.op";

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// The operation the tree belongs to.
    pub op: u32,
    /// Display lane (thread × in-flight slot), so concurrent ops of one
    /// thread do not overlap in a viewer.
    pub lane: u32,
    /// Where the next child may start: the end of the last child so far.
    cursor_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span list of one generator thread.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with room for `spans` spans, whose clock starts at
    /// `origin` (shared by the threads of one trial, so their spans line up).
    pub fn new(origin: Instant, spans: usize) -> Self {
        Recorder {
            origin,
            spans: Vec::with_capacity(spans),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens the tree of operation `op`.
    pub fn root(&mut self, op: u32, lane: u32, start: Instant, end: Instant) -> u32 {
        let start_ns = self.ns(start);
        let end_ns = self.ns(end).max(start_ns);
        self.push(Span {
            name: ROOT,
            start_ns,
            end_ns,
            parent: None,
            op,
            lane,
            cursor_ns: start_ns,
        })
    }

    /// A child timed directly by the harness.
    pub fn measured(
        &mut self,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.child(parent, name, start_ns, end_ns)
    }

    /// A child whose duration a public response reported; it is laid directly
    /// after its parent's previous child.
    pub fn filled(&mut self, parent: u32, name: &'static str, duration_ns: u64) -> u32 {
        let start_ns = self.spans[parent as usize].cursor_ns;
        self.child(parent, name, start_ns, start_ns.saturating_add(duration_ns))
    }

    fn child(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let owner = &mut self.spans[parent as usize];
        let start_ns = start_ns.clamp(owner.cursor_ns, owner.end_ns);
        let end_ns = end_ns.clamp(start_ns, owner.end_ns);
        owner.cursor_ns = end_ns;
        let (op, lane) = (owner.op, owner.lane);
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
            lane,
            cursor_ns: start_ns,
        })
    }
}

/// Self time per span name, and the summed wall time of the roots. The self
/// times add up to that wall time.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut wall_ns = 0u64;
    for span in spans {
        *by_name.entry(span.name).or_default() += span.duration_ns();
        match span.parent {
            Some(parent) => {
                *by_name.entry(spans[parent as usize].name).or_default() -= span.duration_ns();
            }
            None => wall_ns += span.duration_ns(),
        }
    }
    (by_name, wall_ns)
}

/// Writes the first `limit` spans as Chrome trace-event JSON.
pub fn write_chrome(path: &Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    for (i, span) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.write_all(b",\n")?;
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            span.lane,
            span.op,
            i,
            span.parent.map_or(-1, i64::from),
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 4);
        let t = |us: u64| origin + Duration::from_micros(us);
        let root = rec.root(0, 0, t(0), t(100));
        let call = rec.measured(root, "core.range_count", t(10), t(90));
        rec.filled(call, "core.zindex.projection", 20_000);
        rec.filled(call, "storage.scan", 50_000);
        let (by_name, wall) = self_times(&rec.spans);
        assert_eq!(wall, 100_000);
        assert_eq!(by_name[ROOT], 20_000);
        assert_eq!(by_name["core.range_count"], 10_000);
        assert_eq!(by_name["core.zindex.projection"], 20_000);
        assert_eq!(by_name["storage.scan"], 50_000);
        assert_eq!(by_name.values().sum::<u64>(), wall);
    }

    #[test]
    fn a_child_is_clipped_to_what_its_parent_has_left() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 4);
        let t = |us: u64| origin + Duration::from_micros(us);
        let root = rec.root(7, 3, t(0), t(10));
        rec.filled(root, "service.queue", 8_000);
        // Reported longer than the 2 µs the root has left.
        let late = rec.filled(root, "core.engine.batch", 5_000);
        // Nothing is left for a third child.
        let none = rec.filled(root, "service.route", 1_000);
        assert_eq!(rec.spans[late as usize].end_ns, 10_000);
        assert_eq!(rec.spans[none as usize].duration_ns(), 0);
        assert_eq!(
            (rec.spans[late as usize].op, rec.spans[late as usize].lane),
            (7, 3)
        );
        let (by_name, wall) = self_times(&rec.spans);
        assert_eq!(by_name[ROOT], 0);
        assert_eq!(by_name.values().sum::<u64>(), wall);
    }
}
