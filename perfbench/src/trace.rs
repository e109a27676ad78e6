//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing inside the serving stack is traced.

use crate::stats::union_length;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within a recorder.
    pub id: u64,
    /// Parent span id, if any.
    pub parent: Option<u64>,
    /// The request the span belongs to.
    pub request: u64,
    /// Layer function name, e.g. `ledger.reserve`.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start: u64,
    /// End, in ns since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans of one thread; merge recorders with [`Recorder::absorb`].
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    /// Id stride between recorders of different threads.
    lane: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder measuring from `epoch`; ids start at `lane << 40`, so
    /// recorders of different lanes never collide.
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Recorder { epoch, next_id: lane << 40, lane, spans: Vec::new() }
    }

    /// A recorder for another thread, sharing this one's epoch.
    pub fn fork(&self, lane: u64) -> Self {
        Recorder::new(self.epoch, lane.max(self.lane + 1))
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, request, name, start, end });
        id
    }

    /// Reserves an id for a span recorded later (a parent whose end is not
    /// known yet).
    pub fn reserve_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under an id from [`Recorder::reserve_id`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, request, name, start, end });
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, request, parent, start, Instant::now());
        out
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration() as f64 / 1e3).collect()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.request, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time (ns) of every span: its duration minus the part of it that
/// its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            (s.id, s.duration() - union_length(&mut covered))
        })
        .collect()
}

/// Time (ns) each parent span's children cover, keyed by parent id.
pub fn child_coverage(spans: &[Span]) -> HashMap<u64, u64> {
    let parents: std::collections::HashSet<u64> = spans.iter().filter_map(|s| s.parent).collect();
    let own = self_times(spans);
    spans
        .iter()
        .filter(|s| parents.contains(&s.id))
        .map(|s| (s.id, s.duration() - own[&s.id]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut r = Recorder::new(epoch, 0);
        let root = r.reserve_id();
        r.record("a", 1, Some(root), at(1), at(4));
        r.record("b", 1, Some(root), at(3), at(6));
        r.record("c", 1, Some(root), at(8), at(9));
        r.record_as(root, "root", 1, None, at(0), at(10));
        let own = self_times(r.spans());
        assert_eq!(own[&root], 4_000_000);
        let covered = child_coverage(r.spans());
        assert_eq!(covered[&root], 6_000_000);
        assert_eq!(covered.len(), 1);
    }

    #[test]
    fn forked_recorders_never_share_ids() {
        let mut a = Recorder::new(Instant::now(), 0);
        let mut b = a.fork(1);
        a.time("x", 0, None, || ());
        b.time("y", 0, None, || ());
        a.absorb(b);
        assert_eq!(a.spans().len(), 2);
        assert_ne!(a.spans()[0].id, a.spans()[1].id);
        assert_eq!(a.durations_us("y").len(), 1);
    }
}
