//! Spans the traced pass records around each call into a layer.
//!
//! A span has a name, a label (which seed, round or transaction), its
//! start and end on one clock, and the span it belongs to. Spans stay
//! in memory and are written out when the run ends, together with each
//! name's total and self time (duration minus the time its children
//! cover).

use std::collections::BTreeMap;
use std::time::Instant;

use tcc_trace::Json;

pub struct Span {
    pub name: &'static str,
    pub label: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        label: String,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            label,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`SpanLog::close`] ends.
    pub fn open(&mut self, name: &'static str, label: String, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(name, label, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Moves `other`'s spans (recorded on the same origin, e.g. by
    /// another thread) under `parent`.
    pub fn adopt(&mut self, other: SpanLog, parent: usize) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    /// `name → (count, total ns, self ns)`.
    fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = totals.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += dur;
            // Concurrent children (threads) can cover more than their
            // parent's wall time.
            e.2 += dur.saturating_sub(children);
        }
        totals
    }

    /// One line per span name.
    fn summary(&self) -> Vec<String> {
        self.totals()
            .into_iter()
            .map(|(name, (n, total, own))| {
                format!(
                    "span {name:<12} n={n:<8} total={:>10.4} s  self={:>10.4} s",
                    total as f64 / 1e9,
                    own as f64 / 1e9
                )
            })
            .collect()
    }

    /// Closes `root`, writes the log to `path` and returns the lines to
    /// print: the per-name summary and where the spans went.
    pub fn finish(mut self, root: usize, path: &str) -> Vec<String> {
        self.close(root);
        let mut lines = self.summary();
        lines.push(match self.write(path) {
            Ok(()) => format!("spans written to {path}"),
            Err(e) => format!("spans not written to {path}: {e}"),
        });
        lines
    }

    /// Writes the spans and per-name totals as JSON to `path`.
    fn write(&self, path: &str) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", id.into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("name", s.name.into()),
                    ("label", s.label.as_str().into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                ])
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, (n, total, own))| {
                Json::obj(vec![
                    ("name", name.into()),
                    ("count", n.into()),
                    ("total_ns", total.into()),
                    ("self_ns", own.into()),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("totals", Json::Arr(totals)),
            ("spans", Json::Arr(spans)),
        ]);
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_compact())
    }
}
