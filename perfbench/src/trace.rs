//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent, and the id of the point or request they
//! serve) and written out once, when the run ends, as a Chrome trace-event
//! document that Perfetto or `chrome://tracing` opens directly.

use std::collections::BTreeMap;
use std::time::Instant;

use hdpat::serve::json::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `sim.run`.
    pub name: &'static str,
    /// The point or request this span served.
    pub key: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans; `begin` returns an index that `end` closes.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, key: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            key,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span that was timed elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        key: u64,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span {
            name,
            key,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        key: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, key, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of all spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per span name over the trees rooted at spans called
    /// `root`: each span's duration minus the part its children cover.
    /// Spans outside those trees are left out.
    pub fn self_ns(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let mut inside = vec![false; self.spans.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            // Parents open before their children, so one forward pass
            // settles membership.
            inside[i] = s.name == root || s.parent.is_some_and(|p| inside[p]);
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if inside[i] {
                *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(child_ns[i]);
            }
        }
        out
    }

    /// The spans as a Chrome trace-event document (`ph: "X"` complete
    /// events, microsecond timestamps); `meta` lands in `otherData`.
    pub fn to_chrome_json(&self, meta: Json) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("pid".into(), Json::U64(1)),
                    ("tid".into(), Json::U64(1)),
                    ("ts".into(), Json::F64(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::F64(s.dur_ns() as f64 / 1e3)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("span".into(), Json::U64(i as u64)),
                            ("key".into(), Json::U64(s.key)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                            ),
                        ]),
                    ),
                ])
                .to_line()
            })
            .collect::<Vec<_>>();
        format!(
            "{{\"traceEvents\":[\n{}\n],\"otherData\":{}}}\n",
            events.join(",\n"),
            meta.to_line()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ignores_other_trees() {
        let mut t = Tracer::new();
        let root = t.begin("point", 0, None);
        t.span("sim.run", 0, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        t.span("check", 0, None, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let selfs = t.self_ns("point");
        assert_eq!(selfs.len(), 2, "check lies outside the point tree");
        let total = t.total_ns("point");
        assert_eq!(selfs["point"] + selfs["sim.run"], total);
        assert!(selfs["sim.run"] >= 2_000_000);
    }

    #[test]
    fn chrome_document_parses_as_json_lines() {
        let mut t = Tracer::new();
        let root = t.begin("point", 7, None);
        t.end(root);
        let doc = t.to_chrome_json(Json::Obj(vec![("seed".into(), Json::U64(1))]));
        let event = doc.lines().nth(1).expect("one event line");
        let event = event.trim_end_matches(',');
        let parsed = Json::parse(event).expect("event is valid JSON");
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("point"));
    }
}
