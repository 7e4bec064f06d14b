//! In-memory span recording for the traced (per-layer) run.
//!
//! The product crates carry no instrumentation yet, so every span is
//! recorded *here*, around a call from the harness into a layer's
//! public function. Spans of one request share a `request_id`; each
//! names the span that caused it (`parent`, an index into the same
//! vector). They stay in memory and are written out once, at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` indexes [`Tracer::spans`]; roots have none.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request_id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a child span of `parent` and return its result with
    /// the span's duration.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let request_id = self.spans[parent].request_id;
        let id = self.open(name, Some(parent), request_id);
        let out = f();
        self.close(id);
        (out, self.spans[id].dur_ns())
    }

    /// Durations of every span with this name, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Structural faults of the span set (empty when well-formed): a
    /// parent that is not an earlier span, a child outside its parent's
    /// interval or on another request, a span ending before it starts.
    pub fn faults(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                out.push(format!("span {i} ({}) ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            let Some(parent) = self.spans.get(p).filter(|_| p < i) else {
                out.push(format!("span {i} ({}) has no live parent {p}", s.name));
                continue;
            };
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                out.push(format!(
                    "span {i} ({}) lies outside parent {p} ({})",
                    s.name, parent.name
                ));
            }
            if s.request_id != parent.request_id {
                out.push(format!("span {i} ({}) left its request", s.name));
            }
        }
        out
    }

    /// One JSON document: `{"workload": …, "spans": [{…}, …]}`, one span
    /// per line so a shape test can read it without a JSON parser.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_subtracts_them() {
        let mut t = Tracer::new();
        let root = t.open("request", None, 7);
        let (_, inner) = t.child("layer", root, || std::hint::black_box(3 + 4));
        let whole = t.open("whole", Some(root), 7);
        let (_, a) = t.child("part", whole, || ());
        t.close(whole);
        t.close(root);
        assert!(t.faults().is_empty(), "{:?}", t.faults());
        assert_eq!(t.durations("layer"), vec![inner]);
        assert_eq!(t.durations("part"), vec![a]);
        assert!(
            t.spans[whole].dur_ns() >= a,
            "a child fits inside its parent"
        );
        assert!(t.spans.iter().all(|s| s.request_id == 7));
        let json = t.to_json("w");
        assert_eq!(json.matches("\"name\"").count(), 4);
        assert!(json.contains("\"parent\": null"));
    }

    #[test]
    fn faults_are_reported() {
        let mut t = Tracer::new();
        let root = t.open("request", None, 1);
        t.close(root);
        // A child recorded after its parent closed lies outside it.
        std::thread::sleep(std::time::Duration::from_millis(1));
        let late = t.open("late", Some(root), 2);
        t.close(late);
        let faults = t.faults();
        assert!(faults.iter().any(|f| f.contains("outside parent")));
        assert!(faults.iter().any(|f| f.contains("left its request")));
    }
}
