//! In-memory spans recorded around the calls into each layer, written out
//! as JSON lines when the run ends.
//!
//! The layers are entered from outside, one rung of the ladder at a time,
//! so a span's parent is the span of the next shallower rung *for the same
//! request id* (the schedule index): the parent's call contains the child's
//! work, replayed. A layer's self time is its span minus the spans whose
//! parent it is.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span of the enclosing layer for the same request, if any.
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Schedule index of the request the call served.
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records one call into layer `name` for `request` and returns the
    /// span's id, which a deeper rung passes back as `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Times `f` as one span; returns the span's id and `f`'s result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start = Instant::now();
        let out = f();
        (
            self.record(name, parent, request, start, Instant::now()),
            out,
        )
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of every span of layer `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time of every span of layer `name`: its duration minus the
    /// durations of the spans whose parent it is.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<u32, f64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_default() += s.duration_ns() as f64;
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 - children.get(&s.id).copied().unwrap_or(0.0))
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Records a span of `len_us` starting `at_us` after the tracer's epoch.
    fn put(
        t: &mut Tracer,
        name: &'static str,
        parent: Option<u32>,
        req: u32,
        at_us: u64,
        len_us: u64,
    ) -> u32 {
        let start = t.epoch + Duration::from_micros(at_us);
        t.record(
            name,
            parent,
            req,
            start,
            start + Duration::from_micros(len_us),
        )
    }

    #[test]
    fn self_time_is_span_minus_child_rungs_of_the_same_request() {
        let mut t = Tracer::new();
        let f0 = put(&mut t, "frontend", None, 0, 0, 100);
        let f1 = put(&mut t, "frontend", None, 1, 100, 80);
        // The deeper rungs replay later, each against its own request.
        put(&mut t, "ingest", Some(f0), 0, 500, 10);
        put(&mut t, "runtime", Some(f0), 0, 600, 60);
        let r1 = put(&mut t, "runtime", Some(f1), 1, 700, 50);
        put(&mut t, "physical", Some(r1), 1, 800, 45);
        assert_eq!(t.self_times_ns("frontend"), vec![30_000.0, 30_000.0]);
        assert_eq!(t.self_times_ns("runtime"), vec![60_000.0, 5_000.0]);
        assert_eq!(t.durations_ns("ingest"), vec![10_000.0]);
        // A leaf's self time is its whole span.
        assert_eq!(t.self_times_ns("physical"), vec![45_000.0]);
    }

    #[test]
    fn dump_writes_one_json_line_per_span() {
        let mut t = Tracer::new();
        let root = put(&mut t, "frontend", None, 3, 1, 2);
        put(&mut t, "ingest", Some(root), 3, 4, 1);
        // Under the package's own (git-ignored) output directory.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace_unit_test.jsonl");
        t.dump(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            text,
            "{\"id\":0,\"parent\":null,\"name\":\"frontend\",\"request\":3,\"start_ns\":1000,\"end_ns\":3000}\n\
             {\"id\":1,\"parent\":0,\"name\":\"ingest\",\"request\":3,\"start_ns\":4000,\"end_ns\":5000}\n"
        );
    }
}
