//! Spans recorded by the driver around calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, request_id}`. Spans are kept in
//! memory and written to `trace.jsonl` once the replay is over, so recording
//! costs two clock reads and one push. A span's *self time* is its duration
//! minus the part its direct children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a request's root.
    pub parent: Option<u32>,
    pub request_id: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request_id: u32,
    /// Off for the untraced twin of a replay that measures tracing overhead.
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
            enabled,
        }
    }

    /// Spans recorded from here on belong to request `id`.
    pub fn request(&mut self, id: u32) {
        self.request_id = id;
    }

    /// Run `f` inside a span called `name`, nested in whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id: self.request_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in recording order; `self_ns` is the span's
    /// self time, so a reader need not rebuild the tree to find it.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self_times(&self.spans);
        for (id, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: duration minus the time its direct children cover.
/// Children of one parent never overlap here (one thread records them), so the
/// covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, request_id: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("request", 0, 100, None),
            span("roundtrip", 5, 45, Some(0)),
            span("staged", 50, 95, Some(0)),
            span("plan", 52, 60, Some(2)),
            span("execute", 60, 90, Some(2)),
            span("lookup", 62, 70, Some(4)),
        ];
        // request: 100 − (40 + 45); staged: 45 − (8 + 30); execute: 30 − 8.
        assert_eq!(self_times(&spans), vec![15, 40, 7, 8, 22, 8]);
        // Grandchildren are charged to their parent only, so self times of a
        // tree always add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_tags_requests_and_can_be_switched_off() {
        let mut t = Tracer::new(true);
        t.request(7);
        let got = t.span("outer", |t| {
            t.span("first", |_| ());
            t.span("second", |t| t.span("inner", |_| 42))
        });
        assert_eq!(got, 42);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.request_id)).collect();
        assert_eq!(
            names,
            [
                ("outer", None, 7),
                ("first", Some(0), 7),
                ("second", Some(0), 7),
                ("inner", Some(2), 7)
            ]
        );
        let s = t.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[2].start_ns);
        assert!(s[3].end_ns <= s[2].end_ns && s[2].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("ignored", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let mut t = Tracer::new(true);
        t.request(3);
        t.span("a", |t| t.span("b", |_| ()));
        let path =
            std::env::temp_dir().join(format!("hermit-bench-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("{\"id\":0,\"name\":\"a\",")
                && lines[0].contains("\"parent\":null")
        );
        assert!(lines[1].contains("\"parent\":0") && lines[1].ends_with("\"request_id\":3}"));
    }
}
