//! Benchmark-side spans: the tracing this PR is allowed to have.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; spans *inside* the program are a
//! later change. A span is `(name, start, end, parent, request id)`;
//! spans of one request share the id. Everything stays in memory until
//! the run ends, then goes out as one JSON object per line
//! (`trace.jsonl`). A layer's **self time** is its span's duration
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marker for "no parent".
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.knn_validity`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The request this span belongs to.
    pub request: u64,
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; time zero is now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name` for `request`, nested under
    /// whatever span is open.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(id);
        let start = self.now();
        let out = f(self);
        let end = self.now();
        self.open.pop();
        let s = &mut self.spans[id as usize];
        s.start_ns = start;
        s.end_ns = end;
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Duration and self time per span name: self time is the span's
/// duration minus the durations of its direct children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            Span {
                name: "request",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                request: 7,
            },
            Span {
                name: "rtree.knn",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                request: 7,
            },
            Span {
                name: "core.knn_validity",
                start_ns: 40,
                end_ns: 90,
                parent: 0,
                request: 7,
            },
            Span {
                name: "geom.clip",
                start_ns: 50,
                end_ns: 60,
                parent: 2,
                request: 7,
            },
            Span {
                name: "request",
                start_ns: 100,
                end_ns: 130,
                parent: ROOT,
                request: 8,
            },
        ];
        let t = totals(&spans);
        assert_eq!(
            t["request"],
            NameTotals {
                count: 2,
                total_ns: 130,
                self_ns: 20 + 30
            }
        );
        assert_eq!(
            t["core.knn_validity"],
            NameTotals {
                count: 1,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(t["geom.clip"].self_ns, 10);
    }

    #[test]
    fn nesting_and_jsonl() {
        let mut tr = Tracer::new();
        let v = tr.span("request", 3, |tr| {
            tr.span("proto.decode_req", 3, |_| ());
            tr.span("core.knn_validity", 3, |tr| tr.span("geom.clip", 3, |_| 42))
        });
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, ROOT);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (0, 0, 2));
        assert!(s.iter().all(|x| x.request == 3 && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().next().unwrap().contains("\"parent\": null"));
        assert!(text.lines().nth(3).unwrap().contains("\"parent\": 2"));
    }
}
