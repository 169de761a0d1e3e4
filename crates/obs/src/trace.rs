//! Bounded in-memory trace spans with deterministic ids.
//!
//! A [`Span`] is one timed operation inside a trace: parsing a request,
//! waiting in the scheduler queue, dispatching a shard, merging partials.
//! Spans form a tree through `parent` references and are recorded into a
//! [`TraceSink`] — a bounded ring buffer the service queries per trace id
//! (`GET /trace/:job_id`). Code under trace opens a [`SpanGuard`] with
//! [`TraceSink::span`], attaches attributes, and records it on `finish`.
//!
//! **Span ids are deterministic**: [`span_id`] hashes the trace id, span
//! name and an index with FNV-1a. Nothing here touches the simulation RNG
//! or influences scheduling, which is what keeps the hard invariant — the
//! result bytes are identical with tracing on or off — trivially true. It
//! also means a parent's id is *computable* before the child runs, so a
//! coordinator can stamp the `X-Stochsynth-Trace` header
//! ([`TraceContext`]) with the dispatch span's id and the worker's spans
//! attach to the right node of the coordinator's tree.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// FNV-1a over `bytes` (the same parameters the service cache uses).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The deterministic id of span `name` number `index` of trace `trace_id`.
///
/// A pure function of its inputs — never the RNG, never a timestamp — so
/// re-running a job produces the same tree topology and a worker can be
/// told its parent's id before the parent span is even recorded.
pub fn span_id(trace_id: &str, name: &str, index: u64) -> u64 {
    let mut bytes = Vec::with_capacity(trace_id.len() + name.len() + 9);
    bytes.extend_from_slice(trace_id.as_bytes());
    bytes.push(0xff);
    bytes.extend_from_slice(name.as_bytes());
    bytes.push(0xff);
    bytes.extend_from_slice(&index.to_le_bytes());
    fnv1a(&bytes)
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The trace this span belongs to (the coordinator's job id, as text).
    pub trace_id: String,
    /// This span's deterministic id (see [`span_id`]).
    pub id: u64,
    /// The parent span's id, `None` for the root.
    pub parent: Option<u64>,
    /// Operation name (`parse`, `schedule-wait`, `shard[0..250)`, …).
    pub name: String,
    /// Start, in the sink's monotonic microseconds.
    pub start_us: u64,
    /// End, in the sink's monotonic microseconds.
    pub end_us: u64,
    /// Attribute key/value pairs (classifier report, profile counts, …).
    pub attrs: Vec<(String, String)>,
}

/// A bounded ring buffer of recorded spans; see the [module docs](self).
pub struct TraceSink {
    start: Instant,
    capacity: usize,
    ring: Mutex<VecDeque<Span>>,
}

impl TraceSink {
    /// Creates a sink retaining at most `capacity` spans (oldest evicted).
    pub fn new(capacity: usize) -> TraceSink {
        TraceSink {
            start: Instant::now(),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Monotonic microseconds since the sink was created — the clock every
    /// recorded span's `start_us`/`end_us` is expressed in.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records one span, evicting the oldest if the ring is full.
    pub fn record(&self, span: Span) {
        let mut ring = self.ring.lock().expect("trace ring");
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(span);
    }

    /// Opens span `name` number `index` of `trace_id` under `parent`,
    /// starting now. Its id is [`span_id`]`(trace_id, name, index)`.
    pub fn span(
        &self,
        trace_id: &str,
        name: &str,
        index: u64,
        parent: Option<u64>,
    ) -> SpanGuard<'_> {
        SpanGuard {
            sink: self,
            span: Span {
                trace_id: trace_id.to_string(),
                id: span_id(trace_id, name, index),
                parent,
                name: name.to_string(),
                start_us: self.now_us(),
                end_us: 0,
                attrs: Vec::new(),
            },
        }
    }

    /// Every retained span of `trace_id`, ordered by start time (id breaks
    /// ties), parents before their children on equal timestamps.
    pub fn spans(&self, trace_id: &str) -> Vec<Span> {
        let ring = self.ring.lock().expect("trace ring");
        let mut spans: Vec<Span> = ring
            .iter()
            .filter(|span| span.trace_id == trace_id)
            .cloned()
            .collect();
        spans.sort_by(|a, b| {
            a.start_us
                .cmp(&b.start_us)
                .then_with(|| a.parent.is_some().cmp(&b.parent.is_some()))
                .then_with(|| a.id.cmp(&b.id))
        });
        spans
    }

    /// The number of spans currently retained (all traces).
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring").len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An open span, created by [`TraceSink::span`]. Nothing is recorded
/// until [`finish`](SpanGuard::finish), so a guard dropped on an error
/// path leaves no span behind.
#[must_use = "a span is recorded only by `finish`"]
pub struct SpanGuard<'a> {
    sink: &'a TraceSink,
    span: Span,
}

impl SpanGuard<'_> {
    /// This span's id, known before it finishes so children (and remote
    /// hops) can name it as their parent.
    pub fn id(&self) -> u64 {
        self.span.id
    }

    /// The header context a remote hop nesting under this span carries.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.span.trace_id.clone(),
            parent: self.span.id,
        }
    }

    /// Moves the start back to `start_us` (sink clock), for work timed
    /// before the span could be opened.
    pub fn started_at(mut self, start_us: u64) -> Self {
        self.span.start_us = start_us;
        self
    }

    /// Appends one attribute.
    pub fn attr(mut self, key: &str, value: impl ToString) -> Self {
        self.span.attrs.push((key.to_string(), value.to_string()));
        self
    }

    /// Ends the span now and records it.
    pub fn finish(self) {
        let end_us = self.sink.now_us();
        self.finish_at(end_us);
    }

    /// Ends the span at `end_us` (sink clock) and records it.
    pub fn finish_at(mut self, end_us: u64) {
        self.span.end_us = end_us;
        self.sink.record(self.span);
    }
}

/// The wire form of a trace hop: `X-Stochsynth-Trace: <trace_id>;<parent>`.
///
/// A coordinator stamps the header on every shard dispatch; the worker
/// parses it and records its shard-execution spans under the coordinator's
/// trace id, parented to the dispatch span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceContext {
    /// The originating trace id.
    pub trace_id: String,
    /// The id of the span on the sending side that this hop nests under.
    pub parent: u64,
}

impl TraceContext {
    /// Renders the header value.
    pub fn header_value(&self) -> String {
        format!("{};{:016x}", self.trace_id, self.parent)
    }

    /// Parses a header value; `None` when malformed.
    pub fn parse(value: &str) -> Option<TraceContext> {
        let (trace_id, parent) = value.split_once(';')?;
        let trace_id = trace_id.trim();
        if trace_id.is_empty() || trace_id.len() > 128 {
            return None;
        }
        let parent = u64::from_str_radix(parent.trim(), 16).ok()?;
        Some(TraceContext {
            trace_id: trace_id.to_string(),
            parent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_deterministic_and_distinct() {
        assert_eq!(span_id("17", "shard", 0), span_id("17", "shard", 0));
        assert_ne!(span_id("17", "shard", 0), span_id("17", "shard", 1));
        assert_ne!(span_id("17", "shard", 0), span_id("18", "shard", 0));
        assert_ne!(span_id("17", "shard", 0), span_id("17", "merge", 0));
        // The separator prevents gluing ambiguity: ("ab","c") != ("a","bc").
        assert_ne!(span_id("ab", "c", 0), span_id("a", "bc", 0));
    }

    fn span(trace: &str, name: &str, start: u64) -> Span {
        Span {
            trace_id: trace.to_string(),
            id: span_id(trace, name, 0),
            parent: None,
            name: name.to_string(),
            start_us: start,
            end_us: start + 10,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn sink_filters_by_trace_and_sorts_by_start() {
        let sink = TraceSink::new(16);
        sink.record(span("1", "b", 20));
        sink.record(span("1", "a", 10));
        sink.record(span("2", "other", 5));
        let spans = sink.spans("1");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[1].name, "b");
        assert!(sink.spans("3").is_empty());
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let sink = TraceSink::new(3);
        for i in 0..5u64 {
            sink.record(span("1", &format!("s{i}"), i));
        }
        assert_eq!(sink.len(), 3);
        let names: Vec<String> = sink.spans("1").into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["s2", "s3", "s4"]);
    }

    #[test]
    fn guards_record_on_finish_with_deterministic_ids() {
        let sink = TraceSink::new(16);
        let root = sink.span("7", "job", 0, None);
        let child = sink
            .span("7", "shard", 3, Some(root.id()))
            .started_at(0)
            .attr("steps", 42)
            .attr("range", "[0, 5)");
        assert_eq!(child.id(), span_id("7", "shard", 3));
        assert_eq!(
            child.context(),
            TraceContext {
                trace_id: "7".to_string(),
                parent: span_id("7", "shard", 3),
            }
        );
        assert!(sink.is_empty(), "nothing is recorded before finish");
        child.finish_at(9);
        root.finish();
        drop(sink.span("7", "dropped", 0, None));
        let spans = sink.spans("7");
        assert_eq!(spans.len(), 2);
        let shard = spans.iter().find(|s| s.name == "shard").unwrap();
        assert_eq!(shard.parent, Some(span_id("7", "job", 0)));
        assert_eq!((shard.start_us, shard.end_us), (0, 9));
        assert_eq!(
            shard.attrs,
            [
                ("steps".to_string(), "42".to_string()),
                ("range".to_string(), "[0, 5)".to_string())
            ]
        );
        let job = spans.iter().find(|s| s.name == "job").unwrap();
        assert_eq!((job.id, job.parent), (span_id("7", "job", 0), None));
        assert!(job.end_us >= job.start_us);
    }

    #[test]
    fn trace_context_round_trips_through_the_header() {
        let context = TraceContext {
            trace_id: "42".to_string(),
            parent: span_id("42", "dispatch", 3),
        };
        let parsed = TraceContext::parse(&context.header_value()).unwrap();
        assert_eq!(parsed, context);
        assert!(TraceContext::parse("").is_none());
        assert!(TraceContext::parse("no-separator").is_none());
        assert!(TraceContext::parse(";abc").is_none());
        assert!(TraceContext::parse("id;not-hex").is_none());
    }
}
