//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around its calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Each span carries its layer (the workspace crate it measures), the
//! function name, start and end on one monotonic clock, its parent and the
//! request or job it belongs to. Spans stay in memory until the run ends,
//! when [`Tracer::write_jsonl`] writes them out and
//! [`Tracer::self_time_by_layer`] reduces them to per-layer self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    /// Workspace layer: `crn`, `gillespie`, `cme`, `synthesis`, `lambda`,
    /// `service`, `obs`, or `bench` for the benchmark's own grouping spans.
    pub layer: &'static str,
    pub name: String,
    /// Request, job or batch the span belongs to.
    pub trace: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Free-form attributes (stepper kind, step counts, ...).
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates a span id (0 when tracing is off).
    pub fn new_id(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Runs `f` inside a span. `f` receives the span's id so it can parent
    /// child spans; attributes returned by `attrs` are attached afterwards.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &str,
        parent: Option<u64>,
        trace: &str,
        f: impl FnOnce(u64) -> T,
        attrs: impl FnOnce(&T) -> Vec<(String, String)>,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.new_id();
        let start_ns = self.now_ns();
        let value = f(id);
        let end_ns = self.now_ns();
        let attrs = attrs(&value);
        self.push(SpanRecord {
            id,
            parent,
            layer,
            name: name.to_string(),
            trace: trace.to_string(),
            start_ns,
            end_ns,
            attrs,
        });
        value
    }

    /// Records a span measured elsewhere (ignored when tracing is off).
    pub fn push(&self, span: SpanRecord) {
        if self.enabled {
            self.spans.lock().expect("span store poisoned").push(span);
        }
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Self time per layer: each span's duration minus the part of its
    /// interval covered by its children (children on other threads may
    /// overlap each other, so their union is subtracted, clipped to the
    /// parent).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut by_layer = BTreeMap::new();
        for span in &spans {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut cursor = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            *by_layer.entry(span.layer).or_insert(0) += span.duration_ns().saturating_sub(covered);
        }
        by_layer
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for span in self.spans() {
            let attrs: Vec<String> = span
                .attrs
                .iter()
                .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
                .collect();
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":{},\"name\":{},\"trace\":{},\"start_ns\":{},\"end_ns\":{},\"attrs\":{{{}}}}}",
                span.id,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                quote(span.layer),
                quote(&span.name),
                quote(&span.trace),
                span.start_ns,
                span.end_ns,
                attrs.join(","),
            )?;
        }
        out.flush()
    }
}

/// Renders `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tracer = Tracer::new(true);
        let span = |id, parent, layer, start_ns, end_ns| SpanRecord {
            id,
            parent,
            layer,
            name: String::new(),
            trace: String::new(),
            start_ns,
            end_ns,
            attrs: Vec::new(),
        };
        tracer.push(span(1, None, "service", 0, 100));
        tracer.push(span(2, Some(1), "gillespie", 10, 60));
        tracer.push(span(3, Some(1), "gillespie", 40, 80));
        let by_layer = tracer.self_time_by_layer();
        assert_eq!(by_layer["service"], 30);
        assert_eq!(by_layer["gillespie"], 90);
    }
}
