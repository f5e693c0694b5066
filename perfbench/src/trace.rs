//! Spans recorded by the benchmark around its calls into each layer.
//! They stay in memory while the workload runs and are written out as
//! JSON lines at exit; the traced per-layer metrics are derived from them.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The enclosing span's name within the same operation.
    pub parent: Option<&'static str>,
    /// Operation id; set-up work uses [`SETUP_OP`].
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const SETUP_OP: u64 = u64::MAX;

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether operation `op` is traced. A traced run traces every other
    /// operation, so the untraced half measures what tracing costs under
    /// the same load and host speed.
    pub fn traces(&self, op: u64) -> bool {
        self.enabled && (op == SETUP_OP || op.is_multiple_of(2))
    }

    pub fn record(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.traces(op) {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("tracer lock").push(Span {
            name,
            parent,
            op,
            start_ns: ns(start),
            end_ns: ns(end.max(start)),
        });
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("tracer lock").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let op = if s.op == SETUP_OP {
                "\"setup\"".to_string()
            } else {
                s.op.to_string()
            };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"parent\": {parent}, \"op\": {op}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
