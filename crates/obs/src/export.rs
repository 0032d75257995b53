//! The snapshot exporter: periodic JSONL exposition of the whole
//! observability surface — metrics registry, heatmaps, flight-recorder
//! stats, and buffered slow-query captures — so external tooling can
//! scrape a running server by tailing one file.
//!
//! [`install_exporter`] spawns a background thread that appends one
//! *snapshot block* to the target file every period (and once at
//! start and once at shutdown, so even short runs export). A block is
//! framed by `snapshot` / `snapshot-end` lines and versioned by
//! [`SNAPSHOT_VERSION`]; every line is a self-describing JSON object
//! with a `type` field, parseable without a JSON library (schema
//! round-trip is tested in `tests/export_schema.rs`).
//!
//! [`install_exporter_from_env`] wires this from
//! `LBQ_OBS_SNAPSHOT=path[,period]` (period like `500ms`, `2s`, or a
//! bare millisecond count; default 1s) and arms the flight recorder,
//! which is how examples and production binaries opt in without code
//! changes.
//!
//! Static context (build id, config knobs, …) can be stamped onto
//! every snapshot header with [`snapshot_field`].

use crate::heatmap::heatmaps_snapshot;
use crate::metrics::{metrics_snapshot, MetricValue};
use crate::recorder::{self, RecorderConfig, SlowCapture};
use crate::stage::STAGE_NAMES;
use crate::subscriber::{json_escape, json_value};
use crate::trace::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Version stamped on every snapshot header; bump on schema changes.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Most tiles a single heatmap line carries (the hottest ones); the
/// line's `tiles-total` field reports how many non-empty tiles existed
/// before truncation.
const MAX_TILES_PER_LINE: usize = 256;

static EXTRA_FIELDS: Mutex<BTreeMap<&'static str, Value>> = Mutex::new(BTreeMap::new());

/// Registers a static field rendered into every snapshot header's
/// `fields` object (last write per name wins). Names must be
/// kebab-case literals (enforced by `obs-span-name` in `lbq-check`).
pub fn snapshot_field(name: &'static str, value: impl Into<Value>) {
    let mut g = EXTRA_FIELDS.lock().unwrap_or_else(|e| e.into_inner());
    g.insert(name, value.into());
}

fn push_kv_str(buf: &mut String, key: &str, v: &str) {
    buf.push('"');
    json_escape(buf, key);
    buf.push_str("\":\"");
    json_escape(buf, v);
    buf.push('"');
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

fn render_slow_line(buf: &mut String, cap: &SlowCapture) {
    let ev = &cap.event;
    let _ = write!(
        buf,
        "{{\"type\":\"slow-query\",\"query-id\":{},\"kind\":\"{}\",\"tier\":\"{}\",\
         \"k\":{},\"tile\":{},\"latency-ns\":{},\"threshold-ns\":{},\
         \"node-accesses\":{},\"page-accesses\":{},\"stages\":{{",
        ev.query_id,
        ev.kind.name(),
        ev.tier.name(),
        ev.k,
        ev.tile,
        ev.latency_ns,
        cap.threshold_ns,
        ev.node_accesses,
        ev.page_accesses,
    );
    for (i, (name, ns)) in STAGE_NAMES.iter().zip(ev.stages.0).enumerate() {
        if i > 0 {
            buf.push(',');
        }
        let _ = write!(buf, "\"{name}\":{ns}");
    }
    buf.push_str("}}\n");
}

/// Renders one complete snapshot block (multiple `\n`-terminated JSONL
/// lines): header, one `metric` line per registered metric, one
/// `heatmap` line per registered heatmap, a `recorder` line plus the
/// drained `slow-query` captures (when the flight recorder is
/// installed), and a `snapshot-end` trailer.
///
/// Public so tests can exercise the schema without a filesystem; the
/// background exporter thread calls this too.
pub fn render_snapshot(seq: u64) -> String {
    let mut out = String::with_capacity(4096);

    // Header.
    let _ = write!(
        out,
        "{{\"type\":\"snapshot\",\"version\":{SNAPSHOT_VERSION},\"seq\":{seq},\"unix-ms\":{}",
        unix_ms()
    );
    out.push_str(",\"fields\":{");
    {
        let extras = EXTRA_FIELDS.lock().unwrap_or_else(|e| e.into_inner());
        for (i, (k, v)) in extras.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(&mut out, k);
            out.push_str("\":");
            json_value(&mut out, v);
        }
    }
    out.push_str("}}\n");

    // Metrics registry.
    for (name, value) in metrics_snapshot() {
        out.push_str("{\"type\":\"metric\",");
        push_kv_str(&mut out, "name", name);
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, ",\"kind\":\"counter\",\"value\":{v}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, ",\"kind\":\"gauge\",\"value\":{v}");
            }
            MetricValue::Histogram(s) => {
                let _ = write!(
                    out,
                    ",\"kind\":\"histogram\",\"count\":{},\"p50-ns\":{},\"p95-ns\":{},\
                     \"p99-ns\":{},\"mean-ns\":{}",
                    s.count, s.p50_ns, s.p95_ns, s.p99_ns, s.mean_ns
                );
            }
        }
        out.push_str("}\n");
    }

    // Heatmaps: hottest tiles first, truncated per line.
    for (name, mut tiles) in heatmaps_snapshot() {
        let total = tiles.len();
        tiles.sort_by(|a, b| b.hits.cmp(&a.hits).then(a.tile.cmp(&b.tile)));
        tiles.truncate(MAX_TILES_PER_LINE);
        out.push_str("{\"type\":\"heatmap\",");
        push_kv_str(&mut out, "name", name);
        let _ = write!(out, ",\"tiles-total\":{total},\"tiles\":[");
        for (i, t) in tiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{},{}]", t.tile, t.hits, t.total_ns);
        }
        out.push_str("]}\n");
    }

    // Flight recorder stats + drained slow captures.
    if let Some(r) = recorder::recorder() {
        let s = r.stats();
        let _ = write!(
            out,
            "{{\"type\":\"recorder\",\"capacity\":{},\"total\":{},\"dropped\":{},\
             \"slow-captured\":{},\"threshold-ns\":{},\"latency-count\":{},\"latency-p50-ns\":{},\
             \"latency-p99-ns\":{},\"latency-mean-ns\":{}}}\n",
            s.capacity,
            s.total,
            s.dropped,
            s.slow_captured,
            s.threshold_ns,
            s.latency.count,
            s.latency.p50_ns,
            s.latency.p99_ns,
            s.latency.mean_ns
        );
        for cap in r.take_slow_captures() {
            render_slow_line(&mut out, &cap);
        }
    }

    // Trailer: line count includes header and trailer.
    let lines = out.lines().count() + 1;
    let _ = write!(
        out,
        "{{\"type\":\"snapshot-end\",\"seq\":{seq},\"lines\":{lines}}}\n"
    );
    out
}

/// Handle to the background exporter thread. Dropping it stops the
/// thread, which writes one final snapshot before exiting.
pub struct Exporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    path: PathBuf,
}

impl std::fmt::Debug for Exporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Exporter")
            .field("path", &self.path)
            .finish()
    }
}

impl Exporter {
    /// The file snapshots are appended to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stops the background thread, writes the final snapshot, and
    /// joins. Called automatically on drop.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns the snapshot exporter: truncates `path`, then appends one
/// snapshot block immediately, one per `period` (floored to 10 ms),
/// and one final block at shutdown.
pub fn install_exporter(path: &Path, period: Duration) -> std::io::Result<Exporter> {
    let mut file = std::fs::File::create(path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let period = period.max(Duration::from_millis(10));
    let handle = std::thread::Builder::new()
        .name("lbq-obs-export".into())
        .spawn(move || {
            let mut seq = 0u64;
            loop {
                // Write errors must not take the process down; drop the
                // block and keep serving.
                let _ = file.write_all(render_snapshot(seq).as_bytes());
                let _ = file.flush();
                seq += 1;
                // Sleep in slices so shutdown stays prompt.
                let mut slept = Duration::ZERO;
                while slept < period {
                    if thread_stop.load(Ordering::Acquire) {
                        let _ = file.write_all(render_snapshot(seq).as_bytes());
                        let _ = file.flush();
                        return;
                    }
                    let slice = Duration::from_millis(10).min(period - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        })?;
    Ok(Exporter {
        stop,
        handle: Some(handle),
        path: path.to_path_buf(),
    })
}

/// Parses a `path[,period]` exporter spec. The period accepts `500ms`,
/// `2s`, or a bare millisecond count; default 1 s.
fn parse_spec(spec: &str) -> Option<(PathBuf, Duration)> {
    let (path, period) = match spec.split_once(',') {
        Some((p, rest)) => (p.trim(), parse_period(rest.trim())?),
        None => (spec.trim(), Duration::from_secs(1)),
    };
    if path.is_empty() {
        return None;
    }
    Some((PathBuf::from(path), period))
}

fn parse_period(s: &str) -> Option<Duration> {
    if let Some(ms) = s.strip_suffix("ms") {
        return ms.trim().parse::<u64>().ok().map(Duration::from_millis);
    }
    if let Some(secs) = s.strip_suffix('s') {
        return secs.trim().parse::<u64>().ok().map(Duration::from_secs);
    }
    s.parse::<u64>().ok().map(Duration::from_millis)
}

/// Reads `LBQ_OBS_SNAPSHOT=path[,period]`; when set, arms the flight
/// recorder (default config) and installs the exporter. Returns the
/// handle — keep it alive for the run — or `None` when unset or
/// malformed (malformed specs and I/O errors are reported on stderr,
/// never fatal).
pub fn install_exporter_from_env() -> Option<Exporter> {
    let spec = std::env::var("LBQ_OBS_SNAPSHOT").ok()?;
    let Some((path, period)) = parse_spec(&spec) else {
        eprintln!("[lbq-obs] ignoring malformed LBQ_OBS_SNAPSHOT={spec:?}");
        return None;
    };
    recorder::init_recorder(RecorderConfig::default());
    match install_exporter(&path, period) {
        Ok(e) => Some(e),
        Err(err) => {
            eprintln!(
                "[lbq-obs] cannot open snapshot file {}: {err}",
                path.display()
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_specs() {
        let (p, d) = parse_spec("/tmp/x.jsonl").unwrap();
        assert_eq!(p, PathBuf::from("/tmp/x.jsonl"));
        assert_eq!(d, Duration::from_secs(1));
        assert_eq!(
            parse_spec("snap.jsonl,500ms").unwrap().1,
            Duration::from_millis(500)
        );
        assert_eq!(
            parse_spec("snap.jsonl,2s").unwrap().1,
            Duration::from_secs(2)
        );
        assert_eq!(
            parse_spec("snap.jsonl, 250 ").unwrap().1,
            Duration::from_millis(250)
        );
        assert!(parse_spec("").is_none());
        assert!(parse_spec("x,abc").is_none());
    }

    #[test]
    fn snapshot_block_is_framed_and_versioned() {
        snapshot_field("test-export-field", 7u64);
        let block = render_snapshot(3);
        let lines: Vec<&str> = block.lines().collect();
        assert!(lines.len() >= 2);
        assert!(lines[0].starts_with("{\"type\":\"snapshot\",\"version\":1,\"seq\":3,"));
        assert!(lines[0].contains("\"test-export-field\":7"));
        let last = lines[lines.len() - 1];
        assert!(last.starts_with("{\"type\":\"snapshot-end\",\"seq\":3,"));
        assert!(last.contains(&format!("\"lines\":{}", lines.len())));
        // Every line is a single JSON object on one line.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "line: {l}");
        }
    }

    #[test]
    fn metrics_appear_in_snapshot() {
        let _serial = crate::metrics::TEST_REGISTRY_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let c = crate::metrics::counter("test-export-counter");
        c.add(41);
        c.incr();
        let block = render_snapshot(0);
        assert!(block
            .lines()
            .any(|l| l.contains("\"name\":\"test-export-counter\"")
                && l.contains("\"kind\":\"counter\"")
                && l.contains("\"value\":42")));
    }
}
