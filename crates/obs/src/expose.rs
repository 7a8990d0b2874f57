//! Prometheus text exposition: render a [`Snapshot`] in the
//! `text/plain; version=0.0.4` format and (optionally) serve it from a
//! std-only `TcpListener` (`--metrics-addr 127.0.0.1:PORT`). Zero
//! dependencies — the handler speaks just enough HTTP/1.0 for a
//! scraper or `curl`, one request per connection.
//!
//! A scrape renders the *live merged* view: the global registry plus
//! every registered scrape source. The sharded engines register their
//! per-worker registries for the duration of a run
//! ([`register_scrape_sources`] returns an RAII guard), so `/metrics`
//! reflects shard-local counters mid-run even though those registries
//! are only folded into the global one after the final epoch.

use crate::metrics::HISTOGRAM_BUCKETS;
use crate::registry::{global, Registry, Snapshot};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Maps a registry metric name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other foreign characters
/// become underscores and everything gains a `dmra_` prefix.
#[must_use]
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("dmra_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a HELP text per the exposition format (backslash and
/// newline).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders `snapshot` in the Prometheus text exposition format.
/// Counters and gauges map directly; histograms emit cumulative
/// `_bucket{le="..."}` series (bucket *i*'s upper bound is `2^i − 1`,
/// bucket 0 is `{0}`) plus `_sum` and `_count`. Only occupied buckets
/// and the mandatory `+Inf` bound are emitted — 48 mostly-empty
/// power-of-two buckets per histogram would dwarf the payload.
#[must_use]
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    for (name, value) in &snapshot.counters {
        let p = sanitize_metric_name(name);
        out.push_str(&format!(
            "# HELP {p} {}\n# TYPE {p} counter\n{p} {value}\n",
            escape_help(name)
        ));
    }
    for (name, value) in &snapshot.gauges {
        let p = sanitize_metric_name(name);
        out.push_str(&format!(
            "# HELP {p} {}\n# TYPE {p} gauge\n{p} {value}\n",
            escape_help(name)
        ));
    }
    for (name, s) in &snapshot.histograms {
        let p = sanitize_metric_name(name);
        out.push_str(&format!(
            "# HELP {p} {} (nanoseconds)\n# TYPE {p} histogram\n",
            escape_help(name)
        ));
        let mut cumulative = 0u64;
        for (i, &b) in s.buckets.iter().enumerate().take(HISTOGRAM_BUCKETS) {
            if b == 0 {
                continue;
            }
            cumulative += b;
            let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
            out.push_str(&format!("{p}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {}\n", s.count));
        out.push_str(&format!("{p}_sum {}\n{p}_count {}\n", s.sum, s.count));
    }
    out
}

/// Live scrape sources: weak handles to per-worker registries that
/// should be merged into scrapes while a sharded run is in flight.
static SOURCES: Mutex<Vec<(u64, Weak<Registry>)>> = Mutex::new(Vec::new());
static NEXT_SOURCE_ID: AtomicU64 = AtomicU64::new(0);

/// Unregisters its registries when dropped. Engines drop (or
/// explicitly `drop(guard)`) *before* folding worker registries into
/// the global one, so a scrape never double-counts.
#[derive(Debug, Default)]
pub struct ScrapeGuard {
    ids: Vec<u64>,
}

impl Drop for ScrapeGuard {
    fn drop(&mut self) {
        let mut sources = SOURCES.lock().expect("scrape sources poisoned");
        sources.retain(|(id, _)| !self.ids.contains(id));
    }
}

/// Registers `registries` as live scrape sources until the returned
/// guard is dropped. Holds weak references only, so a leaked guard
/// cannot keep a worker registry alive.
#[must_use]
pub fn register_scrape_sources(registries: &[Arc<Registry>]) -> ScrapeGuard {
    let mut sources = SOURCES.lock().expect("scrape sources poisoned");
    let mut ids = Vec::with_capacity(registries.len());
    for r in registries {
        let id = NEXT_SOURCE_ID.fetch_add(1, Ordering::Relaxed);
        sources.push((id, Arc::downgrade(r)));
        ids.push(id);
    }
    ScrapeGuard { ids }
}

/// The merged live view served by `/metrics`: the global registry plus
/// every currently registered scrape source (dead sources are pruned).
#[must_use]
pub fn scrape_snapshot() -> Snapshot {
    let mut snap = global().snapshot();
    let mut sources = SOURCES.lock().expect("scrape sources poisoned");
    sources.retain(|(_, w)| {
        if let Some(r) = w.upgrade() {
            snap.merge(&r.snapshot());
            true
        } else {
            false
        }
    });
    snap
}

fn handle_connection(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(2000)));
    // Drain the request line + headers (best effort — the response is
    // the same for every path, there is only one resource here).
    let mut buf = [0u8; 1024];
    let _ = stream.read(&mut buf);
    let body = render_prometheus(&scrape_snapshot());
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// A minimal background `/metrics` HTTP endpoint.
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving scrapes on a background thread.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the address cannot be
    /// bound.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("dmra-metrics".to_owned())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(false);
                            handle_connection(stream);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(Self {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn snapshot_with(f: impl Fn(&Registry)) -> Snapshot {
        let reg = Registry::new();
        f(&reg);
        reg.snapshot()
    }

    #[test]
    fn sanitize_prefixes_and_replaces_dots() {
        assert_eq!(sanitize_metric_name("sim.epoch_ns"), "dmra_sim_epoch_ns");
        assert_eq!(
            sanitize_metric_name("sweep.worker.0.cells"),
            "dmra_sweep_worker_0_cells"
        );
        assert_eq!(sanitize_metric_name("weird name"), "dmra_weird_name");
    }

    #[test]
    fn counters_and_gauges_have_help_and_type() {
        let text = render_prometheus(&snapshot_with(|r| {
            r.counter("sim.arrivals").add(12);
            r.gauge("sweep.workers_used").set(4);
        }));
        assert!(text.contains("# HELP dmra_sim_arrivals sim.arrivals\n"));
        assert!(text.contains("# TYPE dmra_sim_arrivals counter\n"));
        assert!(text.contains("dmra_sim_arrivals 12\n"));
        assert!(text.contains("# TYPE dmra_sweep_workers_used gauge\n"));
        assert!(text.contains("dmra_sweep_workers_used 4\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad sample line: {line}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let text = render_prometheus(&snapshot_with(|r| {
            let h = r.histogram("sim.solve_ns");
            h.record(3); // bucket le=3
            h.record(3);
            h.record(100); // bucket le=127
        }));
        assert!(text.contains("# TYPE dmra_sim_solve_ns histogram\n"));
        assert!(text.contains("dmra_sim_solve_ns_bucket{le=\"3\"} 2\n"));
        assert!(
            text.contains("dmra_sim_solve_ns_bucket{le=\"127\"} 3\n"),
            "buckets must be cumulative:\n{text}"
        );
        assert!(text.contains("dmra_sim_solve_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("dmra_sim_solve_ns_sum 106\n"));
        assert!(text.contains("dmra_sim_solve_ns_count 3\n"));
        // +Inf must come last among buckets and match _count.
        let bucket_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("dmra_sim_solve_ns_bucket"))
            .collect();
        assert!(bucket_lines.last().unwrap().contains("+Inf"));
        let counts: Vec<u64> = bucket_lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "non-monotone");
    }

    #[test]
    fn help_escapes_newlines_and_backslashes() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
    }

    #[test]
    fn empty_histogram_renders_inf_bucket_only() {
        let summary = Histogram::new().summary();
        let snap = Snapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![("idle.ns".to_owned(), summary)],
        };
        let text = render_prometheus(&snap);
        assert!(text.contains("dmra_idle_ns_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("dmra_idle_ns_count 0\n"));
    }

    #[test]
    fn scrape_sources_merge_and_unregister() {
        let worker = Arc::new(Registry::new());
        worker.counter("test.expose.shard_rows").add(41);
        let before = scrape_snapshot().counter("test.expose.shard_rows");
        {
            let _guard = register_scrape_sources(&[Arc::clone(&worker)]);
            let live = scrape_snapshot().counter("test.expose.shard_rows");
            assert_eq!(
                live.unwrap_or(0),
                before.unwrap_or(0) + 41,
                "live scrape merges the worker registry"
            );
        }
        let after = scrape_snapshot().counter("test.expose.shard_rows");
        assert_eq!(after, before, "guard drop unregisters the source");
    }

    #[test]
    fn metrics_server_serves_valid_exposition() {
        let _global = crate::registry::global_test_lock();
        global().counter("test.expose.served").add(7);
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"));
        assert!(response.contains("dmra_test_expose_served 7\n"));
        server.shutdown();
    }
}
