//! A std-only HTTP/1.1 endpoint serving live run telemetry and, for the
//! resident alignment service, a small routed API.
//!
//! Post-hoc exports (`--metrics`, `--trace-out`) require the run to
//! finish; a multi-hour megabase comparison deserves a scrape target
//! *while it executes*. This module provides one with zero dependencies:
//! a [`MetricsHub`] that the pipeline publishes snapshots into, and a
//! [`MetricsServer`] — a `TcpListener` accept loop on a background thread
//! answering three built-in routes:
//!
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4) of the
//!   hub's current registry, straight from [`crate::prom::prometheus`].
//! * `GET /health` — a tiny JSON liveness document:
//!   `{"healthy": true, "state": "running"}`.
//! * `GET /flight` — the flight-recorder rings as JSONL (empty body when
//!   no recorder is attached).
//!
//! Everything else is `404`; non-GET methods on the built-in routes are
//! `405`. On top of that, [`MetricsServer::bind_routed`] accepts a
//! [`Handler`]: a closure tried *before* the built-in routes, which is how
//! the alignment service mounts `POST /jobs`, `GET /jobs/:id`,
//! `GET /jobs/:id/events` (a streamed NDJSON [`Response::Stream`]) and
//! `DELETE /jobs/:id` without this crate knowing anything about jobs.
//!
//! The accept loop blocks in `accept` and wakes only when a client
//! connects, so a request is picked up the moment it arrives. Shutdown
//! sets a stop flag and wakes the loop with one loopback connect of its
//! own, which the loop drops unserved. Each accepted connection is served
//! on its own short-lived thread (a progress stream must not block a
//! Prometheus scrape), and every request read is bounded by a **total
//! deadline** — not just a per-read timeout. A half-open or
//! byte-trickling client therefore cannot wedge the server: it occupies
//! only its own connection thread, which drops it when the deadline
//! expires (regression-tested below with a half-open socket).

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::flight::FlightRecorder;
use crate::metrics::MetricsRegistry;
use crate::prom::prometheus;

/// Total wall-clock budget for reading one request (head *and* body). A
/// client that has not delivered a full request within this window is
/// dropped — the fix for the stalled-client wedge: the old code reset its
/// 500 ms read timeout on every byte, so a trickling sender could hold
/// the single-threaded accept loop forever.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Largest request body accepted (`413` beyond it). Generous enough for a
/// batch of megabase FASTA texts posted to `/jobs`.
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// Concurrent connection cap; excess connections get a fast `503`.
const MAX_CONNECTIONS: usize = 32;

/// Pause after a failed `accept` (e.g. `EMFILE`), so a persistent error
/// does not spin the listener thread. Never taken on the normal path:
/// the listener blocks until a client connects.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(25);

/// How long shutdown keeps trying to wake the blocked accept before it
/// gives up joining the listener thread.
const WAKE_DEADLINE: Duration = Duration::from_secs(2);

/// One parsed HTTP request as the router sees it: method, path (query
/// string stripped) and the raw body bytes.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8 text (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// What a route produces: a complete in-memory body, or a stream of
/// chunks (NDJSON progress events) written as they arrive and terminated
/// by connection close — the reader consumes until EOF, so no chunked
/// framing is needed.
pub enum Response {
    Full {
        status: &'static str,
        content_type: &'static str,
        body: String,
    },
    Stream {
        status: &'static str,
        content_type: &'static str,
        chunks: mpsc::Receiver<String>,
    },
}

impl Response {
    pub fn json(status: &'static str, body: impl Into<String>) -> Response {
        Response::Full {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    pub fn ok_json(body: impl Into<String>) -> Response {
        Response::json("200 OK", body)
    }

    pub fn text(status: &'static str, body: impl Into<String>) -> Response {
        Response::Full {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// A newline-delimited JSON stream: each string received on `chunks`
    /// is written (and flushed) as soon as it arrives; the response ends
    /// when every sender is dropped.
    pub fn ndjson_stream(chunks: mpsc::Receiver<String>) -> Response {
        Response::Stream {
            status: "200 OK",
            content_type: "application/x-ndjson",
            chunks,
        }
    }
}

/// A route hook tried before the built-in `/metrics`, `/health` and
/// `/flight` routes. Return `None` to fall through to them.
pub type Handler = Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>;

/// Shared state between a running pipeline (writer) and the HTTP server
/// (reader). The pipeline publishes registry snapshots at row-ish
/// cadence; scrapes serve whatever the latest snapshot says.
#[derive(Debug)]
pub struct MetricsHub {
    registry: Mutex<MetricsRegistry>,
    healthy: AtomicBool,
    state: Mutex<String>,
    flight: Mutex<Option<Arc<FlightRecorder>>>,
}

impl MetricsHub {
    pub fn new() -> Arc<MetricsHub> {
        Arc::new(MetricsHub {
            registry: Mutex::new(MetricsRegistry::new()),
            healthy: AtomicBool::new(true),
            state: Mutex::new("starting".to_string()),
            flight: Mutex::new(None),
        })
    }

    /// Replace the served registry with `registry`. Cheap enough to call
    /// per sampling tick: the registry is counters plus small histograms.
    pub fn publish(&self, registry: MetricsRegistry) {
        *self.registry.lock().unwrap() = registry;
    }

    /// Current snapshot (clone) of the served registry.
    pub fn registry(&self) -> MetricsRegistry {
        self.registry.lock().unwrap().clone()
    }

    /// Attach the run's flight recorder so `/flight` serves live rings.
    pub fn attach_flight(&self, flight: Arc<FlightRecorder>) {
        *self.flight.lock().unwrap() = Some(flight);
    }

    /// Update the `/health` document: liveness plus a free-form state
    /// label ("running", "recovering", "done", …).
    pub fn set_health(&self, healthy: bool, state: &str) {
        self.healthy.store(healthy, Ordering::Relaxed);
        *self.state.lock().unwrap() = state.to_string();
    }

    fn health_json(&self) -> String {
        let healthy = self.healthy.load(Ordering::Relaxed);
        let state = self.state.lock().unwrap().clone();
        format!(
            "{{\"healthy\": {}, \"state\": \"{}\"}}\n",
            healthy,
            state.replace('\\', "\\\\").replace('"', "\\\"")
        )
    }

    fn flight_jsonl(&self) -> String {
        match self.flight.lock().unwrap().as_ref() {
            Some(fr) => fr.dump_jsonl(),
            None => String::new(),
        }
    }
}

/// The background HTTP endpoint. Dropping (or calling
/// [`MetricsServer::shutdown`]) stops the accept loop and joins it;
/// in-flight connection threads drain on their own deadlines.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`, or port `0` for an ephemeral
    /// port — see [`MetricsServer::local_addr`]) and start serving `hub`
    /// on the three built-in routes.
    pub fn bind(addr: &str, hub: Arc<MetricsHub>) -> std::io::Result<MetricsServer> {
        Self::bind_routed(addr, hub, None)
    }

    /// Like [`MetricsServer::bind`], additionally trying `handler` on
    /// every request before the built-in routes.
    pub fn bind_routed(
        addr: &str,
        hub: Arc<MetricsHub>,
        handler: Option<Handler>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("megasw-metrics-http".to_string())
            .spawn(move || serve_loop(listener, hub, handler, stop2))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — the actual port when bound with port `0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Set the stop flag, then wake the accept blocked in the server
    /// thread with one loopback connect; the woken loop sees the flag and
    /// drops that connection unserved. The connect is retried only if it
    /// failed (a momentarily full backlog, say); if it keeps failing past
    /// [`WAKE_DEADLINE`] the thread is left to exit on its next accepted
    /// connection rather than hanging the caller.
    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        let wake = wake_addr(self.addr);
        let deadline = Instant::now() + WAKE_DEADLINE;
        while !handle.is_finished() {
            if TcpStream::connect_timeout(&wake, Duration::from_millis(250)).is_ok() {
                break;
            }
            if Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(ACCEPT_BACKOFF);
        }
        let _ = handle.join();
    }
}

/// Where shutdown connects to wake the listener: the bound address, with
/// an unspecified IP (`0.0.0.0`, `::`) mapped to the loopback address of
/// the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(v4) if v4.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(v6) if v6.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_loop(
    listener: TcpListener,
    hub: Arc<MetricsHub>,
    handler: Option<Handler>,
    stop: Arc<AtomicBool>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    loop {
        let accepted = listener.accept();
        // Set before shutdown's wake-up connect, so the connection that
        // woke this accept is dropped here without a handler.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let mut stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        if active.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
            let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
            let _ = stream.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            );
            continue;
        }
        active.fetch_add(1, Ordering::Relaxed);
        let hub = Arc::clone(&hub);
        let handler = handler.clone();
        let conn_active = Arc::clone(&active);
        // One thread per connection: a long-lived event stream (or a
        // stalled client waiting out its deadline) must not block the
        // next scrape. A failed spawn only loses that one connection.
        let spawned = std::thread::Builder::new()
            .name("megasw-http-conn".to_string())
            .spawn(move || {
                let _ = handle_connection(&mut stream, &hub, handler.as_ref());
                // Release the slot before the close, so a client that
                // reconnects as soon as it reads EOF never finds it taken.
                conn_active.fetch_sub(1, Ordering::Relaxed);
                drop(stream);
            });
        if spawned.is_err() {
            active.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

fn handle_connection(
    stream: &mut TcpStream,
    hub: &MetricsHub,
    handler: Option<&Handler>,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let request = match read_request(stream) {
        Ok(req) => req,
        Err(ReadError::TooLarge) => {
            return write_full(
                stream,
                "413 Payload Too Large",
                "text/plain; charset=utf-8",
                "request body too large\n",
            );
        }
        // Deadline expired or the socket died: drop the connection.
        Err(ReadError::Io(e)) => return Err(e),
    };
    let response = handler
        .and_then(|h| h(&request))
        .unwrap_or_else(|| builtin_route(&request, hub));
    match response {
        Response::Full {
            status,
            content_type,
            body,
        } => write_full(stream, status, content_type, &body),
        Response::Stream {
            status,
            content_type,
            chunks,
        } => {
            // No Content-Length: the body runs until connection close,
            // which HTTP/1.1 permits with `Connection: close`.
            let head = format!(
                "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n"
            );
            stream.write_all(head.as_bytes())?;
            stream.flush()?;
            // Ends when every sender is gone; a write error (client hung
            // up) drops the receiver, which in turn unblocks the producer.
            while let Ok(chunk) = chunks.recv() {
                stream.write_all(chunk.as_bytes())?;
                stream.flush()?;
            }
            Ok(())
        }
    }
}

fn write_full(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

enum ReadError {
    TooLarge,
    Io(std::io::Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read one full request — head and `Content-Length` body — under
/// [`REQUEST_DEADLINE`]. Each read's timeout is the *remaining* budget,
/// so progress never resets the clock and a trickling client is cut off
/// at the deadline no matter how often it sends a byte.
fn read_request(stream: &mut TcpStream) -> Result<Request, ReadError> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() >= 64 * 1024 {
            // A head this big is not a scrape or a job submission.
            return Err(ReadError::TooLarge);
        }
        let n = read_some(stream, &mut chunk, deadline)?;
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let mut first = lines.next().unwrap_or("").split_whitespace();
    let method = first.next().unwrap_or("").to_string();
    let path = first.next().unwrap_or("");
    // Ignore any query string: scrapers sometimes append cache-busters.
    let path = path.split('?').next().unwrap_or(path).to_string();
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge);
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_some(stream, &mut chunk, deadline)?;
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One read bounded by the connection deadline. Errors with `TimedOut`
/// once the deadline has passed or the peer goes quiet past it;
/// `UnexpectedEof` if the peer closes early.
fn read_some(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
) -> Result<usize, ReadError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(ReadError::Io(std::io::ErrorKind::TimedOut.into()));
    }
    stream
        .set_read_timeout(Some(remaining))
        .map_err(ReadError::Io)?;
    match stream.read(chunk) {
        Ok(0) => Err(ReadError::Io(std::io::ErrorKind::UnexpectedEof.into())),
        Ok(n) => Ok(n),
        Err(e) => Err(ReadError::Io(e)),
    }
}

/// The built-in routes: `/metrics`, `/health`, `/flight` (GET only).
fn builtin_route(request: &Request, hub: &MetricsHub) -> Response {
    if request.method != "GET" {
        return Response::Full {
            status: "405 Method Not Allowed",
            content_type: "text/plain; charset=utf-8",
            body: "method not allowed\n".to_string(),
        };
    }
    match request.path.as_str() {
        "/metrics" => Response::Full {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: prometheus(&hub.registry.lock().unwrap()),
        },
        "/health" => Response::ok_json(hub.health_json()),
        "/flight" => Response::Full {
            status: "200 OK",
            content_type: "application/x-ndjson",
            body: hub.flight_jsonl(),
        },
        _ => Response::text(
            "404 Not Found",
            "not found; try /metrics, /health or /flight\n".to_string(),
        ),
    }
}

/// Minimal std-only HTTP client: one request against `addr`, returning
/// `(head, body)` where `head` is the status line plus every response
/// header. Shared by the CLI's `submit` client, the `metrics_scrape`
/// binary and the tests so CI exercises the same code path. Reads to EOF,
/// so it also consumes streamed (`Connection: close`) bodies such as
/// `/jobs/:id/events`.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    match raw.find("\r\n\r\n") {
        Some(i) => Ok((raw[..i].to_string(), raw[i + 4..].to_string())),
        None => Ok((raw.lines().next().unwrap_or("").to_string(), String::new())),
    }
}

/// `GET path` against `addr`.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(String, String)> {
    http_request(addr, "GET", path, None)
}

/// `POST path` with a JSON body.
pub fn http_post(addr: &str, path: &str, body: &str) -> std::io::Result<(String, String)> {
    http_request(addr, "POST", path, Some(body))
}

/// `DELETE path` against `addr`.
pub fn http_delete(addr: &str, path: &str) -> std::io::Result<(String, String)> {
    http_request(addr, "DELETE", path, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightEvent, FlightKind, FlightRecorder};
    use crate::json;
    use crate::prom::validate_exposition;

    fn hub_with_data() -> Arc<MetricsHub> {
        let hub = MetricsHub::new();
        let mut reg = MetricsRegistry::new();
        reg.incr("stall.startup_ns", 123);
        reg.incr("attr.d0.wait_input_ns", 456);
        reg.observe("gcups.device", 17.5);
        hub.publish(reg);
        hub.set_health(true, "running");
        hub
    }

    #[test]
    fn metrics_endpoint_serves_valid_exposition() {
        let hub = hub_with_data();
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        let addr = server.local_addr().to_string();
        let (status, body) = http_get(&addr, "/metrics").unwrap();
        assert!(status.contains("200"), "{status}");
        let summary = validate_exposition(&body).expect("served exposition must validate");
        assert!(summary.families >= 3, "{summary:?}");
        assert!(body.contains("megasw_stall_startup_ns"), "{body}");
        server.shutdown();
    }

    #[test]
    fn health_endpoint_reflects_hub_state() {
        let hub = hub_with_data();
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        let addr = server.local_addr().to_string();
        let (status, body) = http_get(&addr, "/health").unwrap();
        assert!(status.contains("200"), "{status}");
        let v = json::parse(body.trim()).unwrap();
        assert_eq!(v.get("healthy"), Some(&json::Value::Bool(true)));
        assert_eq!(v.get("state").unwrap().as_str(), Some("running"));
        hub.set_health(false, "recovering");
        let (_, body) = http_get(&addr, "/health").unwrap();
        let v = json::parse(body.trim()).unwrap();
        assert_eq!(v.get("healthy"), Some(&json::Value::Bool(false)));
        assert_eq!(v.get("state").unwrap().as_str(), Some("recovering"));
        server.shutdown();
    }

    #[test]
    fn flight_endpoint_serves_the_rings_and_unknown_paths_404() {
        let hub = hub_with_data();
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        let addr = server.local_addr().to_string();
        // No recorder attached yet: empty body, still 200.
        let (status, body) = http_get(&addr, "/flight").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.is_empty(), "{body}");
        let fr = FlightRecorder::new(1, 8);
        fr.record(
            0,
            FlightEvent {
                kind: FlightKind::Fault,
                device: 2,
                row: 40,
                t_ns: 99,
                dur_ns: 0,
                aux: 0,
            },
        );
        hub.attach_flight(Arc::clone(&fr));
        let (_, body) = http_get(&addr, "/flight").unwrap();
        assert_eq!(body.lines().count(), 1);
        assert!(json::parse(body.trim()).is_ok(), "{body}");
        let (status, _) = http_get(&addr, "/nope").unwrap();
        assert!(status.contains("404"), "{status}");
        server.shutdown();
    }

    #[test]
    fn non_get_methods_are_rejected_on_builtin_routes() {
        let hub = MetricsHub::new();
        let server = MetricsServer::bind("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn routed_handler_sees_method_path_and_body() {
        let hub = MetricsHub::new();
        let handler: Handler =
            Arc::new(
                |req: &Request| match (req.method.as_str(), req.path.as_str()) {
                    ("POST", "/echo") => Some(Response::ok_json(format!(
                        "{{\"got\": \"{}\"}}",
                        req.body_str()
                    ))),
                    ("DELETE", "/echo") => Some(Response::json("200 OK", "{\"deleted\": true}")),
                    _ => None,
                },
            );
        let server = MetricsServer::bind_routed("127.0.0.1:0", hub, Some(handler)).unwrap();
        let addr = server.local_addr().to_string();
        let (status, body) = http_post(&addr, "/echo", "ping").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"got\": \"ping\""), "{body}");
        let (status, body) = http_delete(&addr, "/echo").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("deleted"), "{body}");
        // Unmatched paths still fall through to the built-in routes.
        let (status, _) = http_get(&addr, "/health").unwrap();
        assert!(status.contains("200"), "{status}");
        let (status, _) = http_get(&addr, "/jobs/999").unwrap();
        assert!(status.contains("404"), "{status}");
        server.shutdown();
    }

    #[test]
    fn streamed_response_delivers_every_chunk() {
        let hub = MetricsHub::new();
        let handler: Handler = Arc::new(|req: &Request| {
            (req.path == "/events").then(|| {
                let (tx, rx) = mpsc::sync_channel::<String>(8);
                std::thread::spawn(move || {
                    for i in 0..5 {
                        tx.send(format!("{{\"tick\": {i}}}\n")).unwrap();
                        std::thread::sleep(Duration::from_millis(5));
                    }
                });
                Response::ndjson_stream(rx)
            })
        });
        let server = MetricsServer::bind_routed("127.0.0.1:0", hub, Some(handler)).unwrap();
        let addr = server.local_addr().to_string();
        let (status, body) = http_get(&addr, "/events").unwrap();
        assert!(status.contains("200"), "{status}");
        assert_eq!(body.lines().count(), 5, "{body}");
        for (i, line) in body.lines().enumerate() {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("tick").unwrap().as_f64(), Some(i as f64));
        }
        server.shutdown();
    }

    /// The listener blocks in `accept` instead of polling it, so an idle
    /// server answers a request as soon as it connects; a 25 ms poll
    /// would cost about 500 ms over these 20 requests.
    #[test]
    fn idle_server_answers_sequential_requests_without_polling_delay() {
        let hub = hub_with_data();
        let server = MetricsServer::bind("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr().to_string();
        let t = Instant::now();
        for _ in 0..20 {
            let (status, _) = http_get(&addr, "/health").unwrap();
            assert!(status.contains("200"), "{status}");
        }
        let took = t.elapsed();
        assert!(
            took < Duration::from_millis(250),
            "20 sequential GET /health took {took:?}"
        );
        server.shutdown();
    }

    /// Shutdown wakes the blocked accept with a loopback connect, also
    /// when the server is bound to the unspecified address.
    #[test]
    fn shutdown_wakes_the_blocked_accept_promptly() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = MetricsServer::bind(bind, MetricsHub::new()).unwrap();
            // Let the listener thread reach its blocking accept.
            std::thread::sleep(Duration::from_millis(20));
            let t = Instant::now();
            server.shutdown();
            let took = t.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "shutdown of a server bound to {bind} took {took:?}"
            );
        }
        assert_eq!(
            wake_addr("0.0.0.0:9".parse().unwrap()),
            "127.0.0.1:9".parse().unwrap()
        );
        assert_eq!(
            wake_addr("[::]:9".parse().unwrap()),
            "[::1]:9".parse().unwrap()
        );
        assert_eq!(
            wake_addr("10.1.2.3:9".parse().unwrap()),
            "10.1.2.3:9".parse().unwrap()
        );
    }

    /// The stalled-client regression (half-open socket): a connection that
    /// sends a partial request head and then goes silent must neither
    /// block other clients nor be kept around past the request deadline.
    #[test]
    fn half_open_socket_cannot_wedge_the_server() {
        let hub = hub_with_data();
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        let addr = server.local_addr().to_string();

        let mut stalled = TcpStream::connect(&addr).unwrap();
        stalled.write_all(b"GET /metr").unwrap(); // …and never finish.

        // Other clients are served promptly while the stalled connection
        // is still open.
        let t = Instant::now();
        let (status, _) = http_get(&addr, "/metrics").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(
            t.elapsed() < Duration::from_secs(1),
            "scrape stalled behind a half-open connection: {:?}",
            t.elapsed()
        );

        // The server drops the stalled connection once its total deadline
        // expires (read returns EOF / reset rather than hanging forever).
        stalled
            .set_read_timeout(Some(REQUEST_DEADLINE + Duration::from_secs(3)))
            .unwrap();
        let mut buf = [0u8; 64];
        match stalled.read(&mut buf) {
            Ok(0) => {} // clean close
            Ok(n) => panic!("unexpected {n} bytes on a half-open socket"),
            Err(e) => assert!(
                e.kind() != std::io::ErrorKind::WouldBlock
                    && e.kind() != std::io::ErrorKind::TimedOut,
                "server never closed the half-open connection: {e}"
            ),
        }
        server.shutdown();
    }

    #[test]
    fn oversized_bodies_are_rejected() {
        let hub = MetricsHub::new();
        let server = MetricsServer::bind("127.0.0.1:0", hub).unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let head = format!(
            "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        stream.write_all(head.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
        server.shutdown();
    }
}
