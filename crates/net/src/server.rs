//! The blocking TCP listener: a small fixed pool of worker threads,
//! each accepting connections and speaking HTTP/1.1 through
//! [`RequestReader`].
//!
//! There is no async runtime and no epoll loop: the control plane's
//! request volume is an operator poking an API plus a handful of node
//! agents heartbeating every few seconds, so `workers` blocking
//! threads with a per-read socket timeout are simpler and entirely
//! sufficient. Shutdown is cooperative: a shared stop flag plus one
//! wake-up connection per worker so every `accept` returns, then a
//! join.

use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::{HttpError, Limits, RequestReader, Response};
use crate::router::{route, AppState};

/// Keep-alive budget: requests served per connection before the server
/// closes it (bounds how long one client can hold a worker).
const MAX_REQUESTS_PER_CONN: usize = 64;

/// Listener tuning knobs. Requests parse under [`Limits::default`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads accepting connections.
    pub workers: usize,
    /// Per-read socket timeout; a client silent this long mid-request
    /// gets 408 and a close.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { workers: 2, read_timeout: Duration::from_secs(2) }
    }
}

/// The running listener: worker threads plus the shared stop flag.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and spawns the worker pool serving `state`.
    ///
    /// # Errors
    /// Any bind/configuration failure from the OS.
    pub fn start(addr: &str, state: Arc<AppState>, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let worker_count = config.workers.max(1);
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let listener = listener.try_clone()?;
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("gtlb-net-{i}"))
                    .spawn(move || worker_loop(&listener, &state, &stop, config))?,
            );
        }
        Ok(Self { local_addr, stop, workers })
    }

    /// The bound address (resolves port 0 to the assigned port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, wakes every worker, and joins the pool.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // One wake-up connection per worker: each blocked accept
        // returns, sees the flag, and exits.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.local_addr);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(listener: &TcpListener, state: &AppState, stop: &AtomicBool, config: ServerConfig) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Connection handling errors (client went away mid-response,
        // unusable socket) end that connection only, never the worker.
        let _ = handle_connection(stream, state, stop, config);
    }
}

fn handle_connection(
    stream: TcpStream,
    state: &AppState,
    stop: &AtomicBool,
    config: ServerConfig,
) -> io::Result<()> {
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_nodelay(true)?;
    let mut out = stream.try_clone()?;
    let mut reader = RequestReader::new(stream, Limits::default());
    for served in 0.. {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match reader.next_request() {
            Ok(None) => return Ok(()),
            Ok(Some(req)) => {
                let mut resp = route(state, &req);
                if req.wants_close() || served + 1 >= MAX_REQUESTS_PER_CONN {
                    resp.close = true;
                }
                resp.write_to(&mut out)?;
                if resp.close {
                    return Ok(());
                }
            }
            Err(err) => {
                // Parse failures get their status (400/408/413/431)
                // and a close; I/O failures just close.
                if let Some(resp) = Response::for_error(&err) {
                    let _ = resp.write_to(&mut out);
                }
                if let HttpError::Io(_) = err {
                    return Err(io::Error::other("connection failed"));
                }
                return Ok(());
            }
        }
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{Lifecycle, LifecycleConfig};
    use gtlb_runtime::{Runtime, SchemeKind};
    use std::io::{BufRead, BufReader, Read, Write};

    fn server() -> Server {
        let rt = Arc::new(
            Runtime::builder().seed(3).scheme(SchemeKind::Coop).nominal_arrival_rate(0.5).build(),
        );
        let state = Arc::new(AppState::new(
            rt.attach_control_plane(),
            Lifecycle::new(LifecycleConfig { auto_approve: true, ..LifecycleConfig::default() }),
        ));
        Server::start("127.0.0.1:0", state, ServerConfig::default()).unwrap()
    }

    fn send(addr: SocketAddr, raw: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(raw.as_bytes()).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        conn.read_to_string(&mut text).unwrap();
        text
    }

    #[test]
    fn serves_healthz_over_tcp() {
        let server = server();
        let text = send(server.local_addr(), "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("\"status\":\"ok\""), "{text}");
    }

    #[test]
    fn keep_alive_serves_sequential_requests() {
        let server = server();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        for _ in 0..3 {
            conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut status = String::new();
            reader.read_line(&mut status).unwrap();
            assert_eq!(status, "HTTP/1.1 200 OK\r\n");
            // Drain headers + body so the next request starts clean.
            let mut len = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if let Some(v) = line.strip_prefix("content-length: ") {
                    len = v.trim().parse().unwrap();
                }
                if line == "\r\n" {
                    break;
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            conn = reader.into_inner();
        }
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let server = server();
        let text = send(server.local_addr(), "NOT-HTTP\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
    }

    #[test]
    fn slow_client_gets_408() {
        let rt = Arc::new(Runtime::builder().seed(3).nominal_arrival_rate(0.5).build());
        let state = Arc::new(AppState::new(
            rt.attach_control_plane(),
            Lifecycle::new(LifecycleConfig::default()),
        ));
        let config =
            ServerConfig { read_timeout: Duration::from_millis(50), ..ServerConfig::default() };
        let server = Server::start("127.0.0.1:0", state, config).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // Half a request, then silence past the read timeout.
        conn.write_all(b"GET /healthz HTT").unwrap();
        let mut text = String::new();
        conn.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{text}");
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent() {
        let mut server = server();
        let addr = server.local_addr();
        let started = std::time::Instant::now();
        server.shutdown();
        server.shutdown();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(
            TcpStream::connect(addr).is_err() || send_after_shutdown(addr),
            "no worker should answer after shutdown"
        );
    }

    fn send_after_shutdown(addr: SocketAddr) -> bool {
        // A connect can still succeed briefly (backlog), but no worker
        // reads from it, so the response must be empty.
        let mut conn = match TcpStream::connect(addr) {
            Ok(c) => c,
            Err(_) => return true,
        };
        let _ = conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
        let mut buf = [0u8; 64];
        !matches!(conn.read(&mut buf), Ok(n) if n > 0)
    }
}
