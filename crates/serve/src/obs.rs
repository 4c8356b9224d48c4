//! Live observability endpoint (`/metrics`, `/healthz`, `/trace`).
//!
//! A deliberately tiny, std-only, blocking HTTP/1.1 server that exposes
//! a **finished run's** exports over a socket so standard tooling
//! (`curl`, a Prometheus scraper, a browser pointed at Perfetto) can
//! pull them. The deterministic event loop stays pure: the server never
//! touches live simulation state, it serves an immutable [`ObsSnapshot`]
//! rendered once from the final [`ServeReport`]. `/metrics` is
//! byte-identical to the `--prom-out` file, `/trace` to the
//! `--trace-out` file — the socket is a transport, not a second code
//! path.
//!
//! One connection at a time, `Connection: close` on every response; the
//! accept loop is bounded by `max_requests` when the caller needs the
//! server to terminate (tests, CI smoke). A hostile client can hold the
//! endpoint for at most 5 s and make it buffer at most one 8 KiB line at
//! a time; requests past 64 headers are refused.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::report::ServeReport;

/// Longest request or header line accepted, terminator included.
const MAX_LINE: usize = 8 * 1024;
/// Most header lines accepted after the request line.
const MAX_HEADERS: usize = 64;
/// Most bytes of a rejected request discarded before hanging up.
const DRAIN_LIMIT: u64 = 8 * MAX_LINE as u64;
/// Whole-connection deadline: reading the request and writing the
/// response must finish within it, however slowly the peer trickles
/// bytes, so a stalled peer cannot wedge the accept loop.
const CONN_DEADLINE: Duration = Duration::from_secs(5);

/// The immutable endpoint payloads, rendered once from a final report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// `/metrics` body (Prometheus text exposition).
    pub metrics: String,
    /// `/healthz` body (one JSON line).
    pub healthz: String,
    /// `/trace` body (Chrome trace-event JSON).
    pub trace: String,
}

impl ObsSnapshot {
    /// Renders the endpoint payloads from a finished run.
    pub fn of(report: &ServeReport) -> Self {
        ObsSnapshot {
            metrics: report.to_prometheus(),
            healthz: report.to_healthz(),
            trace: report.to_chrome_trace(),
        }
    }
}

/// The blocking observability server.
#[derive(Debug)]
pub struct ObsServer {
    listener: TcpListener,
    snapshot: ObsSnapshot,
    /// Per-connection deadline ([`CONN_DEADLINE`]; shortened in tests).
    deadline: Duration,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`, port 0 for ephemeral).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, snapshot: ObsSnapshot) -> io::Result<Self> {
        Ok(ObsServer {
            listener: TcpListener::bind(addr)?,
            snapshot,
            deadline: CONN_DEADLINE,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and answers connections one at a time. With
    /// `max_requests: Some(n)` the loop returns after `n` connections;
    /// with `None` it runs until the process exits. Returns the number
    /// of connections handled. Per-connection I/O errors are counted
    /// against the bound but otherwise ignored — a misbehaving client
    /// must not take the endpoint down.
    ///
    /// # Errors
    ///
    /// Propagates accept failures (not per-connection I/O errors).
    pub fn serve(&self, max_requests: Option<u64>) -> io::Result<u64> {
        let mut handled = 0;
        loop {
            if let Some(limit) = max_requests {
                if handled >= limit {
                    return Ok(handled);
                }
            }
            let (stream, _) = self.listener.accept()?;
            let _ = self.handle(stream);
            handled += 1;
        }
    }

    fn handle(&self, stream: TcpStream) -> io::Result<()> {
        let mut reader = BufReader::new(Deadline {
            stream: &stream,
            at: Instant::now() + self.deadline,
        });
        let text = "text/plain; charset=utf-8";
        let request = read_request(&mut reader)?;
        let (status, content_type, body): (&str, &str, &str) = match &request {
            Err(status) => (*status, text, "request too large\n"),
            Ok(request_line) => {
                let mut parts = request_line.split_whitespace();
                let method = parts.next().unwrap_or("");
                let path = parts.next().unwrap_or("");
                if method != "GET" {
                    ("405 Method Not Allowed", text, "method not allowed\n")
                } else {
                    match path {
                        "/metrics" => (
                            "200 OK",
                            "text/plain; version=0.0.4; charset=utf-8",
                            &self.snapshot.metrics,
                        ),
                        "/healthz" => ("200 OK", "application/json", &self.snapshot.healthz),
                        "/trace" => ("200 OK", "application/json", &self.snapshot.trace),
                        _ => ("404 Not Found", text, "not found\n"),
                    }
                }
            }
        };
        let mut stream = reader.into_inner();
        write!(
            stream,
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        if request.is_err() {
            // The peer may still be sending the rejected request; closing
            // with unread input would reset the connection before it reads
            // the status. Half-close and discard a bounded amount first.
            stream.stream.shutdown(Shutdown::Write)?;
            io::copy(&mut stream.take(DRAIN_LIMIT), &mut io::sink())?;
        }
        Ok(())
    }
}

/// Reads the request line and drains the headers (the snapshot server
/// ignores them all). Returns the request line, or the error status when
/// a line exceeds [`MAX_LINE`] or the headers exceed [`MAX_HEADERS`].
fn read_request(reader: &mut impl BufRead) -> io::Result<Result<String, &'static str>> {
    let mut line = Vec::new();
    if !read_line_capped(reader, &mut line)? {
        return Ok(Err("414 URI Too Long"));
    }
    let request_line = String::from_utf8_lossy(&line).into_owned();
    // Up to MAX_HEADERS headers, then the blank line that ends them.
    for _ in 0..=MAX_HEADERS {
        if !read_line_capped(reader, &mut line)? {
            return Ok(Err("431 Request Header Fields Too Large"));
        }
        if line.is_empty() || line == b"\r\n" || line == b"\n" {
            return Ok(Ok(request_line));
        }
    }
    Ok(Err("431 Request Header Fields Too Large"))
}

/// Reads one line of at most [`MAX_LINE`] bytes into `line`. Returns
/// `false` if the line is longer; `line` is empty at end of stream.
fn read_line_capped(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<bool> {
    line.clear();
    reader.take(MAX_LINE as u64).read_until(b'\n', line)?;
    Ok(line.len() < MAX_LINE || line.ends_with(b"\n"))
}

/// A connection whose every read and write must finish by one instant:
/// each call gets the time left as its socket timeout, so a peer that
/// trickles one byte per read still runs out of time.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Deadline<'_> {
    fn time_left(&self) -> io::Result<Duration> {
        match self.at.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => Ok(left),
            _ => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "connection deadline passed",
            )),
        }
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.time_left()?))?;
        self.stream.read(buf)
    }
}

impl Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.time_left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn snapshot() -> ObsSnapshot {
        ObsSnapshot {
            metrics: "# TYPE up gauge\nup 1\n".to_string(),
            healthz: "{\"status\":\"ok\"}\n".to_string(),
            trace: "{\"traceEvents\":[\n]}\n".to_string(),
        }
    }

    fn get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn spawn(requests: u64) -> (SocketAddr, std::thread::JoinHandle<u64>) {
        spawn_with_deadline(requests, CONN_DEADLINE)
    }

    fn spawn_with_deadline(
        requests: u64,
        deadline: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let mut server = ObsServer::bind("127.0.0.1:0", snapshot()).unwrap();
        server.deadline = deadline;
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(Some(requests)).unwrap());
        (addr, handle)
    }

    #[test]
    fn serves_the_snapshot_bytes_verbatim() {
        let (addr, handle) = spawn(3);
        let metrics = get(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(metrics.contains("version=0.0.4"));
        assert!(metrics.ends_with(&snapshot().metrics));
        let healthz = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(healthz.ends_with(&snapshot().healthz));
        let trace = get(addr, "GET /trace HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(trace.contains("Content-Type: application/json"));
        assert!(trace.ends_with(&snapshot().trace));
        assert_eq!(handle.join().unwrap(), 3);
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let (addr, handle) = spawn(2);
        let missing = get(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"));
        let post = get(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn content_length_matches_the_body() {
        let (addr, handle) = spawn(1);
        let response = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
        handle.join().unwrap();
    }

    #[test]
    fn oversized_request_line_is_rejected_and_the_endpoint_recovers() {
        let (addr, handle) = spawn(2);
        let long = format!(
            "GET /{} HTTP/1.1\r\nHost: x\r\n\r\n",
            "a".repeat(2 * MAX_LINE)
        );
        let response = get(addr, &long);
        assert!(
            response.starts_with("HTTP/1.1 414 URI Too Long\r\n"),
            "{response}"
        );
        let ok = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(ok.ends_with(&snapshot().healthz));
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn too_many_headers_are_rejected() {
        let (addr, handle) = spawn(2);
        let exactly = format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X: y\r\n".repeat(MAX_HEADERS)
        );
        assert!(get(addr, &exactly).starts_with("HTTP/1.1 200 OK\r\n"));
        let over = format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X: y\r\n".repeat(MAX_HEADERS + 1)
        );
        let response = get(addr, &over);
        assert!(
            response.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{response}"
        );
        assert_eq!(handle.join().unwrap(), 2);
    }

    /// A client that trickles one byte per read never trips a per-read
    /// timeout; the whole-connection deadline must still cut it off, and
    /// the next client must be served.
    #[test]
    fn trickling_client_is_cut_off_at_the_connection_deadline() {
        let deadline = Duration::from_millis(300);
        let (addr, handle) = spawn_with_deadline(2, deadline);
        let start = Instant::now();
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /metrics HTTP/1.1\r\n").unwrap();
        // One header byte every 20 ms: each read succeeds well inside any
        // per-read timeout. Stops once the server has hung up (a write
        // fails) or after 10 s, which would mean the deadline never hit.
        while start.elapsed() < Duration::from_secs(10) {
            if slow.write_all(b"x").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let cut_off = start.elapsed();
        assert!(cut_off < Duration::from_secs(5), "held for {cut_off:?}");
        let ok = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(ok.ends_with(&snapshot().healthz));
        assert_eq!(handle.join().unwrap(), 2);
    }
}
