//! A tiny blocking HTTP client for the daemon — used by `turl client`,
//! the CI smoke script, and the in-process integration tests. The
//! one-shot [`post`]/[`get`] helpers open a fresh connection per
//! request (`Connection: close`); the [`Client`] struct keeps one
//! connection alive across requests and tracks its reuse rate. Both
//! frame responses with the server's own head parser (see
//! [`crate::http`]).

use crate::http::{read_response, ReadBuf};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Open a connection with `TCP_NODELAY` and 30 s I/O timeouts.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    Ok(stream)
}

/// Write one request and read its response off `stream`. Returns
/// `(status, server_wants_close, body)`.
fn exchange(
    stream: &mut TcpStream,
    rbuf: &mut ReadBuf,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    close: bool,
) -> Result<(u16, bool, String), String> {
    let payload = body.unwrap_or("");
    let connection = if close { "Connection: close\r\n" } else { "" };
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{connection}\r\n{payload}",
        payload.len()
    );
    stream.write_all(req.as_bytes()).map_err(|e| format!("write to {addr} failed: {e}"))?;
    read_response(stream, rbuf).map_err(|e| format!("response from {addr}: {e}"))
}

/// Send one request on a fresh connection and return `(status, body)`.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = connect(addr)?;
    let (status, _, body) =
        exchange(&mut stream, &mut ReadBuf::new(), addr, method, path, body, true)?;
    Ok((status, body))
}

/// POST a JSON body on a fresh connection.
pub fn post(addr: &str, path: &str, json: &str) -> Result<(u16, String), String> {
    http_request(addr, "POST", path, Some(json))
}

/// GET a path on a fresh connection.
pub fn get(addr: &str, path: &str) -> Result<(u16, String), String> {
    http_request(addr, "GET", path, None)
}

/// A keep-alive HTTP client: holds one connection to the daemon open
/// across requests, reconnecting transparently when the server (or an
/// idle timeout) closed it. Tracks how many requests actually reused a
/// live connection so `turl client` can report the reuse rate.
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
    rbuf: ReadBuf,
    requests: u64,
    connects: u64,
}

impl Client {
    /// Client for `addr` (`host:port`); connects lazily.
    pub fn new(addr: &str) -> Self {
        Client {
            addr: addr.to_string(),
            stream: None,
            rbuf: ReadBuf::new(),
            requests: 0,
            connects: 0,
        }
    }

    /// Requests sent so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// TCP connections opened so far.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Fraction of requests that reused an existing connection
    /// (`0.0` when nothing was sent yet).
    pub fn reuse_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.requests - self.connects.min(self.requests)) as f64 / self.requests as f64
        }
    }

    /// POST a JSON body, reusing the live connection when possible.
    pub fn post(&mut self, path: &str, json: &str) -> Result<(u16, String), String> {
        self.request("POST", path, Some(json))
    }

    /// GET a path, reusing the live connection when possible.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), String> {
        self.request("GET", path, None)
    }

    /// Send one request. A stale kept-alive connection (closed by the
    /// server since the last request) is retried once on a fresh one.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        self.requests += 1;
        if self.stream.is_some() {
            match self.try_request(method, path, body) {
                Ok(resp) => return Ok(resp),
                Err(_) => self.stream = None, // stale; reconnect below
            }
        }
        self.try_request(method, path, body)
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        let stream = match &mut self.stream {
            Some(s) => s,
            None => {
                let fresh = connect(&self.addr)?;
                self.rbuf = ReadBuf::new();
                self.connects += 1;
                self.stream.insert(fresh)
            }
        };
        match exchange(stream, &mut self.rbuf, &self.addr, method, path, body, false) {
            Ok((status, server_close, body)) => {
                if server_close {
                    self.stream = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}
