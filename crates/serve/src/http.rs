//! A deliberately minimal HTTP/1.1 layer over `std::net` — just enough
//! to speak JSON over curl: request-line + headers + `Content-Length`
//! body in, fixed-header response out. HTTP/1.1 connections are
//! keep-alive by default (`Connection: close` — or HTTP/1.0 without
//! `keep-alive` — opts out); no chunked encoding, no TLS. The parser
//! also captures `x-request-id` so a caller-supplied trace id flows
//! through the serving telemetry.
//!
//! The wire path is built so a request costs its real work and not the
//! transport's: each connection keeps one [`ReadBuf`] across requests
//! (bytes past one request's body are the start of the next, so
//! pipelined requests are served in order), a response goes out in a
//! single write, and both ends set `TCP_NODELAY`. One head parser,
//! `parse_head`, frames requests here and responses in the client.

use crate::protocol::{ServeError, MAX_BODY_BYTES};
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed inbound request.
#[derive(Debug)]
pub struct Request {
    /// HTTP method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (query strings are not interpreted).
    pub path: String,
    /// Request body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless the client sent `Connection: close`).
    pub keep_alive: bool,
    /// Caller-supplied `x-request-id` header, if any.
    pub request_id: Option<String>,
}

/// How long a connection may sit idle mid-request before it is dropped.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a kept-alive connection may idle between requests before
/// the server closes it. Short on purpose: an idle keep-alive
/// connection parks an acceptor thread, and shutdown waits at most
/// this long for parked acceptors to notice the stop flag.
pub const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(2);

/// Largest header block either end accepts.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Bytes asked of the socket per `read`.
const READ_CHUNK: usize = 64 * 1024;

/// The framing facts of one HTTP message head — a request's or a
/// response's: the three start-line tokens and the headers this layer
/// acts on.
#[derive(Debug)]
pub(crate) struct MessageHead {
    /// First start-line token: the method of a request, the version of
    /// a response.
    pub first: String,
    /// Second token: the path of a request, the status code of a
    /// response.
    pub second: String,
    /// Third token: the version of a request, the reason of a response
    /// (`None` when the line has only two tokens).
    pub third: Option<String>,
    /// `Content-Length` (0 when absent).
    pub content_length: usize,
    /// `Connection: close` (`Some(false)`) or `keep-alive`
    /// (`Some(true)`); `None` when absent or anything else.
    pub keep_alive: Option<bool>,
    /// `x-request-id`, bounded to 64 printable characters without
    /// quotes or backslashes (it is echoed into responses and trace
    /// JSONL); `None` when absent or empty after sanitizing.
    pub request_id: Option<String>,
}

/// Parse a head (the bytes before the blank line, without it). Header
/// names match case-insensitively; unknown headers are skipped.
pub(crate) fn parse_head(head: &[u8]) -> Result<MessageHead, String> {
    let head = String::from_utf8_lossy(head);
    let mut lines = head.split("\r\n");
    let start = lines.next().unwrap_or("");
    let mut tokens = start.split_whitespace();
    let first = tokens.next().ok_or("empty start line")?.to_string();
    let second = tokens.next().ok_or_else(|| format!("start line `{start}` has one token"))?;
    let mut parsed = MessageHead {
        first,
        second: second.to_string(),
        third: tokens.next().map(str::to_string),
        content_length: 0,
        keep_alive: None,
        request_id: None,
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            parsed.content_length =
                value.parse().map_err(|_| format!("bad Content-Length `{value}`"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                parsed.keep_alive = Some(false);
            } else if value.eq_ignore_ascii_case("keep-alive") {
                parsed.keep_alive = Some(true);
            }
        } else if name.eq_ignore_ascii_case("x-request-id") {
            let id: String = value
                .chars()
                .take(64)
                .filter(|c| c.is_ascii_graphic() && *c != '"' && *c != '\\')
                .collect();
            if !id.is_empty() {
                parsed.request_id = Some(id);
            }
        }
    }
    Ok(parsed)
}

/// A connection's read buffer, kept across its requests: bytes read
/// past one message stay for the next.
#[derive(Debug, Default)]
pub struct ReadBuf {
    /// Initialized storage; `buf[..filled]` are unconsumed bytes.
    buf: Vec<u8>,
    filled: usize,
}

impl ReadBuf {
    /// An empty buffer (allocates on first read).
    pub fn new() -> Self {
        Self::default()
    }

    /// The unconsumed bytes.
    pub(crate) fn data(&self) -> &[u8] {
        &self.buf[..self.filled]
    }

    /// True when no unconsumed bytes are buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// One `read` of up to 64 KiB appended to the buffer; returns the
    /// byte count (0 at end of stream).
    pub(crate) fn fill_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        if self.buf.len() - self.filled < READ_CHUNK {
            self.buf.resize(self.filled + READ_CHUNK, 0);
        }
        let n = r.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Drop the first `n` unconsumed bytes (one whole message), keeping
    /// the rest as the start of the next.
    pub(crate) fn consume(&mut self, n: usize) {
        self.buf.copy_within(n..self.filled, 0);
        self.filled -= n;
        // Do not let one large body pin its buffer for the connection's
        // lifetime.
        if self.buf.len() > 2 * READ_CHUNK && self.filled <= READ_CHUNK {
            self.buf.truncate(READ_CHUNK);
            self.buf.shrink_to_fit();
        }
    }
}

/// Read until `rbuf` holds a whole head; returns its length including
/// the blank line. `rbuf` may already hold some or all of it.
pub(crate) fn read_head<R: Read>(r: &mut R, rbuf: &mut ReadBuf) -> Result<usize, String> {
    let mut searched = 0;
    loop {
        // Resume the terminator search where the last one stopped (less
        // the 3 bytes a terminator could straddle).
        if let Some(i) = find_header_end(&rbuf.data()[searched..]) {
            return Ok(searched + i + 4);
        }
        searched = rbuf.data().len().saturating_sub(3);
        if rbuf.data().len() > MAX_HEAD_BYTES {
            return Err("header block exceeds 64 KiB".into());
        }
        match rbuf.fill_from(r) {
            Ok(0) => return Err("connection closed mid-header".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
}

/// Read until `rbuf` holds `want` bytes.
fn read_to<R: Read>(r: &mut R, rbuf: &mut ReadBuf, want: usize) -> Result<(), String> {
    while rbuf.data().len() < want {
        match rbuf.fill_from(r) {
            Ok(0) => return Err("connection closed mid-body".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
    Ok(())
}

/// Read and parse one request from the connection, whose buffered
/// bytes `rbuf` carries from request to request. `Ok(None)` means the
/// peer closed (or idled past `idle`) before sending any bytes — the
/// clean end of a keep-alive connection, not an error. Every malformed
/// input is a typed [`ServeError::BadRequest`] the caller turns into a
/// 400.
pub fn read_request(
    stream: &mut TcpStream,
    rbuf: &mut ReadBuf,
    idle: Duration,
) -> Result<Option<Request>, ServeError> {
    if rbuf.is_empty() {
        let _ = stream.set_read_timeout(Some(idle));
        match rbuf.fill_from(stream) {
            Ok(0) => return Ok(None), // clean close between requests
            Ok(_) => {}
            // Idle timeout before the first byte: a quiet keep-alive
            // peer, not a protocol error.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(None);
            }
            Err(e) => return Err(ServeError::BadRequest(format!("read failed: {e}"))),
        }
        // Once a request has started, hold it to the full I/O timeout.
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    }
    let head_len = read_head(stream, rbuf).map_err(ServeError::BadRequest)?;
    let head = parse_head(&rbuf.data()[..head_len - 4]).map_err(ServeError::BadRequest)?;
    if head.content_length > MAX_BODY_BYTES {
        return Err(ServeError::BadRequest(format!(
            "body of {} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
            head.content_length
        )));
    }
    let end = head_len + head.content_length;
    read_to(stream, rbuf, end).map_err(ServeError::BadRequest)?;
    let body = std::str::from_utf8(&rbuf.data()[head_len..end])
        .map_err(|_| ServeError::BadRequest("body is not valid UTF-8".into()))?
        .to_string();
    rbuf.consume(end);

    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 (or anything else) to
    // close. The Connection header overrides either way.
    let version = head.third.as_deref().unwrap_or("HTTP/1.1");
    let keep_alive = head.keep_alive.unwrap_or(version.eq_ignore_ascii_case("HTTP/1.1"));
    Ok(Some(Request {
        method: head.first.to_uppercase(),
        path: head.second,
        body,
        keep_alive,
        request_id: head.request_id,
    }))
}

/// Read one `Content-Length`-framed response. Whatever of the body the
/// head's reads already buffered is copied out of `rbuf`; the rest is
/// read straight into a `Vec` of the declared length. Returns
/// `(status, server_wants_close, body)`.
pub(crate) fn read_response<R: Read>(
    r: &mut R,
    rbuf: &mut ReadBuf,
) -> Result<(u16, bool, String), String> {
    let head_len = read_head(r, rbuf)?;
    let head = parse_head(&rbuf.data()[..head_len - 4])?;
    let status: u16 = head
        .second
        .parse()
        .map_err(|_| format!("malformed status line: `{} {}`", head.first, head.second))?;
    let len = head.content_length;
    let buffered = &rbuf.data()[head_len..];
    let have = buffered.len().min(len);
    // The length comes off the wire: size the buffer from it only up to
    // the request limit, and let larger bodies grow as they arrive.
    let mut body = Vec::with_capacity(len.min(MAX_BODY_BYTES));
    body.extend_from_slice(&buffered[..have]);
    rbuf.consume(head_len + have);
    r.take((len - have) as u64).read_to_end(&mut body).map_err(|e| format!("read failed: {e}"))?;
    if body.len() < len {
        return Err("connection closed mid-body".into());
    }
    let body = String::from_utf8(body)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    Ok((status, head.keep_alive == Some(false), body))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Response metadata accompanying [`write_response`].
#[derive(Debug)]
pub struct ResponseMeta<'a> {
    /// `Content-Type` header value.
    pub content_type: &'a str,
    /// Whether to close the connection after this response.
    pub close: bool,
    /// Trace id echoed back as `x-request-id`.
    pub request_id: Option<&'a str>,
}

impl Default for ResponseMeta<'_> {
    fn default() -> Self {
        ResponseMeta { content_type: "application/json", close: true, request_id: None }
    }
}

/// The response's bytes, head then body, in one buffer.
fn encode_response(status: u16, meta: &ResponseMeta<'_>, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if meta.close { "close" } else { "keep-alive" };
    let mut out = String::with_capacity(160 + body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        meta.content_type,
        body.len()
    );
    if let Some(id) = meta.request_id {
        let _ = write!(out, "x-request-id: {id}\r\n");
    }
    let _ = write!(out, "Connection: {connection}\r\n\r\n");
    out.push_str(body);
    out.into_bytes()
}

/// Write a response in one `write_all`; the connection header follows
/// `meta.close`. Head and body must not go out as two writes: with the
/// body held back until the peer acknowledges the head, a kept-alive
/// connection pays the peer's delayed-ACK timer on every response.
pub fn write_response(stream: &mut TcpStream, status: u16, meta: &ResponseMeta<'_>, body: &str) {
    // A peer that hung up early is not an error worth propagating.
    let _ = stream.write_all(&encode_response(status, meta, body));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    #[test]
    fn parses_request_and_response_heads() {
        let req = parse_head(
            b"post /v1/encode HTTP/1.0\r\ncontent-LENGTH: 12\r\nConnection: Keep-Alive\r\n\
              X-Request-Id: a\"b c\\d\r\nJunk\r\nOther: x",
        )
        .expect("request head");
        assert_eq!((req.first.as_str(), req.second.as_str()), ("post", "/v1/encode"));
        assert_eq!(req.third.as_deref(), Some("HTTP/1.0"));
        assert_eq!(req.content_length, 12);
        assert_eq!(req.keep_alive, Some(true));
        assert_eq!(req.request_id.as_deref(), Some("abcd"));

        let resp = parse_head(b"HTTP/1.1 503 Service Unavailable\r\nConnection: close")
            .expect("response head");
        assert_eq!(resp.second, "503");
        assert_eq!((resp.content_length, resp.keep_alive), (0, Some(false)));

        assert!(parse_head(b"").is_err());
        assert!(parse_head(b"GET").is_err());
        assert!(parse_head(b"GET / HTTP/1.1\r\nContent-Length: -1").is_err());
    }

    #[test]
    fn response_is_one_buffer_with_the_fixed_head() {
        let meta = ResponseMeta {
            content_type: "application/json",
            close: false,
            request_id: Some("r-1"),
        };
        let bytes = encode_response(200, &meta, "{\"ok\":true}");
        assert_eq!(
            String::from_utf8(bytes).expect("utf-8"),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             x-request-id: r-1\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}"
        );
        let bytes = encode_response(404, &ResponseMeta::default(), "");
        assert_eq!(
            String::from_utf8(bytes).expect("utf-8"),
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 0\r\n\
             Connection: close\r\n\r\n"
        );
    }

    /// A reader handing out at most `step` bytes per `read`, so heads
    /// and bodies arrive split at every offset.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(self.data.len()).min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn responses_frame_back_to_back_at_any_read_split() {
        let one = encode_response(200, &ResponseMeta::default(), "héllo");
        let two = encode_response(503, &ResponseMeta::default(), "{}");
        let wire = [one, two].concat();
        for step in [1, 2, 3, 5, 7, 64, wire.len()] {
            let mut r = Trickle { data: &wire, step };
            let mut rbuf = ReadBuf::new();
            assert_eq!(read_response(&mut r, &mut rbuf), Ok((200, true, "héllo".into())));
            assert_eq!(read_response(&mut r, &mut rbuf), Ok((503, true, "{}".into())));
            assert!(rbuf.is_empty());
            assert!(read_response(&mut r, &mut rbuf).is_err(), "end of stream");
        }
        let cut = &wire[..wire.len() - 1];
        let mut r = Trickle { data: cut, step: 7 };
        let mut rbuf = ReadBuf::new();
        assert!(read_response(&mut r, &mut rbuf).is_ok());
        assert_eq!(read_response(&mut r, &mut rbuf), Err("connection closed mid-body".into()));
    }

    #[test]
    fn read_buffer_keeps_bytes_past_a_message() {
        let mut rbuf = ReadBuf::new();
        let mut r: &[u8] = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let n = read_head(&mut r, &mut rbuf).expect("first head");
        assert_eq!(n, 19);
        rbuf.consume(n);
        assert_eq!(rbuf.data(), b"GET /b HTTP/1.1\r\n\r\n");
        let n = read_head(&mut r, &mut rbuf).expect("second head, already buffered");
        rbuf.consume(n);
        assert!(rbuf.is_empty());
        assert_eq!(read_head(&mut r, &mut rbuf), Err("connection closed mid-header".into()));
    }

    #[test]
    fn oversized_head_is_refused() {
        let mut rbuf = ReadBuf::new();
        let big = vec![b'a'; MAX_HEAD_BYTES + READ_CHUNK + 10];
        let mut r: &[u8] = &big;
        assert_eq!(read_head(&mut r, &mut rbuf), Err("header block exceeds 64 KiB".into()));
    }
}
