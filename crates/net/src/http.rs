//! A strict, bounded HTTP/1.1 request parser and response writer.
//!
//! This is deliberately a *server-side subset* of HTTP/1.1, hand-rolled
//! so the control plane stays dependency-free:
//!
//! * requests are `METHOD SP target SP HTTP/1.x` plus headers and an
//!   optional `content-length` body (no chunked transfer coding — a
//!   `transfer-encoding` header is rejected with 400);
//! * framing is strict (RFC 9112 §6.3): `content-length` is `1*DIGIT`
//!   and nothing else, and a second `content-length` that differs from
//!   the first is 400 rather than a guess at where the body ends;
//! * every dimension is capped by [`Limits`]: request-line length and
//!   total header bytes (431 on overflow), header count (431), and
//!   body size (413);
//! * reads are incremental with a carry-over buffer, so pipelined
//!   requests parse back-to-back and a request split across arbitrary
//!   TCP segment boundaries reassembles exactly (property-tested);
//! * each buffered byte is scanned once: the search for the end of the
//!   head resumes where the last read left it, and records the end of
//!   the request line on the way. The head is then validated as one
//!   `&str` and kept as one `String` — no header is copied out of it;
//! * a read timeout mid-request maps to [`HttpError::Timeout`] (408),
//!   so a slow client cannot pin a worker thread forever.
//!
//! The parser never panics on malformed input: every failure is a typed
//! [`HttpError`] that [`Response::for_error`] turns into the right
//! status code.

use std::io::{self, Read, Write};
use std::ops::Range;

/// Hard caps on every request dimension. Oversized inputs fail with
/// 431 (request line / headers) or 413 (body) instead of unbounded
/// buffering.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes in the request line (method + target + version).
    pub max_request_line: usize,
    /// Maximum total bytes in the head (request line + all headers).
    pub max_head_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Maximum bytes in the body (`content-length` above this is 413).
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_request_line: 8 * 1024,
            max_head_bytes: 16 * 1024,
            max_headers: 64,
            max_body: 256 * 1024,
        }
    }
}

/// Why a request failed to parse; [`HttpError::status`] maps each
/// variant to the response code the connection handler writes back.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request (bad request line, bad header, truncated
    /// stream, unsupported transfer coding, …) — 400.
    BadRequest(&'static str),
    /// The socket read timed out mid-request — 408.
    Timeout,
    /// Declared body exceeds [`Limits::max_body`] — 413.
    BodyTooLarge,
    /// Request line or header block exceeds its cap — 431.
    HeadersTooLarge,
    /// The connection failed; no response can be written.
    Io(io::ErrorKind),
}

impl HttpError {
    /// The response status for this error, or `None` when the
    /// connection is unusable ([`HttpError::Io`]).
    #[must_use]
    pub fn status(&self) -> Option<u16> {
        match self {
            Self::BadRequest(_) => Some(400),
            Self::Timeout => Some(408),
            Self::BodyTooLarge => Some(413),
            Self::HeadersTooLarge => Some(431),
            Self::Io(_) => None,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadRequest(why) => write!(f, "bad request: {why}"),
            Self::Timeout => f.write_str("request timed out"),
            Self::BodyTooLarge => f.write_str("request body too large"),
            Self::HeadersTooLarge => f.write_str("request line or headers too large"),
            Self::Io(kind) => write!(f, "connection error: {kind:?}"),
        }
    }
}

/// Request methods the control plane routes. Anything else parses as
/// [`Method::Other`] and the router answers 405.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `DELETE`
    Delete,
    /// Any other token (`PUT`, `HEAD`, `PATCH`, …).
    Other,
}

impl Method {
    fn parse(token: &str) -> Self {
        match token {
            "GET" => Self::Get,
            "POST" => Self::Post,
            "DELETE" => Self::Delete,
            _ => Self::Other,
        }
    }
}

/// One parsed request: method, target, headers, and body. The head is
/// kept as the text it arrived in; the target and the headers are read
/// out of it on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The request line and header lines, CRLF-separated, without the
    /// blank line that ends them.
    head: String,
    /// Where the target sits in `head`.
    target: Range<usize>,
    /// The request body (empty without `content-length`).
    pub body: Vec<u8>,
    close: bool,
}

impl Request {
    /// A synthetic request (no headers, keep-alive) — for driving the
    /// router directly in tests without a socket.
    #[must_use]
    pub fn synthetic(method: Method, target: &str, body: &[u8]) -> Self {
        Self {
            method,
            head: target.to_string(),
            target: 0..target.len(),
            body: body.to_vec(),
            close: false,
        }
    }

    /// The raw request target (path plus optional `?query`).
    #[must_use]
    pub fn target(&self) -> &str {
        &self.head[self.target.clone()]
    }

    /// The value of the first header named `name` (ASCII
    /// case-insensitive), without surrounding whitespace.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let (_, fields) = self.head[self.target.end..].split_once("\r\n")?;
        fields.split("\r\n").find_map(|line| {
            let (n, value) = line.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| trim_ows(value))
        })
    }

    /// The target's path component (the target up to any `?`).
    #[must_use]
    pub fn path(&self) -> &str {
        let target = self.target();
        target.split_once('?').map_or(target, |(path, _)| path)
    }

    /// Whether the client asked to close the connection after this
    /// request (`Connection: close`, or HTTP/1.0 without keep-alive).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.close
    }
}

/// Incremental request reader over any [`Read`] stream. Bytes beyond
/// the current request stay buffered, so pipelined requests parse
/// back-to-back with no data loss.
#[derive(Debug)]
pub struct RequestReader<R> {
    inner: R,
    buf: Vec<u8>,
    limits: Limits,
}

impl<R: Read> RequestReader<R> {
    /// A reader over `inner` enforcing `limits`.
    pub fn new(inner: R, limits: Limits) -> Self {
        Self { inner, buf: Vec::with_capacity(1024), limits }
    }

    /// Parses the next request. `Ok(None)` on clean end-of-stream (the
    /// peer closed between requests); an EOF *inside* a request is a
    /// [`HttpError::BadRequest`].
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        let mut scan = HeadScan::default();
        let head_end = loop {
            if let Some(end) = scan.advance(&self.buf) {
                break end;
            }
            self.check_head_limits(&scan, self.buf.len())?;
            match self.fill()? {
                0 if self.buf.is_empty() => return Ok(None),
                0 => return Err(HttpError::BadRequest("connection closed mid-request")),
                _ => {}
            }
        };
        let body_start = head_end + 4;
        self.check_head_limits(&scan, body_start)?;

        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| non_utf8_head_error())?;
        let line_end = scan.line_end.unwrap_or(head_end);
        let (method, target, http11) = parse_request_line(&head[..line_end])?;
        let fields = head.get(line_end + 2..).unwrap_or("");
        let framing = self.parse_fields(fields)?;
        if framing.transfer_encoding {
            return Err(HttpError::BadRequest("transfer-encoding is not supported"));
        }
        let content_length = match framing.content_length {
            ContentLength::Absent => 0,
            ContentLength::Value(v) => parse_content_length(v)?,
            ContentLength::Conflicting => {
                return Err(HttpError::BadRequest("conflicting content-length headers"))
            }
        };
        if content_length > self.limits.max_body {
            return Err(HttpError::BodyTooLarge);
        }
        let close = match framing.connection {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => !http11,
        };
        let head = head.to_string();

        // Read the body to exactly `content_length` bytes, copy it out
        // once, then drop head and body from the buffer together.
        let body_end = body_start + content_length;
        while self.buf.len() < body_end {
            if self.fill()? == 0 {
                return Err(HttpError::BadRequest("connection closed mid-body"));
            }
        }
        let body = self.buf[body_start..body_end].to_vec();
        self.buf.drain(..body_end);

        Ok(Some(Request { method, head, target, body, close }))
    }

    /// Checks every header line and picks out the three fields that
    /// frame the request. Errors come in line order: a line past the
    /// header-count cap is 431, a line without a well-formed name 400.
    fn parse_fields<'h>(&self, fields: &'h str) -> Result<Framing<'h>, HttpError> {
        let mut framing = Framing::default();
        if fields.is_empty() {
            return Ok(framing);
        }
        for (i, line) in fields.split("\r\n").enumerate() {
            if i >= self.limits.max_headers {
                return Err(HttpError::HeadersTooLarge);
            }
            let (name, value) =
                line.split_once(':').ok_or(HttpError::BadRequest("header without ':'"))?;
            if name.is_empty() || name.contains([' ', '\t']) {
                return Err(HttpError::BadRequest("malformed header name"));
            }
            let value = trim_ows(value);
            if name.eq_ignore_ascii_case("content-length") {
                framing.content_length = match framing.content_length {
                    ContentLength::Absent => ContentLength::Value(value),
                    ContentLength::Value(first) if first == value => ContentLength::Value(first),
                    _ => ContentLength::Conflicting,
                };
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                framing.transfer_encoding = true;
            } else if name.eq_ignore_ascii_case("connection") && framing.connection.is_none() {
                framing.connection = Some(value);
            }
        }
        Ok(framing)
    }

    /// 431 once the head outgrows its caps: `head_bytes` (the head so
    /// far, or all of it) over the whole-head budget, or a request line
    /// over the request-line budget — counting every buffered byte while
    /// no CRLF has arrived.
    fn check_head_limits(&self, scan: &HeadScan, head_bytes: usize) -> Result<(), HttpError> {
        if head_bytes > self.limits.max_head_bytes
            || scan.line_end.unwrap_or(head_bytes) > self.limits.max_request_line
        {
            return Err(HttpError::HeadersTooLarge);
        }
        Ok(())
    }

    /// Reads one chunk into the buffer; returns the byte count (0 on
    /// EOF). Timeouts map to [`HttpError::Timeout`].
    fn fill(&mut self) -> Result<usize, HttpError> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.inner.read(&mut chunk) {
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(HttpError::Timeout)
                }
                Err(e) => return Err(HttpError::Io(e.kind())),
            }
        }
    }
}

/// How far the search for the end of the head has got. It resumes
/// where the last search stopped, so a head delivered in many reads is
/// still scanned once per byte.
#[derive(Debug, Default)]
struct HeadScan {
    /// Bytes already searched.
    scanned: usize,
    /// Offset of the first CRLF, which ends the request line.
    line_end: Option<usize>,
}

impl HeadScan {
    /// Searches the bytes of `buf` not searched yet; returns the offset
    /// of the blank line's `\r\n\r\n` once it is buffered.
    fn advance(&mut self, buf: &[u8]) -> Option<usize> {
        while let Some(lf) = buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let lf = self.scanned + lf;
            self.scanned = lf + 1;
            if lf == 0 || buf[lf - 1] != b'\r' {
                continue;
            }
            self.line_end.get_or_insert(lf - 1);
            if lf >= 3 && &buf[lf - 3..lf - 1] == b"\r\n" {
                return Some(lf - 3);
            }
        }
        self.scanned = buf.len();
        None
    }
}

/// The header fields that frame a request.
#[derive(Debug, Default)]
struct Framing<'h> {
    content_length: ContentLength<'h>,
    transfer_encoding: bool,
    /// The first `connection` value.
    connection: Option<&'h str>,
}

/// What the `content-length` fields of one request say.
#[derive(Debug, Default)]
enum ContentLength<'h> {
    #[default]
    Absent,
    /// One value, possibly repeated verbatim.
    Value(&'h str),
    /// Two fields with different values.
    Conflicting,
}

/// A `content-length` value: `1*DIGIT` that fits a `usize`, nothing
/// else — no sign, no list, no whitespace inside.
fn parse_content_length(value: &str) -> Result<usize, HttpError> {
    let bad = HttpError::BadRequest("bad content-length");
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad);
    }
    value.parse().map_err(|_| bad)
}

/// A field value without its optional leading and trailing SP / HTAB.
fn trim_ows(value: &str) -> &str {
    value.trim_matches([' ', '\t'])
}

const fn non_utf8_head_error() -> HttpError {
    HttpError::BadRequest("request head is not UTF-8")
}

/// Splits `METHOD SP target SP HTTP/1.x`; the target comes back as its
/// byte range in `line`.
fn parse_request_line(line: &str) -> Result<(Method, Range<usize>, bool), HttpError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest("malformed request line"));
    };
    if method.is_empty() || target.is_empty() {
        return Err(HttpError::BadRequest("malformed request line"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::BadRequest("unsupported HTTP version")),
    };
    let start = method.len() + 1;
    Ok((Method::parse(method), start..start + target.len(), http11))
}

/// One response: status, content type, body, and whether to close the
/// connection after writing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `content-type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether the server should close the connection after this
    /// response (forced for error responses).
    pub close: bool,
}

impl Response {
    /// A `text/plain` response.
    #[must_use]
    pub fn text(status: u16, body: &str) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.as_bytes().to_vec(),
            close: false,
        }
    }

    /// An `application/json` response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self { status, content_type: "application/json", body: body.into_bytes(), close: false }
    }

    /// The error response for a parse failure, or `None` when the
    /// connection is beyond responding ([`HttpError::Io`]).
    #[must_use]
    pub fn for_error(err: &HttpError) -> Option<Self> {
        let status = err.status()?;
        let mut resp = Self::text(status, &format!("{err}\n"));
        resp.close = true;
        Some(resp)
    }

    /// Serializes the response (status line, headers, body) to `w`.
    ///
    /// # Errors
    /// Propagates any I/O failure from `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "connection: close\r\n" } else { "" },
        );
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse_one(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        RequestReader::new(Cursor::new(bytes.to_vec()), Limits::default()).next_request()
    }

    #[test]
    fn parses_a_minimal_get() {
        let req = parse_one(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path(), "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse_one(b"POST /v1/register?dry=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path(), "/v1/register");
        assert_eq!(req.target(), "/v1/register?dry=1");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let bytes =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let mut reader = RequestReader::new(Cursor::new(bytes.to_vec()), Limits::default());
        assert_eq!(reader.next_request().unwrap().unwrap().path(), "/a");
        let b = reader.next_request().unwrap().unwrap();
        assert_eq!((b.path(), b.body.as_slice()), ("/b", b"hi".as_slice()));
        assert_eq!(reader.next_request().unwrap().unwrap().path(), "/c");
        assert!(reader.next_request().unwrap().is_none(), "clean EOF after the pipeline");
    }

    #[test]
    fn clean_eof_is_none_truncated_is_error() {
        assert!(parse_one(b"").unwrap().is_none());
        assert!(matches!(parse_one(b"GET /a HTT"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse_one(b"POST /b HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_request_line_is_431_not_panic() {
        let mut bytes = b"GET /".to_vec();
        bytes.extend_from_slice(&[b'a'; 64 * 1024]);
        bytes.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(parse_one(&bytes), Err(HttpError::HeadersTooLarge)));
    }

    #[test]
    fn oversized_header_block_is_431() {
        let mut bytes = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..2048 {
            bytes.extend_from_slice(format!("x-h{i}: {}\r\n", "v".repeat(64)).as_bytes());
        }
        bytes.extend_from_slice(b"\r\n");
        assert!(matches!(parse_one(&bytes), Err(HttpError::HeadersTooLarge)));
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut bytes = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            bytes.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        bytes.extend_from_slice(b"\r\n");
        assert!(matches!(parse_one(&bytes), Err(HttpError::HeadersTooLarge)));
    }

    #[test]
    fn oversized_body_is_413() {
        let bytes = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 10 * 1024 * 1024);
        assert!(matches!(parse_one(bytes.as_bytes()), Err(HttpError::BodyTooLarge)));
    }

    #[test]
    fn malformed_inputs_are_400() {
        for bad in [
            b"GARBAGE\r\n\r\n".as_slice(),
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
            b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad name: v\r\n\r\n",
        ] {
            let got = parse_one(bad);
            assert!(matches!(got, Err(HttpError::BadRequest(_))), "input {bad:?} gave {got:?}");
        }
    }

    #[test]
    fn signed_content_length_is_400() {
        let got = parse_one(b"POST /a HTTP/1.1\r\ncontent-length: +4\r\n\r\nabcd");
        assert!(matches!(got, Err(HttpError::BadRequest(_))), "got {got:?}");
    }

    #[test]
    fn conflicting_content_lengths_are_400_not_a_second_request() {
        let bytes = b"POST /a HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 10\r\n\r\nabcdGET /b HTTP/1.1\r\n\r\n";
        let mut reader = RequestReader::new(Cursor::new(bytes.to_vec()), Limits::default());
        let got = reader.next_request();
        assert!(matches!(got, Err(HttpError::BadRequest(_))), "got {got:?}");
    }

    #[test]
    fn content_length_framing_is_strict_but_not_pedantic() {
        for ok in [
            b"POST /a HTTP/1.1\r\ncontent-length: 0004\r\n\r\nabcd".as_slice(),
            b"POST /a HTTP/1.1\r\ncontent-length: 4\r\nContent-Length: 4\r\n\r\nabcd",
        ] {
            let req = parse_one(ok).unwrap().unwrap();
            assert_eq!(req.body, b"abcd", "input {ok:?}");
        }
        for bad in [
            b"POST /a HTTP/1.1\r\ncontent-length: banana\r\n\r\n".as_slice(),
            b"POST /a HTTP/1.1\r\ncontent-length: 99999999999999999999999\r\n\r\n",
            b"POST /a HTTP/1.1\r\ncontent-length: \r\n\r\n",
            b"POST /a HTTP/1.1\r\ncontent-length: 4, 4\r\n\r\nabcd",
        ] {
            let got = parse_one(bad);
            assert!(matches!(got, Err(HttpError::BadRequest(_))), "input {bad:?} gave {got:?}");
        }
    }

    #[test]
    fn connection_close_and_http10_semantics() {
        assert!(parse_one(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap()
            .unwrap()
            .wants_close());
        assert!(parse_one(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap().wants_close());
        assert!(!parse_one(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap()
            .wants_close());
    }

    #[test]
    fn response_serializes_with_length_and_reason() {
        let mut out = Vec::new();
        Response::json(201, "{\"ok\":true}".to_string()).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"), "got {text}");
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn error_responses_map_statuses() {
        assert_eq!(Response::for_error(&HttpError::Timeout).unwrap().status, 408);
        assert_eq!(Response::for_error(&HttpError::BodyTooLarge).unwrap().status, 413);
        assert_eq!(Response::for_error(&HttpError::HeadersTooLarge).unwrap().status, 431);
        assert_eq!(Response::for_error(&HttpError::BadRequest("x")).unwrap().status, 400);
        assert!(Response::for_error(&HttpError::Io(io::ErrorKind::BrokenPipe)).is_none());
    }
}
