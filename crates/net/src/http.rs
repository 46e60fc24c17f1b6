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
//! * one buffer per request: each read lands straight in the reader's
//!   buffer (a request's first read asks for 512 bytes, later ones for
//!   4 KiB), and a complete request takes that buffer with it when no
//!   pipelined bytes follow (it is copied out only when they do). A
//!   [`Request`] keeps its target, header lines and body as ranges of
//!   those bytes, so parsing a request allocates once;
//! * each buffered byte is scanned once, a word at a time: the search
//!   for the end of the head resumes where the last read left it, and
//!   records the end of the request line on the way. The head is
//!   checked to be UTF-8 once, and its lines are split on bytes;
//! * a read timeout mid-request maps to [`HttpError::Timeout`] (408),
//!   so a slow client cannot pin a worker thread forever;
//! * a response's status line and headers are assembled on the stack
//!   and written with one `write_all`, its body with a second.
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
    fn parse(token: &[u8]) -> Self {
        match token {
            b"GET" => Self::Get,
            b"POST" => Self::Post,
            b"DELETE" => Self::Delete,
            _ => Self::Other,
        }
    }
}

/// One parsed request: method, target, headers, and body, all held in
/// the one buffer the request was read into. The target, the header
/// lines and the body are ranges of it, read out on demand.
#[derive(Clone)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The request as it arrived — head, blank line, body — possibly
    /// followed by spare bytes of the read buffer.
    bytes: Vec<u8>,
    /// Bytes in the head: the request line and header lines,
    /// CRLF-separated, without the blank line that ends them.
    head_len: usize,
    /// Where the target sits in `bytes`.
    target: Range<usize>,
    /// Where the header lines sit in `bytes` (empty without headers).
    fields: Range<usize>,
    /// Where the body sits in `bytes` (empty without `content-length`).
    body: Range<usize>,
    close: bool,
}

impl Request {
    /// A synthetic request (no headers, keep-alive) — for driving the
    /// router directly in tests without a socket.
    #[must_use]
    pub fn synthetic(method: Method, target: &str, body: &[u8]) -> Self {
        let mut bytes = Vec::with_capacity(target.len() + body.len());
        bytes.extend_from_slice(target.as_bytes());
        bytes.extend_from_slice(body);
        let end = target.len();
        Self {
            method,
            bytes,
            head_len: end,
            target: 0..end,
            fields: end..end,
            body: end..end + body.len(),
            close: false,
        }
    }

    /// The raw request target (path plus optional `?query`).
    #[must_use]
    pub fn target(&self) -> &str {
        text(&self.bytes[self.target.clone()])
    }

    /// The request body (empty without `content-length`).
    #[must_use]
    pub fn body(&self) -> &[u8] {
        &self.bytes[self.body.clone()]
    }

    /// The value of the first header named `name` (ASCII
    /// case-insensitive), without surrounding whitespace.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        lines(&self.bytes[self.fields.clone()]).find_map(|line| {
            let (n, value) = split_field(line)?;
            n.eq_ignore_ascii_case(name.as_bytes()).then(|| text(trim_ows(value)))
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

    /// The request line and header lines.
    fn head(&self) -> &str {
        text(&self.bytes[..self.head_len])
    }
}

/// Two requests are equal when they parsed to the same method, head,
/// target, body and close flag, however their bytes were buffered.
impl PartialEq for Request {
    fn eq(&self, other: &Self) -> bool {
        self.method == other.method
            && self.head() == other.head()
            && self.target == other.target
            && self.body() == other.body()
            && self.close == other.close
    }
}

impl Eq for Request {}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("method", &self.method)
            .field("head", &self.head())
            .field("target", &self.target)
            .field("body", &self.body())
            .field("close", &self.close)
            .finish()
    }
}

/// Bytes one read asks for. A read lands in the buffer's tail, which
/// is zeroed only when it grows, by the bytes earlier reads filled.
const READ_CHUNK: usize = 4096;

/// Bytes a request's first read asks for: an agent's heartbeat or
/// metrics POST fits, so a short request allocates and zeroes no more.
/// The caps do not depend on read boundaries, so a longer request only
/// takes more reads.
const FIRST_READ: usize = 512;

/// Incremental request reader over any [`Read`] stream. Bytes beyond
/// the current request stay buffered, so pipelined requests parse
/// back-to-back with no data loss.
#[derive(Debug)]
pub struct RequestReader<R> {
    inner: R,
    /// Read bytes in `buf[..filled]`; the rest is space the next read
    /// lands in.
    buf: Vec<u8>,
    filled: usize,
    limits: Limits,
}

impl<R: Read> RequestReader<R> {
    /// A reader over `inner` enforcing `limits`. It allocates nothing
    /// until the first read.
    pub fn new(inner: R, limits: Limits) -> Self {
        Self { inner, buf: Vec::new(), filled: 0, limits }
    }

    /// Parses the next request. `Ok(None)` on clean end-of-stream (the
    /// peer closed between requests); an EOF *inside* a request is a
    /// [`HttpError::BadRequest`].
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        let mut scan = HeadScan::default();
        let head_end = loop {
            if let Some(end) = scan.advance(&self.buf[..self.filled]) {
                break end;
            }
            self.check_head_limits(&scan, self.filled)?;
            match self.fill()? {
                0 if self.filled == 0 => return Ok(None),
                0 => return Err(HttpError::BadRequest("connection closed mid-request")),
                _ => {}
            }
        };
        let body_start = head_end + 4;
        self.check_head_limits(&scan, body_start)?;

        let head = &self.buf[..head_end];
        std::str::from_utf8(head).map_err(|_| non_utf8_head_error())?;
        let line_end = scan.line_end.unwrap_or(head_end);
        let (method, target, http11) = parse_request_line(&head[..line_end])?;
        let fields = (line_end + 2).min(head_end)..head_end;
        let framing = self.parse_fields(&head[fields.clone()])?;
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
            Some(v) if v.eq_ignore_ascii_case(b"close") => true,
            Some(v) if v.eq_ignore_ascii_case(b"keep-alive") => false,
            _ => !http11,
        };

        // Read the body to exactly `content_length` bytes; the request
        // then takes the buffer, or a copy when another request follows.
        let body_end = body_start + content_length;
        while self.filled < body_end {
            if self.fill()? == 0 {
                return Err(HttpError::BadRequest("connection closed mid-body"));
            }
        }
        let bytes = self.take(body_end);
        let body = body_start..body_end;
        Ok(Some(Request { method, bytes, head_len: head_end, target, fields, body, close }))
    }

    /// The first `end` buffered bytes, which hold one request: the
    /// buffer itself when nothing follows them, otherwise a copy, with
    /// the bytes that follow moved to the front of the buffer.
    fn take(&mut self, end: usize) -> Vec<u8> {
        if self.filled == end {
            self.filled = 0;
            return std::mem::take(&mut self.buf);
        }
        let bytes = self.buf[..end].to_vec();
        self.buf.copy_within(end..self.filled, 0);
        self.filled -= end;
        bytes
    }

    /// Checks every header line and picks out the three fields that
    /// frame the request. Errors come in line order: a line past the
    /// header-count cap is 431, a line without a well-formed name 400.
    fn parse_fields<'h>(&self, fields: &'h [u8]) -> Result<Framing<'h>, HttpError> {
        let mut framing = Framing::default();
        for (i, line) in lines(fields).enumerate() {
            if i >= self.limits.max_headers {
                return Err(HttpError::HeadersTooLarge);
            }
            let (name, value) =
                split_field(line).ok_or(HttpError::BadRequest("header without ':'"))?;
            if name.is_empty() || name.iter().any(|&b| b == b' ' || b == b'\t') {
                return Err(HttpError::BadRequest("malformed header name"));
            }
            let value = trim_ows(value);
            if name.eq_ignore_ascii_case(b"content-length") {
                framing.content_length = match framing.content_length {
                    ContentLength::Absent => ContentLength::Value(value),
                    ContentLength::Value(first) if first == value => ContentLength::Value(first),
                    _ => ContentLength::Conflicting,
                };
            } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
                framing.transfer_encoding = true;
            } else if name.eq_ignore_ascii_case(b"connection") && framing.connection.is_none() {
                framing.connection = Some(value);
            }
        }
        Ok(framing)
    }

    /// 431 once the head outgrows its caps: `head_bytes` (the head so
    /// far, or all of it) over the whole-head budget, or a request line
    /// over the request-line budget. While no CRLF has arrived, every
    /// buffered byte counts as request line except a trailing CR, which
    /// may be the CRLF's first byte: the next byte decides, so the
    /// verdict does not depend on where the reads split the stream.
    fn check_head_limits(&self, scan: &HeadScan, head_bytes: usize) -> Result<(), HttpError> {
        let line = scan.line_end.unwrap_or_else(|| {
            head_bytes - usize::from(head_bytes > 0 && self.buf[head_bytes - 1] == b'\r')
        });
        if head_bytes > self.limits.max_head_bytes || line > self.limits.max_request_line {
            return Err(HttpError::HeadersTooLarge);
        }
        Ok(())
    }

    /// Reads once, at most [`FIRST_READ`] bytes into an empty buffer and
    /// [`READ_CHUNK`] bytes otherwise, straight into the buffer after
    /// the bytes already read; returns the byte count (0 on EOF).
    /// Timeouts map to [`HttpError::Timeout`].
    fn fill(&mut self) -> Result<usize, HttpError> {
        let chunk = if self.filled == 0 { FIRST_READ } else { READ_CHUNK };
        let window = self.filled..self.filled + chunk;
        if self.buf.len() < window.end {
            // Zeroes only the bytes the window adds; the capacity
            // doubles, so growth stays amortized.
            self.buf.resize(window.end, 0);
        }
        loop {
            match self.inner.read(&mut self.buf[window.clone()]) {
                Ok(n) => {
                    self.filled += n;
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
        while let Some(lf) = find_lf(&buf[self.scanned..]) {
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

/// Offset of the first LF in `bytes`, searched eight bytes at a time:
/// a word XORed with LF in every byte has a zero byte where `bytes`
/// has an LF, and the lowest flagged byte of the zero-byte test is
/// always a true zero.
fn find_lf(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const LFS: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("eight-byte chunk")) ^ LFS;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let done = bytes.len() - words.remainder().len();
    words.remainder().iter().position(|&b| b == b'\n').map(|i| done + i)
}

/// The CRLF-separated lines of `fields`; a bare LF stays inside its
/// line. Empty input has no lines.
fn lines(fields: &[u8]) -> Lines<'_> {
    Lines { rest: (!fields.is_empty()).then_some(fields) }
}

/// Iterator behind [`lines`].
struct Lines<'a> {
    /// The bytes not yet split; `None` once the last line is out.
    rest: Option<&'a [u8]>,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = self.rest?;
        let mut from = 0;
        while let Some(lf) = find_lf(&rest[from..]).map(|i| from + i) {
            if lf > 0 && rest[lf - 1] == b'\r' {
                self.rest = Some(&rest[lf + 1..]);
                return Some(&rest[..lf - 1]);
            }
            from = lf + 1;
        }
        self.rest = None;
        Some(rest)
    }
}

/// A header line split at its first `:` into name and raw value.
fn split_field(line: &[u8]) -> Option<(&[u8], &[u8])> {
    let colon = line.iter().position(|&b| b == b':')?;
    Some((&line[..colon], &line[colon + 1..]))
}

/// The header fields that frame a request.
#[derive(Debug, Default)]
struct Framing<'h> {
    content_length: ContentLength<'h>,
    transfer_encoding: bool,
    /// The first `connection` value.
    connection: Option<&'h [u8]>,
}

/// What the `content-length` fields of one request say.
#[derive(Debug, Default)]
enum ContentLength<'h> {
    #[default]
    Absent,
    /// One value, possibly repeated verbatim.
    Value(&'h [u8]),
    /// Two fields with different values.
    Conflicting,
}

/// A `content-length` value: `1*DIGIT` that fits a `usize`, nothing
/// else — no sign, no list, no whitespace inside.
fn parse_content_length(value: &[u8]) -> Result<usize, HttpError> {
    let bad = HttpError::BadRequest("bad content-length");
    if value.is_empty() || !value.iter().all(u8::is_ascii_digit) {
        return Err(bad);
    }
    let mut digits = value.iter().map(|&b| usize::from(b - b'0'));
    digits.try_fold(0usize, |n, d| n.checked_mul(10)?.checked_add(d)).ok_or(bad)
}

/// A field value without its optional leading and trailing SP / HTAB.
fn trim_ows(mut value: &[u8]) -> &[u8] {
    while let [b' ' | b'\t', rest @ ..] = value {
        value = rest;
    }
    while let [rest @ .., b' ' | b'\t'] = value {
        value = rest;
    }
    value
}

/// A slice of a head that was checked to be UTF-8 when it was parsed
/// (or of a synthetic request's `&str` target), cut at ASCII bytes, as
/// text.
fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("a UTF-8 head cut at ASCII bytes is UTF-8")
}

const fn non_utf8_head_error() -> HttpError {
    HttpError::BadRequest("request head is not UTF-8")
}

/// Splits `METHOD SP target SP HTTP/1.x`; the target comes back as its
/// byte range in `line`.
fn parse_request_line(line: &[u8]) -> Result<(Method, Range<usize>, bool), HttpError> {
    let mut parts = line.split(|&b| b == b' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest("malformed request line"));
    };
    if method.is_empty() || target.is_empty() {
        return Err(HttpError::BadRequest("malformed request line"));
    }
    let http11 = match version {
        b"HTTP/1.1" => true,
        b"HTTP/1.0" => false,
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

/// Stack bytes for a response head: room for every status line and
/// header this module writes, with a content type of up to about 130
/// bytes. A longer content type spills the head to the heap.
const HEAD_STACK_BYTES: usize = 256;

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

    /// Serializes the response (status line, headers, body) to `w`:
    /// the head in one `write_all`, assembled on the stack, and the body
    /// in another.
    ///
    /// # Errors
    /// Propagates any I/O failure from `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (mut status, mut length) = ([0; 20], [0; 20]);
        let pieces: [&[u8]; 9] = [
            b"HTTP/1.1 ",
            decimal(u64::from(self.status), &mut status),
            b" ",
            reason(self.status).as_bytes(),
            b"\r\ncontent-type: ",
            self.content_type.as_bytes(),
            b"\r\ncontent-length: ",
            decimal(self.body.len() as u64, &mut length),
            if self.close { b"\r\nconnection: close\r\n\r\n" } else { b"\r\n\r\n" },
        ];
        let len = pieces.iter().map(|p| p.len()).sum();
        let (mut stack, mut spill) = ([0; HEAD_STACK_BYTES], Vec::new());
        let head = match stack.get_mut(..len) {
            Some(head) => head,
            None => {
                spill.resize(len, 0);
                &mut spill[..]
            }
        };
        let mut at = 0;
        for piece in pieces {
            head[at..at + piece.len()].copy_from_slice(piece);
            at += piece.len();
        }
        w.write_all(head)?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// `n` in decimal ASCII, written into the tail of `digits`.
fn decimal(mut n: u64, digits: &mut [u8; 20]) -> &[u8] {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &digits[at..];
        }
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
        assert!(req.body().is_empty());
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
        assert_eq!(req.body(), b"abcd");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let bytes =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let mut reader = RequestReader::new(Cursor::new(bytes.to_vec()), Limits::default());
        assert_eq!(reader.next_request().unwrap().unwrap().path(), "/a");
        let b = reader.next_request().unwrap().unwrap();
        assert_eq!((b.path(), b.body()), ("/b", b"hi".as_slice()));
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
            assert_eq!(req.body(), b"abcd", "input {ok:?}");
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

    /// The head assembled on the stack (or spilled to the heap for a
    /// content type too long for the stack) is byte for byte the one
    /// the `format!` template below writes.
    #[test]
    fn response_bytes_match_the_header_template() {
        let long = format!("application/vnd.{}+json", "x".repeat(HEAD_STACK_BYTES));
        let long: &'static str = Box::leak(long.into_boxed_str());
        for (status, content_type, body, close) in [
            (200, "application/json", b"{}".to_vec(), false),
            (431, "text/plain; charset=utf-8", b"too large\n".to_vec(), true),
            (599, long, vec![b'x'; 100_000], false),
            (0, long, Vec::new(), true),
        ] {
            let resp = Response { status, content_type, body, close };
            let mut got = Vec::new();
            resp.write_to(&mut got).unwrap();
            let mut want = format!(
                "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{}\r\n",
                resp.status,
                reason(resp.status),
                resp.content_type,
                resp.body.len(),
                if resp.close { "connection: close\r\n" } else { "" },
            )
            .into_bytes();
            want.extend_from_slice(&resp.body);
            assert_eq!(got, want, "status {status}");
        }
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
