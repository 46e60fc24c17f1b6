//! Property tests for the HTTP/1.1 request parser: arbitrary TCP
//! segmentation, pipelining, truncation, hostile bytes, and oversized
//! inputs must all produce typed results — never a panic, never a
//! wrong reassembly — and on any stream the parser must return what
//! the previous, copying parser (kept here as `reference`) returns.

use std::io::Read;
use std::time::{Duration, Instant};

use gtlb_net::http::{HttpError, Limits, Method, Request, RequestReader};
use proptest::prelude::*;

/// A `Read` that serves a byte string in caller-chosen chunk sizes,
/// simulating arbitrary TCP segment boundaries.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    next_chunk: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        Self { data, pos: 0, chunks, next_chunk: 0 }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let chunk = self.chunks[self.next_chunk % self.chunks.len()].max(1);
        self.next_chunk += 1;
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// One generated request: method token, path, body.
#[derive(Debug, Clone)]
struct GenRequest {
    method: &'static str,
    path: String,
    body: Vec<u8>,
}

impl GenRequest {
    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.method.as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.path.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        if !self.body.is_empty() {
            out.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"x-probe: 1\r\n\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    fn expected_method(&self) -> Method {
        match self.method {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "DELETE" => Method::Delete,
            _ => Method::Other,
        }
    }
}

fn gen_request() -> impl Strategy<Value = GenRequest> {
    let method = prop_oneof![Just("GET"), Just("POST"), Just("DELETE"), Just("PATCH")];
    let path = prop::collection::vec(0u32..36, 1..12).prop_map(|digits| {
        let mut path = String::from("/");
        for d in digits {
            path.push(char::from_digit(d, 36).unwrap());
        }
        path
    });
    let body = prop::collection::vec(0u32..256, 0..48)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>());
    (method, path, body).prop_map(|(method, path, body)| GenRequest { method, path, body })
}

/// A head of `request_line` plus `headers` fields of 259 bytes each
/// (`x-NNN: ` and a 250-byte value), delivered one byte per read.
fn one_byte_head(request_line: &str, headers: usize) -> ChunkedReader {
    let mut wire = request_line.as_bytes().to_vec();
    for i in 0..headers {
        wire.extend_from_slice(format!("x-{i:03}: {}\r\n", "v".repeat(250)).as_bytes());
    }
    wire.extend_from_slice(b"\r\n");
    ChunkedReader::new(wire, vec![1])
}

/// Parses one request from `reader`, asserting it takes under 100 ms.
fn parse_within_budget(reader: ChunkedReader, wire_len: usize) -> Request {
    assert_eq!(reader.data.len(), wire_len);
    let started = Instant::now();
    let req = RequestReader::new(reader, Limits::default()).next_request().unwrap().unwrap();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "a {wire_len}-byte head took {took:?}");
    req
}

/// A head just under the 16 KiB cap, read one byte at a time, parses in
/// time linear in its length: the search for its end resumes where the
/// previous read left off instead of starting over.
#[test]
fn a_head_read_byte_by_byte_parses_in_linear_time() {
    let req = parse_within_budget(one_byte_head("GET / HTTP/1.1\r\n", 60), 15_558);
    assert_eq!(req.header("x-059").map(str::len), Some(250));
}

/// The same with an 8,000-byte target: the request-line cap reads the
/// first CRLF off the same scan instead of searching the buffer again.
#[test]
fn a_long_request_line_read_byte_by_byte_parses_in_linear_time() {
    let line = format!("GET /{} HTTP/1.1\r\n", "a".repeat(8_000));
    let req = parse_within_budget(one_byte_head(&line, 30), 15_788);
    assert_eq!(req.target().len(), 8_001);
    assert_eq!(req.header("x-029").map(str::len), Some(250));
}

fn parse_all(data: Vec<u8>, chunks: Vec<usize>) -> Result<Vec<Request>, HttpError> {
    let mut reader = RequestReader::new(ChunkedReader::new(data, chunks), Limits::default());
    let mut out = Vec::new();
    while let Some(req) = reader.next_request()? {
        out.push(req);
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A pipeline of requests split at arbitrary segment boundaries
    /// reassembles into exactly the same request sequence as a single
    /// contiguous read.
    #[test]
    fn segmentation_never_changes_the_parse(
        reqs in prop::collection::vec(gen_request(), 1..5),
        chunks in prop::collection::vec(1usize..17, 1..8),
    ) {
        let wire: Vec<u8> = reqs.iter().flat_map(GenRequest::serialize).collect();
        let whole = parse_all(wire.clone(), vec![wire.len().max(1)]).unwrap();
        let split = parse_all(wire, chunks).unwrap();
        prop_assert_eq!(&whole, &split);
        prop_assert_eq!(whole.len(), reqs.len());
        for (parsed, wanted) in whole.iter().zip(&reqs) {
            prop_assert_eq!(parsed.method, wanted.expected_method());
            prop_assert_eq!(parsed.path(), wanted.path.as_str());
            prop_assert_eq!(parsed.body(), wanted.body.as_slice());
            prop_assert_eq!(parsed.header("x-probe"), Some("1"));
        }
    }

    /// Any strict prefix of a single request is either a clean empty
    /// stream (cut at zero) or a typed 400 — never a panic, never a
    /// phantom request.
    #[test]
    fn truncation_is_a_typed_error(
        req in gen_request(),
        cut_fraction in 0.0f64..1.0,
        chunks in prop::collection::vec(1usize..9, 1..5),
    ) {
        let wire = req.serialize();
        let cut = ((wire.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < wire.len());
        let result = parse_all(wire[..cut].to_vec(), chunks);
        if cut == 0 {
            prop_assert_eq!(result.unwrap(), Vec::new());
        } else {
            prop_assert!(
                matches!(result, Err(HttpError::BadRequest(_))),
                "prefix of len {} gave {:?}", cut, result
            );
        }
    }

    /// Arbitrary byte soup never panics: every outcome is a parsed
    /// request list or a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(0u32..256, 0..256),
        chunks in prop::collection::vec(1usize..33, 1..5),
    ) {
        let data: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = parse_all(data, chunks);
    }

    /// Header names match ASCII case-insensitively, and `target()` is
    /// the path with its query.
    #[test]
    fn header_lookup_ignores_case_and_target_keeps_the_query(
        req in gen_request(),
        query in prop::collection::vec(0u32..36, 0..8),
        upper in 0u64..(1 << 14),
    ) {
        let query: String = query.into_iter().map(|d| char::from_digit(d, 36).unwrap()).collect();
        let target = format!("{}?{query}", req.path);
        let head = format!("{} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n", req.method, req.body.len());
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&req.body);
        let parsed = parse_all(wire, vec![7]).unwrap();
        prop_assert_eq!(parsed.len(), 1);
        let name: String = "content-length"
            .chars()
            .enumerate()
            .map(|(i, c)| if upper >> i & 1 == 1 { c.to_ascii_uppercase() } else { c })
            .collect();
        let length = req.body.len().to_string();
        prop_assert_eq!(parsed[0].header("Content-Length"), Some(length.as_str()));
        prop_assert_eq!(parsed[0].header(&name), Some(length.as_str()));
        prop_assert_eq!(parsed[0].target(), target.as_str());
        prop_assert_eq!(parsed[0].path(), req.path.as_str());
    }

    /// Request lines longer than the cap are 431 regardless of where
    /// the segments fall.
    #[test]
    fn oversized_request_line_is_431(
        extra in 1usize..4096,
        chunks in prop::collection::vec(1usize..65, 1..5),
    ) {
        let limits = Limits::default();
        let mut wire = b"GET /".to_vec();
        wire.resize(wire.len() + limits.max_request_line + extra, b'a');
        wire.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let mut reader = RequestReader::new(ChunkedReader::new(wire, chunks), limits);
        prop_assert!(matches!(reader.next_request(), Err(HttpError::HeadersTooLarge)));
    }

    /// Header blocks past the byte or count cap are 431.
    #[test]
    fn oversized_headers_are_431(
        header_count in 65usize..256,
        value_len in 1usize..64,
    ) {
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..header_count {
            wire.extend_from_slice(format!("x-h{i}: {}\r\n", "v".repeat(value_len)).as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        let result = parse_all(wire, vec![4096]);
        prop_assert!(matches!(result, Err(HttpError::HeadersTooLarge)), "got {:?}", result);
    }

    /// Declared bodies past the cap are 413 before any body byte is
    /// buffered.
    #[test]
    fn oversized_body_is_413(excess in 1u64..1_000_000) {
        let limit = Limits::default().max_body as u64;
        let wire = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", limit + excess);
        let result = parse_all(wire.into_bytes(), vec![512]);
        prop_assert!(matches!(result, Err(HttpError::BodyTooLarge)), "got {:?}", result);
    }
}

/// The request parser as it was before requests kept their bytes in
/// one buffer: it copied each read out of a stack chunk, the head into
/// a `String` and the body into a `Vec`, and split header lines with
/// `str` searches. Kept verbatim in behaviour as the oracle the current
/// parser is checked against.
mod reference {
    use std::io::{self, Read};
    use std::ops::Range;

    use gtlb_net::http::{HttpError, Limits, Method};

    fn parse_method(token: &str) -> Method {
        match token {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "DELETE" => Method::Delete,
            _ => Method::Other,
        }
    }

    #[derive(Debug)]
    pub struct Request {
        pub method: Method,
        head: String,
        target: Range<usize>,
        pub body: Vec<u8>,
        pub close: bool,
    }

    impl Request {
        pub fn target(&self) -> &str {
            &self.head[self.target.clone()]
        }

        pub fn header(&self, name: &str) -> Option<&str> {
            let (_, fields) = self.head[self.target.end..].split_once("\r\n")?;
            fields.split("\r\n").find_map(|line| {
                let (n, value) = line.split_once(':')?;
                n.eq_ignore_ascii_case(name).then(|| trim_ows(value))
            })
        }
    }

    pub struct RequestReader<R> {
        inner: R,
        buf: Vec<u8>,
        limits: Limits,
    }

    impl<R: Read> RequestReader<R> {
        pub fn new(inner: R, limits: Limits) -> Self {
            Self { inner, buf: Vec::with_capacity(1024), limits }
        }

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

            let head = std::str::from_utf8(&self.buf[..head_end])
                .map_err(|_| HttpError::BadRequest("request head is not UTF-8"))?;
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
                        ContentLength::Value(first) if first == value => {
                            ContentLength::Value(first)
                        }
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

        fn check_head_limits(&self, scan: &HeadScan, head_bytes: usize) -> Result<(), HttpError> {
            if head_bytes > self.limits.max_head_bytes
                || scan.line_end.unwrap_or(head_bytes) > self.limits.max_request_line
            {
                return Err(HttpError::HeadersTooLarge);
            }
            Ok(())
        }

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

    #[derive(Debug, Default)]
    struct HeadScan {
        scanned: usize,
        line_end: Option<usize>,
    }

    impl HeadScan {
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

    #[derive(Debug, Default)]
    struct Framing<'h> {
        content_length: ContentLength<'h>,
        transfer_encoding: bool,
        connection: Option<&'h str>,
    }

    #[derive(Debug, Default)]
    enum ContentLength<'h> {
        #[default]
        Absent,
        Value(&'h str),
        Conflicting,
    }

    fn parse_content_length(value: &str) -> Result<usize, HttpError> {
        let bad = HttpError::BadRequest("bad content-length");
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad);
        }
        value.parse().map_err(|_| bad)
    }

    fn trim_ows(value: &str) -> &str {
        value.trim_matches([' ', '\t'])
    }

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
        Ok((parse_method(method), start..start + target.len(), http11))
    }
}

/// Pieces the differential streams are assembled from: well-formed and
/// malformed request lines, header lines, terminators and bodies, so
/// that every parse error and every framing rule turns up.
const REQUEST_LINES: &[&str] = &[
    "GET /a HTTP/1.1",
    "POST /v1/metrics?x=1 HTTP/1.1",
    "DELETE /v1/nodes/n HTTP/1.0",
    "BREW /pot HTTP/1.1",
    "GET  / HTTP/1.1",
    "GET / HTTP/2.0",
    "GET / HTTP/1.1 extra",
    "GET /\u{e9} HTTP/1.1",
    "",
    "GARBAGE",
];
const HEADER_LINES: &[&str] = &[
    "host: x",
    "x-probe:1",
    "content-length: 3",
    "Content-Length:\t3 ",
    "content-length: 0003",
    "content-length: 5",
    "content-length: +3",
    "content-length: 3, 3",
    "content-length: ",
    "content-length: 99999999999999999999999",
    "transfer-encoding: chunked",
    "connection: close",
    "Connection: keep-alive",
    "connection: upgrade",
    "bad name: v",
    "bad\tname: v",
    ": no name",
    "no-colon",
    "x-u: caf\u{e9}",
    "x-lf: a\nb",
    "x-cr: a\rb",
];
const HEADER_NAMES: &[&str] = &[
    "host",
    "x-probe",
    "content-length",
    "CONTENT-LENGTH",
    "transfer-encoding",
    "connection",
    "x-u",
    "x-lf",
    "x-cr",
    "bad name",
    "",
    "absent",
];

/// One request of a differential stream: a request line and header
/// lines from the tables above, a terminator (sometimes a broken one),
/// now and then a separator, whitespace, colon or non-UTF-8 byte
/// spliced into the head, and a body.
fn gen_piece() -> impl Strategy<Value = Vec<u8>> {
    let line = 0..REQUEST_LINES.len();
    let headers = prop::collection::vec(0..HEADER_LINES.len(), 0..5);
    const ENDS: &[&str] = &["\r\n\r\n", "\r\n\r\n", "\r\n\r\n", "\n\n", "\r\n\r", "\r\r\n\r\n"];
    let end = (0..ENDS.len()).prop_map(|i| ENDS[i]);
    const SPLICE: &[u8] = b"\r\n \t:a\xc3\xff";
    let splice = prop::collection::vec((0..SPLICE.len()).prop_map(|i| SPLICE[i]), 0..2);
    let body = prop::collection::vec(0u32..256, 0..6);
    ((line, headers, end), (splice, 0usize..64), body).prop_map(
        |((line, headers, end), (splice, at), body)| {
            let mut head = REQUEST_LINES[line].as_bytes().to_vec();
            for h in headers {
                head.extend_from_slice(b"\r\n");
                head.extend_from_slice(HEADER_LINES[h].as_bytes());
            }
            let at = at.min(head.len());
            head.splice(at..at, splice);
            head.extend_from_slice(end.as_bytes());
            head.extend(body.into_iter().map(|b| b as u8));
            head
        },
    )
}

/// Default limits, or tight ones that the short generated requests can
/// reach: a 24-byte request line, 64-byte head, two headers, 4-byte
/// body.
fn gen_limits() -> impl Strategy<Value = Limits> {
    prop_oneof![
        Just(Limits::default()),
        Just(Limits { max_request_line: 24, max_head_bytes: 64, max_headers: 2, max_body: 4 }),
    ]
}

/// `header(name)` for every name the generator can produce.
fn headers_of(lookup: impl Fn(&str) -> Option<String>) -> Vec<Option<String>> {
    HEADER_NAMES.iter().map(|name| lookup(name)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// On any stream of well-formed, malformed and pipelined requests,
    /// truncated anywhere and split at any read boundaries, the parser
    /// returns what the reference parser returns, request by request:
    /// the same method, target, headers, body and close flag, or the
    /// same error.
    #[test]
    fn parser_matches_the_reference_parser(
        pieces in prop::collection::vec(gen_piece(), 1..4),
        cut in 0.0f64..1.5,
        chunks in prop::collection::vec(prop_oneof![1usize..24, 1usize..24, 24usize..5000], 1..6),
        limits in gen_limits(),
    ) {
        let mut wire: Vec<u8> = pieces.concat();
        if cut < 1.0 {
            wire.truncate((wire.len() as f64 * cut) as usize);
        }
        let mut new = RequestReader::new(ChunkedReader::new(wire.clone(), chunks.clone()), limits);
        let mut old = reference::RequestReader::new(ChunkedReader::new(wire, chunks), limits);
        loop {
            match (new.next_request(), old.next_request()) {
                (Ok(Some(got)), Ok(Some(want))) => {
                    prop_assert_eq!(got.method, want.method);
                    prop_assert_eq!(got.target(), want.target());
                    prop_assert_eq!(got.body(), want.body.as_slice());
                    prop_assert_eq!(got.wants_close(), want.close);
                    prop_assert_eq!(
                        headers_of(|n| got.header(n).map(str::to_string)),
                        headers_of(|n| want.header(n).map(str::to_string))
                    );
                }
                (Ok(None), Ok(None)) => break,
                (Err(got), Err(want)) => {
                    prop_assert_eq!(got.status(), want.status());
                    prop_assert_eq!(got.to_string(), want.to_string());
                    break;
                }
                (got, want) => prop_assert!(false, "parser gave {:?}, reference {:?}", got, want),
            }
        }
    }
}
