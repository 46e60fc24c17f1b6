//! Property tests for the HTTP/1.1 request parser: arbitrary TCP
//! segmentation, pipelining, truncation, hostile bytes, and oversized
//! inputs must all produce typed results — never a panic, never a
//! wrong reassembly.

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
            prop_assert_eq!(&parsed.body, &wanted.body);
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
