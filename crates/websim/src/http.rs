//! Minimal HTTP/1.0 request/response handling (the `httpd` component).
//!
//! Real parsing and formatting work, so the `httpd` row of the Table 1
//! reproduction is measured rather than modelled.

use crate::SslError;

/// A parsed HTTP request (method + path; headers are skipped, as a static
/// file server ignores them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    method: String,
    path: String,
}

impl HttpRequest {
    /// Builds a GET request for `path`.
    #[must_use]
    pub fn get(path: &str) -> Self {
        HttpRequest { method: "GET".to_owned(), path: path.to_owned() }
    }

    /// The request method.
    #[must_use]
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The request path.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Serializes the request line and standard headers.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        format!(
            "{} {} HTTP/1.0\r\nHost: sslperf.sim\r\nUser-Agent: curl/7.12\r\nAccept: */*\r\n\r\n",
            self.method, self.path
        )
        .into_bytes()
    }

    /// Parses a request from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Decode`] when the request line is malformed.
    pub fn parse(bytes: &[u8]) -> Result<Self, SslError> {
        let text = std::str::from_utf8(bytes).map_err(|_| SslError::Decode("http request"))?;
        let line = text.lines().next().ok_or(SslError::Decode("http request line"))?;
        let mut parts = line.split_whitespace();
        let method = parts.next().ok_or(SslError::Decode("http method"))?;
        let path = parts.next().ok_or(SslError::Decode("http path"))?;
        let version = parts.next().ok_or(SslError::Decode("http version"))?;
        if !version.starts_with("HTTP/") {
            return Err(SslError::Decode("http version"));
        }
        Ok(HttpRequest { method: method.to_owned(), path: path.to_owned() })
    }
}

/// An HTTP response with a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    status: u16,
    reason: &'static str,
    body: Vec<u8>,
}

impl HttpResponse {
    /// A `200 OK` response carrying `body`.
    #[must_use]
    pub fn ok(body: Vec<u8>) -> Self {
        HttpResponse { status: 200, reason: "OK", body }
    }

    /// A `404 Not Found` response.
    #[must_use]
    pub fn not_found() -> Self {
        HttpResponse { status: 404, reason: "Not Found", body: b"not found".to_vec() }
    }

    /// The status code.
    #[must_use]
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The response body.
    #[must_use]
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Serializes status line, headers and body.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = head(self.status, self.reason, self.body.len());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses a response, returning it and verifying `Content-Length`.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Decode`] on malformed framing.
    pub fn parse(bytes: &[u8]) -> Result<Self, SslError> {
        let split = bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or(SslError::Decode("http response header"))?;
        let head = std::str::from_utf8(&bytes[..split])
            .map_err(|_| SslError::Decode("http response header"))?;
        let body = bytes[split + 4..].to_vec();
        let status_line = head.lines().next().ok_or(SslError::Decode("http status line"))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(SslError::Decode("http status"))?;
        let reason = match status {
            200 => "OK",
            404 => "Not Found",
            _ => "Unknown",
        };
        for line in head.lines().skip(1) {
            if let Some(len) = line.strip_prefix("Content-Length: ") {
                let expect: usize =
                    len.trim().parse().map_err(|_| SslError::Decode("content length"))?;
                if expect != body.len() {
                    return Err(SslError::Decode("content length mismatch"));
                }
            }
        }
        Ok(HttpResponse { status, reason, body })
    }
}

/// Status line and headers of a response whose body is `content_length`
/// bytes — the one place the head is formatted, for both response forms.
fn head(status: u16, reason: &str, content_length: usize) -> Vec<u8> {
    format!(
        "HTTP/1.0 {status} {reason}\r\nServer: sslperf-websim/0.1\r\nContent-Type: application/octet-stream\r\nContent-Length: {content_length}\r\n\r\n"
    )
    .into_bytes()
}

/// The pseudo-document's seed for `path`.
fn document_seed(path: &str) -> u8 {
    path.bytes().fold(0u8, u8::wrapping_add)
}

/// Byte `i` of the pseudo-document seeded by `seed`: the one generator
/// behind [`synthesize_document`] and [`ResponseStream::fill`].
fn document_byte(seed: u8, i: usize) -> u8 {
    seed.wrapping_add(i as u8)
}

/// Produces a deterministic pseudo-document of `size` bytes for `path`
/// (the static-file read a real server would serve from its cache).
#[must_use]
pub fn synthesize_document(path: &str, size: usize) -> Vec<u8> {
    let seed = document_seed(path);
    // An exact-size iterator: `collect` reserves once and the fill
    // vectorizes, where a `push` loop re-checks capacity for every byte.
    (0..size).map(|i| document_byte(seed, i)).collect()
}

/// A response in streaming form: the virtual byte stream `head ‖ body`
/// behind one cursor, pulled a fragment at a time with
/// [`ResponseStream::fill`] so a server never holds the whole document.
/// The bytes are exactly [`HttpResponse::to_bytes`] of the same response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseStream {
    head: Vec<u8>,
    body: StreamBody,
    /// Bytes of `head ‖ body` already handed out.
    pos: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum StreamBody {
    /// Bytes that exist already (an error page, a rendered exposition).
    Owned(Vec<u8>),
    /// A pseudo-document, generated as it is pulled.
    Document { seed: u8, len: usize },
}

impl ResponseStream {
    /// A `200 OK` carrying the `size`-byte pseudo-document for `path` —
    /// `HttpResponse::ok(synthesize_document(path, size))` without the
    /// document ever existing in memory.
    #[must_use]
    pub fn document(path: &str, size: usize) -> Self {
        ResponseStream {
            head: head(200, "OK", size),
            body: StreamBody::Document { seed: document_seed(path), len: size },
            pos: 0,
        }
    }

    /// Bytes of the stream not yet handed out; 0 once it is exhausted.
    #[must_use]
    pub fn remaining(&self) -> usize {
        let body_len = match &self.body {
            StreamBody::Owned(bytes) => bytes.len(),
            StreamBody::Document { len, .. } => *len,
        };
        self.head.len() + body_len - self.pos
    }

    /// Writes the next bytes of the stream into `out` and advances the
    /// cursor. Returns how many were written: `out.len()` until the
    /// stream runs short, 0 once it is exhausted. Allocation-free.
    pub fn fill(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.remaining());
        let head_left = &self.head[self.pos.min(self.head.len())..];
        let (head_part, body_part) = out[..n].split_at_mut(n.min(head_left.len()));
        head_part.copy_from_slice(&head_left[..head_part.len()]);
        let body_pos = (self.pos + head_part.len()).saturating_sub(self.head.len());
        match &self.body {
            StreamBody::Owned(bytes) => {
                body_part.copy_from_slice(&bytes[body_pos..body_pos + body_part.len()]);
            }
            &StreamBody::Document { seed, .. } => {
                // The document from `body_pos` on is the document whose
                // seed is the byte there. Hoisting the offset this way
                // keeps the loop in the form that vectorizes; adding it
                // per byte, or zipping an iterator, runs ten times slower.
                let seed = document_byte(seed, body_pos);
                for (i, dst) in body_part.iter_mut().enumerate() {
                    *dst = document_byte(seed, i);
                }
            }
        }
        self.pos += n;
        n
    }
}

impl From<HttpResponse> for ResponseStream {
    fn from(response: HttpResponse) -> Self {
        ResponseStream {
            head: head(response.status, response.reason, response.body.len()),
            body: StreamBody::Owned(response.body),
            pos: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = HttpRequest::get("/index.html");
        let parsed = HttpRequest::parse(&req.to_bytes()).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.method(), "GET");
        assert_eq!(parsed.path(), "/index.html");
    }

    #[test]
    fn malformed_requests_rejected() {
        assert!(HttpRequest::parse(b"").is_err());
        assert!(HttpRequest::parse(b"GET\r\n\r\n").is_err());
        assert!(HttpRequest::parse(b"GET /x FTP/1.0\r\n\r\n").is_err());
        assert!(HttpRequest::parse(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn response_round_trip() {
        let resp = HttpResponse::ok(vec![1, 2, 3, 4]);
        let parsed = HttpResponse::parse(&resp.to_bytes()).unwrap();
        assert_eq!(parsed.status(), 200);
        assert_eq!(parsed.body(), &[1, 2, 3, 4]);
    }

    #[test]
    fn response_length_mismatch_detected() {
        let mut wire = HttpResponse::ok(vec![9; 10]).to_bytes();
        wire.truncate(wire.len() - 1);
        assert!(HttpResponse::parse(&wire).is_err());
    }

    #[test]
    fn not_found_and_unknown_status() {
        let nf = HttpResponse::not_found();
        let parsed = HttpResponse::parse(&nf.to_bytes()).unwrap();
        assert_eq!(parsed.status(), 404);
    }

    /// Pulls `stream` dry through `chunk`-byte fills.
    fn drain(mut stream: ResponseStream, chunk: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; chunk];
        loop {
            let n = stream.fill(&mut buf);
            out.extend_from_slice(&buf[..n]);
            if n < chunk {
                assert_eq!(stream.remaining(), 0);
                assert_eq!(stream.fill(&mut buf), 0, "an exhausted stream stays exhausted");
                return out;
            }
        }
    }

    #[test]
    fn stream_equals_the_serialized_response() {
        let whole = HttpResponse::ok(synthesize_document("/doc_1000.bin", 1000)).to_bytes();
        for chunk in [1, 7, 64, whole.len() - 1000, 999, whole.len(), whole.len() + 1] {
            let stream = ResponseStream::document("/doc_1000.bin", 1000);
            assert_eq!(stream.remaining(), whole.len());
            assert_eq!(drain(stream, chunk), whole, "chunk {chunk}");
        }
        let not_found = HttpResponse::not_found();
        assert_eq!(drain(not_found.clone().into(), 5), not_found.to_bytes());
    }

    #[test]
    fn documents_are_deterministic_and_sized() {
        let a = synthesize_document("/x", 1000);
        let b = synthesize_document("/x", 1000);
        let c = synthesize_document("/y", 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
        assert!(synthesize_document("/z", 0).is_empty());
        // 1000 is not a multiple of the 256-byte period the body repeats.
        let seed = b'/'.wrapping_add(b'x');
        assert!(a.iter().enumerate().all(|(i, &b)| b == seed.wrapping_add(i as u8)));
    }
}
