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
        let mut out = format!(
            "HTTP/1.0 {} {}\r\nServer: sslperf-websim/0.1\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\n\r\n",
            self.status,
            self.reason,
            self.body.len()
        )
        .into_bytes();
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

/// Produces a deterministic pseudo-document of `size` bytes for `path`
/// (the static-file read a real server would serve from its cache).
#[must_use]
pub fn synthesize_document(path: &str, size: usize) -> Vec<u8> {
    let seed = path.bytes().fold(0u8, u8::wrapping_add);
    // An exact-size iterator: `collect` reserves once and the fill
    // vectorizes, where a `push` loop re-checks capacity for every byte.
    (0..size).map(|i| seed.wrapping_add(i as u8)).collect()
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
