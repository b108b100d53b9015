//! Hand-rolled HTTP/1.1 request framing and deterministic responses.
//!
//! The parser is a pure function of a [`BufRead`] — the server hands it
//! a buffered socket, the property tests hand it an `io::Cursor` full
//! of junk — so every malformed-input path is exercised without a
//! network in the loop. Every way a request can be malformed is a typed
//! [`HttpError`] with a 4xx/5xx status; nothing panics, and the hard
//! caps on request line, header block, and body mean no input can make
//! the reader grow without bound.
//!
//! Responses are written with a fixed header set and **no `Date`
//! header**: the service's determinism contract says the same job body
//! and seed produce byte-identical response bytes, so nothing
//! wall-clock-dependent may appear on the wire. The only header that
//! varies between a fresh connection and a reused one is `connection:`
//! itself — bodies, status lines, and every other header are identical,
//! which is what lets the keep-alive differential test compare
//! pipelined responses against fresh-connection ones byte for byte.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Longest accepted request line (`METHOD SP path SP version CRLF`).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Cap on the total header block, request line included.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Cap on a request body; a batch of a few hundred job specs fits with
/// room to spare.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: the routing triple plus the connection
/// disposition. Headers beyond `content-length`/`transfer-encoding`/
/// `connection` are validated for shape and discarded — the service
/// keys on method, path, and body only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, e.g. `GET`.
    pub method: String,
    /// The request target, e.g. `/v1/run`.
    pub path: String,
    /// The request body (empty when no `content-length`).
    pub body: Vec<u8>,
    /// Whether the connection must close after this response:
    /// a `connection: close` token, or HTTP/1.0 without an explicit
    /// `connection: keep-alive`.
    pub close: bool,
}

/// Why a request failed to parse, each variant carrying its HTTP
/// status.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying stream failed (includes read timeouts).
    Io(io::Error),
    /// The stream ended mid-request.
    Truncated,
    /// Request line longer than [`MAX_REQUEST_LINE`].
    RequestLineTooLong,
    /// Header block larger than [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// The request line is not `METHOD SP path SP HTTP/1.x`.
    BadRequestLine,
    /// An HTTP version other than 1.0/1.1.
    UnsupportedVersion,
    /// A header line without a `:` separator.
    BadHeader,
    /// `content-length` present but not a base-10 integer in range.
    BadContentLength,
    /// A body-bearing method (POST/PUT) with no `content-length`.
    MissingContentLength,
    /// Declared body larger than [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// `transfer-encoding` is declared; only identity framing is
    /// supported.
    UnsupportedTransferEncoding,
    /// A keep-alive connection sat idle past the server's idle window
    /// with no request in flight. Distinct from [`HttpError::Io`]
    /// timeouts mid-frame: no request was ever started, so the server
    /// answers a typed 408 and does not count a request.
    IdleTimeout,
}

impl HttpError {
    /// The HTTP status this parse failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            Self::Io(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                408
            }
            Self::IdleTimeout => 408,
            Self::Io(_)
            | Self::Truncated
            | Self::BadRequestLine
            | Self::BadHeader
            | Self::BadContentLength => 400,
            Self::RequestLineTooLong => 414,
            Self::HeadersTooLarge => 431,
            Self::UnsupportedVersion => 505,
            Self::MissingContentLength => 411,
            Self::BodyTooLarge => 413,
            Self::UnsupportedTransferEncoding => 501,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error reading request: {e}"),
            Self::Truncated => write!(f, "request truncated mid-frame"),
            Self::RequestLineTooLong => {
                write!(f, "request line exceeds {MAX_REQUEST_LINE} bytes")
            }
            Self::HeadersTooLarge => write!(f, "header block exceeds {MAX_HEADER_BYTES} bytes"),
            Self::BadRequestLine => write!(f, "malformed request line"),
            Self::UnsupportedVersion => write!(f, "unsupported HTTP version"),
            Self::BadHeader => write!(f, "malformed header line"),
            Self::BadContentLength => write!(f, "malformed content-length"),
            Self::MissingContentLength => write!(f, "content-length required"),
            Self::BodyTooLarge => write!(f, "body exceeds {MAX_BODY_BYTES} bytes"),
            Self::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding not supported; send content-length")
            }
            Self::IdleTimeout => write!(f, "connection idle past the keep-alive window"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            Self::Truncated
        } else {
            Self::Io(e)
        }
    }
}

/// Reads one line terminated by `\n`, capped at `max` bytes **counting
/// the terminator**. Returns the line without `\r\n`/`\n`, or `None`
/// at clean EOF before any byte. `consumed` accumulates every byte
/// read, so callers can tell a timeout on a silent connection (nothing
/// consumed) from one mid-line.
fn read_capped_line(
    reader: &mut impl BufRead,
    max: usize,
    over: fn() -> HttpError,
    consumed: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    loop {
        if raw.len() >= max {
            return Err(over());
        }
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if raw.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Truncated);
            }
            Ok(_) => {
                *consumed += 1;
                if byte[0] == b'\n' {
                    if raw.last() == Some(&b'\r') {
                        raw.pop();
                    }
                    let line = String::from_utf8(raw).map_err(|_| HttpError::BadHeader)?;
                    return Ok(Some(line));
                }
                raw.push(byte[0]);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Reads and validates one request frame from `reader`.
///
/// The one-shot entry point: a clean EOF before any byte is
/// [`HttpError::Truncated`]. Connection loops that must tell "client
/// hung up between requests" apart from "client died mid-frame" use
/// [`read_next_request`] instead.
///
/// # Errors
///
/// Every malformed frame is a typed [`HttpError`]; see each variant for
/// the status it maps to. The caps guarantee the call terminates on any
/// finite or timing-out stream.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    read_next_request(reader)?.ok_or(HttpError::Truncated)
}

/// Reads the next request off a (possibly reused) connection.
///
/// Returns `Ok(None)` on a clean EOF before any byte — the client
/// closed between requests, which on a keep-alive connection is the
/// normal way a conversation ends, not an error. A connection reset
/// before any byte is the same close, just abrupt (the client dropped
/// the socket with responses still unread).
///
/// # Errors
///
/// [`HttpError::IdleTimeout`] when the socket read timed out before the
/// first byte of a request (an idle keep-alive connection); every other
/// malformed frame is the same typed [`HttpError`] as
/// [`read_request`].
pub fn read_next_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut consumed = 0usize;
    let line = match read_capped_line(
        reader,
        MAX_REQUEST_LINE,
        || HttpError::RequestLineTooLong,
        &mut consumed,
    ) {
        Ok(None) => return Ok(None),
        Ok(Some(line)) => line,
        Err(HttpError::Io(e))
            if consumed == 0
                && matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
        {
            return Err(HttpError::IdleTimeout);
        }
        // A reset before any byte of a request is a client that
        // vanished between requests (its RST beat our read) — the same
        // clean close as an orderly FIN, never a malformed request.
        Err(HttpError::Io(e))
            if consumed == 0
                && matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
                ) =>
        {
            return Ok(None);
        }
        Err(e) => return Err(e),
    };
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or_default();
    let path = parts.next().ok_or(HttpError::BadRequestLine)?;
    let version = parts.next().ok_or(HttpError::BadRequestLine)?;
    if parts.next().is_some() || method.is_empty() || path.is_empty() {
        return Err(HttpError::BadRequestLine);
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequestLine);
    }
    if !path.starts_with('/') {
        return Err(HttpError::BadRequestLine);
    }
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(HttpError::UnsupportedVersion);
    }

    let mut content_length: Option<usize> = None;
    let mut close_token = false;
    let mut keep_alive_token = false;
    let mut header_bytes = line.len();
    loop {
        let remaining = MAX_HEADER_BYTES.saturating_sub(header_bytes);
        if remaining == 0 {
            return Err(HttpError::HeadersTooLarge);
        }
        let header = read_capped_line(
            reader,
            remaining,
            || HttpError::HeadersTooLarge,
            &mut consumed,
        )?
        .ok_or(HttpError::Truncated)?;
        if header.is_empty() {
            break;
        }
        header_bytes += header.len() + 2;
        let (name, value) = header.split_once(':').ok_or(HttpError::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadHeader);
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim();
        if name == "transfer-encoding" && !value.eq_ignore_ascii_case("identity") {
            return Err(HttpError::UnsupportedTransferEncoding);
        }
        if name == "connection" {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close_token = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive_token = true;
                }
            }
        }
        if name == "content-length" {
            // RFC 9110 §8.6: content-length is 1*DIGIT — no sign, no
            // whitespace inside the token. `parse::<usize>` alone would
            // accept a leading `+`, so check every byte first.
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::BadContentLength);
            }
            let parsed: usize = value.parse().map_err(|_| HttpError::BadContentLength)?;
            // Duplicate content-length headers that disagree are a
            // classic smuggling vector; reject rather than pick one.
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err(HttpError::BadContentLength);
            }
            content_length = Some(parsed);
        }
    }

    let body = match content_length {
        None if matches!(method, "POST" | "PUT") => {
            return Err(HttpError::MissingContentLength);
        }
        None => Vec::new(),
        Some(len) if len > MAX_BODY_BYTES => return Err(HttpError::BodyTooLarge),
        Some(len) => {
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            body
        }
    };

    // HTTP/1.0 closes unless the client opts into keep-alive; HTTP/1.1
    // keeps alive unless the client says close.
    let close = if version == "HTTP/1.0" {
        close_token || !keep_alive_token
    } else {
        close_token
    };

    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
        close,
    }))
}

/// A response with the fixed deterministic header set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `content-type` header value.
    pub content_type: &'static str,
    /// Optional `retry-after` seconds (the 503 backpressure path).
    pub retry_after: Option<u32>,
    /// Optional `allow` header value (405 responses, RFC 9110 §15.5.6).
    pub allow: Option<&'static str>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 JSON response.
    pub fn json(body: String) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            retry_after: None,
            allow: None,
            body: body.into_bytes(),
        }
    }

    /// A JSON response with an explicit status (the job API's 202s and
    /// replayed terminal reports).
    pub fn json_status(status: u16, body: String) -> Self {
        Self {
            status,
            ..Self::json(body)
        }
    }

    /// A 200 CSV response (the `/metrics` endpoint).
    pub fn csv(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/csv",
            retry_after: None,
            allow: None,
            body: body.into_bytes(),
        }
    }

    /// An error response with a JSON `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Self {
        Self {
            status,
            content_type: "application/json",
            retry_after: None,
            allow: None,
            body: format!("{{\"error\":{}}}", crate::json::escape(message)).into_bytes(),
        }
    }

    /// A 405 with the mandatory `allow` header (RFC 9110: a 405 MUST
    /// name the methods the target does support).
    pub fn method_not_allowed(allow: &'static str) -> Self {
        Self {
            allow: Some(allow),
            ..Self::error(405, &format!("use {allow}"))
        }
    }

    /// The reason phrase for the statuses this service emits.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            411 => "Length Required",
            413 => "Payload Too Large",
            414 => "URI Too Long",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            505 => "HTTP Version Not Supported",
            _ => "Internal Server Error",
        }
    }

    /// Renders the full deterministic wire frame.
    ///
    /// `close` selects the `connection` header; `head_only` omits the
    /// body while keeping the `content-length` it *would* have had —
    /// the HEAD contract (RFC 9110 §9.3.2).
    pub fn render(&self, close: bool, head_only: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        if let Some(allow) = self.allow {
            head.push_str(&format!("allow: {allow}\r\n"));
        }
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("retry-after: {secs}\r\n"));
        }
        head.push_str("\r\n");
        let mut frame = head.into_bytes();
        if !head_only {
            frame.extend_from_slice(&self.body);
        }
        frame
    }

    /// Writes the frame with an explicit connection disposition and
    /// HEAD mode; see [`Response::render`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn write_framed(
        &self,
        stream: &mut impl Write,
        close: bool,
        head_only: bool,
    ) -> io::Result<()> {
        stream.write_all(&self.render(close, head_only))?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw))
    }

    #[test]
    fn a_well_formed_post_parses() {
        let req = parse(b"POST /v1/run HTTP/1.1\r\nhost: x\r\ncontent-length: 4\r\n\r\nbody")
            .expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/run");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn get_without_content_length_parses_with_empty_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").expect("valid GET");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn truncation_and_caps_are_typed_errors() {
        assert!(matches!(parse(b""), Err(HttpError::Truncated)));
        assert!(matches!(
            parse(b"POST /v1/run HTT"),
            Err(HttpError::Truncated)
        ));
        assert!(matches!(
            parse(b"POST /v1/run HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"),
            Err(HttpError::Truncated)
        ));
        let long_line = vec![b'A'; MAX_REQUEST_LINE + 10];
        assert!(matches!(
            parse(&long_line),
            Err(HttpError::RequestLineTooLong)
        ));
        let mut fat_headers = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..4000 {
            fat_headers.extend_from_slice(format!("x-h{i}: {i}\r\n").as_bytes());
        }
        fat_headers.extend_from_slice(b"\r\n");
        assert!(matches!(
            parse(&fat_headers),
            Err(HttpError::HeadersTooLarge)
        ));
    }

    #[test]
    fn malformed_frames_map_to_their_statuses() {
        let cases: Vec<(&[u8], u16)> = vec![
            (b"NOPE\r\n\r\n", 400),
            (b"GET noslash HTTP/1.1\r\n\r\n", 400),
            (b"get / HTTP/1.1\r\n\r\n", 400),
            (b"GET / HTTP/2.0\r\n\r\n", 505),
            (b"GET / HTTP/1.1\r\nbadheader\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\ncontent-length: abc\r\n\r\n", 400),
            // RFC 9110: content-length is 1*DIGIT. A leading sign or an
            // empty token must be rejected even though `parse::<usize>`
            // would accept "+4".
            (b"POST / HTTP/1.1\r\ncontent-length: +4\r\n\r\nbody", 400),
            (b"POST / HTTP/1.1\r\ncontent-length: 4 4\r\n\r\nbody", 400),
            (b"POST / HTTP/1.1\r\ncontent-length:\r\n\r\nbody", 400),
            (
                b"POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\nxx",
                400,
            ),
            (b"POST / HTTP/1.1\r\nhost: x\r\n\r\n", 411),
            (b"POST / HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n", 413),
            (
                b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                501,
            ),
        ];
        for (raw, status) in cases {
            let err = parse(raw).expect_err("malformed frame");
            assert_eq!(
                err.status(),
                status,
                "frame: {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn connection_disposition_follows_version_and_tokens() {
        let cases: Vec<(&[u8], bool)> = vec![
            (b"GET / HTTP/1.1\r\n\r\n", false),
            (b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nconnection: Close\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nconnection: keep-alive\r\n\r\n", false),
            (b"GET / HTTP/1.1\r\nconnection: foo, close\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nconnection: close\r\n\r\n", true),
        ];
        for (raw, close) in cases {
            let req = parse(raw).expect("valid request");
            assert_eq!(req.close, close, "{}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn clean_eof_between_requests_is_none_not_an_error() {
        assert!(matches!(read_next_request(&mut Cursor::new(b"")), Ok(None)));
        // A half request is still a typed error, not a clean close.
        assert!(matches!(
            read_next_request(&mut Cursor::new(b"GET / HT")),
            Err(HttpError::Truncated)
        ));
        // Two pipelined requests come off the same reader in order.
        let two =
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/run HTTP/1.1\r\ncontent-length: 2\r\n\r\nok";
        let mut cursor = Cursor::new(&two[..]);
        let first = read_next_request(&mut cursor)
            .expect("first")
            .expect("some");
        assert_eq!(first.path, "/healthz");
        let second = read_next_request(&mut cursor)
            .expect("second")
            .expect("some");
        assert_eq!(second.path, "/v1/run");
        assert_eq!(second.body, b"ok");
        assert!(matches!(read_next_request(&mut cursor), Ok(None)));
    }

    #[test]
    fn responses_render_a_fixed_frame_with_no_date_header() {
        let frame = Response::json("{\"ok\":true}".to_string()).render(true, false);
        let text = String::from_utf8(frame).expect("ascii frame");
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\n\
             connection: close\r\n\r\n{\"ok\":true}"
        );
        let busy = Response {
            retry_after: Some(1),
            ..Response::error(503, "queue full")
        };
        let text = String::from_utf8(busy.render(true, false)).expect("ascii frame");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(!text.to_ascii_lowercase().contains("date:"));
    }

    #[test]
    fn keep_alive_and_head_frames_differ_only_as_documented() {
        let response = Response::json("{\"ok\":true}".to_string());
        let fresh = String::from_utf8(response.render(true, false)).expect("ascii");
        let reused = String::from_utf8(response.render(false, false)).expect("ascii");
        assert_eq!(
            fresh.replace("connection: close", "connection: keep-alive"),
            reused,
            "only the connection header may differ"
        );
        // HEAD: identical headers (content-length included), no body.
        let head = String::from_utf8(response.render(true, true)).expect("ascii");
        assert!(head.contains("content-length: 11\r\n"));
        assert!(head.ends_with("\r\n\r\n"));
        assert_eq!(format!("{head}{{\"ok\":true}}"), fresh);
    }

    #[test]
    fn method_not_allowed_carries_the_allow_header() {
        let frame = Response::method_not_allowed("GET, HEAD").render(true, false);
        let text = String::from_utf8(frame).expect("ascii frame");
        assert!(text.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        assert!(text.contains("allow: GET, HEAD\r\n"), "{text}");
    }
}
