//! Keep-alive conformance battery: the PR's acceptance differential
//! (N pipelined requests ≡ N fresh-connection requests, byte for
//! byte), plus the wire-visible RFC 9110 fixes — `Allow` on 405,
//! HEAD mirroring GET headers with an empty body — and the
//! connection-lifecycle bounds (idle 408, per-connection request cap).

use std::num::NonZeroUsize;
use std::time::Duration;

use ftspm_serve::{ServeConfig, Server};
use ftspm_testkit::{ephemeral_listener, http_request, par, HttpClient};

fn serve_with(config: ServeConfig) -> Server {
    let (listener, _) = ephemeral_listener();
    Server::start(listener, config).expect("boot")
}

fn serve_at(workers: usize) -> Server {
    serve_with(ServeConfig {
        workers: NonZeroUsize::new(workers).expect("nonzero workers"),
        ..ServeConfig::default()
    })
}

/// A mixed request list exercising every endpoint class a keep-alive
/// connection can carry. `(method, path, body)`.
fn request_grid() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    vec![
        ("GET", "/healthz", Vec::new()),
        (
            "POST",
            "/v1/run",
            br#"{"workload": {"name": "crc32", "seed": 7}}"#.to_vec(),
        ),
        (
            "POST",
            "/v1/run",
            br#"{"workload": {"synthetic": {"buffer_words": 48, "accesses": 500, "seed": 3}},
                "faults": {"seed": 5, "mean_cycles_between_strikes": 1500.0},
                "metrics": true}"#
                .to_vec(),
        ),
        (
            "POST",
            "/v1/batch",
            br#"[{"workload": {"name": "crc32", "seed": 11}},
                 {"workload": {"synthetic": {"buffer_words": 32, "accesses": 300, "seed": 2}}}]"#
                .to_vec(),
        ),
        ("GET", "/nope", Vec::new()),
        (
            "POST",
            "/v1/run",
            br#"{"workload": {"name": "crc32", "seed": 13}, "deadline_cycles": 50}"#.to_vec(),
        ),
    ]
}

/// The acceptance differential: N requests pipelined down ONE
/// keep-alive connection answer with bodies byte-identical to the same
/// N requests each on a fresh connection — at a worker-pool size of 1
/// and at `FTSPM_THREADS`' value. Only the `connection:` disposition
/// may differ between the two shapes.
#[test]
fn pipelined_requests_match_fresh_connections_byte_for_byte() {
    for workers in [1, par::thread_count().get()] {
        let server = serve_at(workers);

        // Fresh-connection baseline, one socket per request. Run on a
        // separate server so its cache/counters don't feed the other
        // shape — the comparison must be between cold equals.
        let baseline = serve_at(workers);
        let fresh: Vec<_> = request_grid()
            .iter()
            .map(|(method, path, body)| {
                http_request(baseline.addr(), method, path, body).expect("fresh request")
            })
            .collect();

        // All requests on the wire before the first response is read.
        let mut client = HttpClient::connect(server.addr()).expect("connect");
        for (method, path, body) in &request_grid() {
            client.send(method, path, body).expect("pipeline send");
        }
        for (i, expected) in fresh.iter().enumerate() {
            let got = client.read_reply().expect("pipelined reply");
            assert_eq!(
                got.status, expected.status,
                "status {i} (workers={workers})"
            );
            assert_eq!(
                got.body_str(),
                expected.body_str(),
                "body {i} diverged between pipelined and fresh (workers={workers})"
            );
            assert_eq!(
                got.header("content-type"),
                expected.header("content-type"),
                "content-type {i} (workers={workers})"
            );
            // The one permitted difference: disposition.
            assert_eq!(got.header("connection"), Some("keep-alive"), "{i}");
            assert_eq!(expected.header("connection"), Some("close"), "{i}");
        }

        // Every request after the first counted as a reuse.
        let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
        let reuses = request_grid().len() - 1;
        assert!(
            metrics
                .body_str()
                .contains(&format!("serve.conn.reused,counter,,{reuses}")),
            "workers={workers}:\n{}",
            metrics.body_str()
        );
    }
}

/// RFC 9110 §15.5.6: a 405 must say what IS allowed.
#[test]
fn wrong_methods_get_405_with_an_allow_header() {
    let server = serve_at(1);
    for (method, path, allow) in [
        ("POST", "/healthz", "GET, HEAD"),
        ("DELETE", "/metrics", "GET, HEAD"),
        ("GET", "/v1/run", "POST"),
        ("GET", "/v1/batch", "POST"),
    ] {
        let reply = http_request(server.addr(), method, path, b"").expect("405 reply");
        assert_eq!(reply.status, 405, "{method} {path}");
        assert_eq!(reply.header("allow"), Some(allow), "{method} {path}");
    }
}

/// HEAD answers with exactly the GET headers (content-length included)
/// and no body — and because the body is suppressed at write time, a
/// pipelined request behind the HEAD still parses cleanly.
#[test]
fn head_mirrors_get_headers_with_an_empty_body() {
    let server = serve_at(1);
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    for path in ["/healthz", "/metrics"] {
        let get = client.request("GET", path, b"").expect("GET");
        let head = client.request("HEAD", path, b"").expect("HEAD");
        assert_eq!(head.status, 200, "{path}");
        assert_eq!(
            head.header("content-type"),
            get.header("content-type"),
            "{path}"
        );
        assert!(head.body.is_empty(), "{path}: HEAD must carry no body");
        assert!(
            head.header("content-length").is_some(),
            "{path}: HEAD advertises the GET length"
        );
    }
    // /healthz is a fixed body, so the advertised lengths are equal
    // too. (/metrics grew between the two fetches — serve.requests
    // moved — so only the header-set shape is compared above.)
    let get = client.request("GET", "/healthz", b"").expect("GET");
    let head = client.request("HEAD", "/healthz", b"").expect("HEAD");
    assert_eq!(get.header("content-length"), head.header("content-length"));
    // The connection survived all of it: one socket, seven requests.
    let metrics = client.request("GET", "/metrics", b"").expect("metrics");
    assert!(
        metrics.body_str().contains("serve.conn.reused,counter,,6"),
        "{}",
        metrics.body_str()
    );
}

/// A reused connection that goes quiet gets a typed 408 counted as
/// `serve.conn.idle_timeout` — and NOT as a request, because the
/// client never sent one.
#[test]
fn idle_keep_alive_connections_get_a_typed_408() {
    let server = serve_with(ServeConfig {
        workers: NonZeroUsize::new(1).expect("nonzero"),
        idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let first = client.request("GET", "/healthz", b"").expect("request 1");
    assert_eq!(first.status, 200);
    // Send nothing more: after the idle window the server speaks
    // first, and the read blocks until its 408 lands.
    client.expect_reply();
    let reply = client.read_reply().expect("the pending 408");
    assert_eq!(reply.status, 408);
    assert_eq!(reply.header("connection"), Some("close"));
    let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
    let body = metrics.body_str();
    assert!(
        body.contains("serve.conn.idle_timeout,counter,,1"),
        "{body}"
    );
    // Exactly the healthz request (a /metrics snapshot precedes its
    // own count) — the idle close is not a request, and no
    // malformed.408 was charged.
    assert!(body.contains("serve.requests,counter,,1"), "{body}");
    assert!(!body.contains("serve.malformed.408"), "{body}");
}

/// A stall on the FIRST frame of a connection keeps the legacy
/// accounting: counted as a request and as `serve.malformed.408`.
#[test]
fn a_stalled_first_request_is_a_counted_408() {
    let server = serve_with(ServeConfig {
        workers: NonZeroUsize::new(1).expect("nonzero"),
        read_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    // Half a request line, then silence until the read timeout fires.
    client.send_raw(b"POST /v1/run HT").expect("torn send");
    client.expect_reply();
    let reply = client.read_reply().expect("the pending 408");
    assert_eq!(reply.status, 408);
    let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
    let body = metrics.body_str();
    assert!(body.contains("serve.malformed.408,counter,,1"), "{body}");
    assert!(!body.contains("serve.conn.idle_timeout"), "{body}");
}

/// The per-connection request cap closes the socket with
/// `connection: close` on the final response.
#[test]
fn the_request_cap_closes_the_connection() {
    let server = serve_with(ServeConfig {
        workers: NonZeroUsize::new(1).expect("nonzero"),
        max_requests_per_connection: 2,
        ..ServeConfig::default()
    });
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let first = client.request("GET", "/healthz", b"").expect("request 1");
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = client.request("GET", "/healthz", b"").expect("request 2");
    assert_eq!(second.header("connection"), Some("close"));
    // The socket is gone; a third request cannot complete (the send
    // itself may already fail with a broken pipe).
    let third = client
        .send("GET", "/healthz", b"")
        .and_then(|()| client.read_reply());
    assert!(third.is_err(), "capped connection must close");
    let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
    assert!(
        metrics.body_str().contains("serve.conn.reused,counter,,1"),
        "{}",
        metrics.body_str()
    );
}

/// An explicit `connection: close` from the client is honored
/// mid-conversation (the one-shot `http_request` client sends it, so
/// this is also what keeps the legacy client working unchanged).
#[test]
fn client_requested_close_is_honored() {
    let server = serve_at(1);
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let keep = client.request("GET", "/healthz", b"").expect("keep-alive");
    assert_eq!(keep.header("connection"), Some("keep-alive"));
    client
        .send_raw(
            b"GET /healthz HTTP/1.1\r\nhost: x\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
        )
        .expect("raw close request");
    client.expect_reply();
    let closed = client.read_reply().expect("close reply");
    assert_eq!(closed.status, 200);
    assert_eq!(closed.header("connection"), Some("close"));
}
