//! The content-addressed result cache, pinned end to end: spec
//! equivalence, LRU eviction, deadline caching, the panic bypass, and
//! the acceptance differential — a cache hit answers bytes identical
//! to the original miss (with `serve.cache.hit` incremented), at a
//! worker-pool size of 1 and at `FTSPM_THREADS`' value.

use std::num::NonZeroUsize;

use ftspm_serve::{JobSpec, ServeConfig, Server};
use ftspm_testkit::{ephemeral_listener, http_request, par};

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

/// The acceptance differential: the second identical request is a
/// cache hit and answers byte-identical bytes, with the hit counted —
/// and the job's own metrics fold into `/metrics` exactly as a fresh
/// run's would (non-`serve.*` counters double).
#[test]
fn cache_hits_replay_byte_identical_bytes_and_full_accounting() {
    let body = br#"{"workload": {"synthetic": {"buffer_words": 48, "accesses": 500, "seed": 21}},
                    "faults": {"seed": 4, "mean_cycles_between_strikes": 1200.0},
                    "metrics": true}"#;
    let output = JobSpec::parse(body)
        .expect("job decodes")
        .run()
        .expect("job runs");
    let mut doubled = ftspm_obs::MetricsRegistry::new();
    let job_registry = output.registry.as_ref().expect("metrics job registry");
    doubled.merge(job_registry);
    doubled.merge(job_registry);

    for workers in [1, par::thread_count().get()] {
        let server = serve_at(workers);
        let miss = http_request(server.addr(), "POST", "/v1/run", body).expect("miss");
        let hit = http_request(server.addr(), "POST", "/v1/run", body).expect("hit");
        assert_eq!(miss.status, 200, "{}", miss.body_str());
        assert_eq!(hit.status, 200);
        assert_eq!(
            miss.body, hit.body,
            "cache hit diverged from its miss (workers={workers})"
        );
        assert_eq!(miss.body_str(), output.body, "served != in-process");

        let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
        let csv = metrics.body_str();
        assert!(csv.contains("serve.cache.miss,counter,,1"), "{csv}");
        assert!(csv.contains("serve.cache.hit,counter,,1"), "{csv}");
        assert!(csv.contains("serve.jobs,counter,,2"), "{csv}");
        let non_serve: String = csv
            .lines()
            .filter(|line| !line.starts_with("serve."))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(
            non_serve,
            doubled.to_csv(),
            "a hit must fold the job registry exactly like a fresh run (workers={workers})"
        );
    }
}

/// The cache is keyed on the decoded spec, not the raw bytes: a spec
/// written with its defaults spelled out hits the entry its implicit
/// twin populated.
#[test]
fn equivalent_specs_share_one_cache_entry() {
    let server = serve_at(1);
    let implicit = http_request(
        server.addr(),
        "POST",
        "/v1/run",
        br#"{"workload": "crc32"}"#,
    )
    .expect("implicit");
    // crc32's default table seed, spelled out.
    let explicit = http_request(
        server.addr(),
        "POST",
        "/v1/run",
        br#"{"workload": {"name": "crc32", "seed": 50115}}"#,
    )
    .expect("explicit");
    assert_eq!(implicit.status, 200, "{}", implicit.body_str());
    assert_eq!(implicit.body, explicit.body);
    let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
    assert!(
        metrics.body_str().contains("serve.cache.hit,counter,,1"),
        "{}",
        metrics.body_str()
    );
}

/// Deadline kills are deterministic outcomes too: cached and replayed
/// with the same 504 and the same accounting.
#[test]
fn deadline_kills_are_cached() {
    let server = serve_at(1);
    let body = br#"{"workload": "crc32", "deadline_cycles": 100}"#;
    let miss = http_request(server.addr(), "POST", "/v1/run", body).expect("miss");
    let hit = http_request(server.addr(), "POST", "/v1/run", body).expect("hit");
    assert_eq!(miss.status, 504, "{}", miss.body_str());
    assert_eq!(hit.status, 504);
    assert_eq!(miss.body, hit.body);
    let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
    let csv = metrics.body_str();
    assert!(csv.contains("serve.deadline_killed,counter,,2"), "{csv}");
    assert!(csv.contains("serve.cache.hit,counter,,1"), "{csv}");
}

/// Panics have no deterministic result to replay: `chaos_panic` specs
/// bypass the cache entirely — no hit, no miss, no stored entry.
#[test]
fn panicking_jobs_bypass_the_cache() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let in_worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("serve-worker"));
        if !in_worker {
            previous(info);
        }
    }));
    let server = serve_at(1);
    let body = br#"{"workload": "crc32", "chaos_panic": true}"#;
    let first = http_request(server.addr(), "POST", "/v1/run", body).expect("first");
    let second = http_request(server.addr(), "POST", "/v1/run", body).expect("second");
    assert_eq!(first.status, 500, "{}", first.body_str());
    assert_eq!(second.status, 500);
    let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
    let csv = metrics.body_str();
    assert!(csv.contains("serve.panicked,counter,,2"), "{csv}");
    assert!(!csv.contains("serve.cache."), "{csv}");
}

/// The cache is a bounded LRU: the oldest entry is evicted (and
/// counted) once capacity is exceeded, and a re-run of an evicted spec
/// is a fresh miss.
#[test]
fn the_cache_evicts_least_recently_used_entries() {
    let server = serve_with(ServeConfig {
        workers: NonZeroUsize::new(1).expect("nonzero"),
        cache_capacity: 2,
        ..ServeConfig::default()
    });
    let job = |seed: u64| {
        format!(
            r#"{{"workload": {{"synthetic": {{"buffer_words": 16, "accesses": 200, "seed": {seed}}}}}}}"#
        )
    };
    for seed in [1, 2, 3] {
        let reply =
            http_request(server.addr(), "POST", "/v1/run", job(seed).as_bytes()).expect("populate");
        assert_eq!(reply.status, 200, "{}", reply.body_str());
    }
    // Seed 1 was evicted by seed 3: a miss again (evicting seed 2).
    let _ = http_request(server.addr(), "POST", "/v1/run", job(1).as_bytes()).expect("re-run");
    // Seed 3 is still resident: a hit.
    let _ = http_request(server.addr(), "POST", "/v1/run", job(3).as_bytes()).expect("hit");
    let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
    let csv = metrics.body_str();
    assert!(csv.contains("serve.cache.miss,counter,,4"), "{csv}");
    assert!(csv.contains("serve.cache.evict,counter,,2"), "{csv}");
    assert!(csv.contains("serve.cache.hit,counter,,1"), "{csv}");
}
