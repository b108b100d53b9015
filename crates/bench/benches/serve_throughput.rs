//! End-to-end service throughput: one in-process client firing jobs at
//! a live `ftspm-serve` server over loopback TCP, at a worker-pool
//! size of 1 and of `FTSPM_THREADS`. Each iteration is a full
//! request→simulate→respond round trip, so jobs/sec falls straight out
//! of the per-iteration time (the batch benches divide by the batch
//! width).
//!
//! Cases come in a 2×2 grid plus batch:
//!
//! - `run_cold` / `keepalive_run_cold`: a unique seed every iteration,
//!   so every request misses the result cache and pays the full
//!   simulate cost — on a fresh connection per request vs. one reused
//!   keep-alive connection. The gap prices connect+teardown.
//! - `run_warm` / `keepalive_run_warm`: the same spec every iteration,
//!   so after warmup every request is a cache hit — these price the
//!   HTTP+replay floor, and `keepalive_run_warm` is the fastest path
//!   the service has.
//! - `batch8_cold`: an 8-job batch of unique seeds, fanned out over
//!   the pool; the 1-vs-N gap prices the pool's parallel speedup.
//! - `sweep7_cold`: the 7 design points of one fresh workload in one
//!   batch — the 4 MDA targets, both baselines and a faulted point — at
//!   1 and 4 workers. The points share one profiling pass, so this
//!   prices that saving against `batch8_cold`'s 8 distinct workloads.

use ftspm_serve::{ServeConfig, Server};
use ftspm_testkit::par::thread_count;
use ftspm_testkit::{black_box, ephemeral_listener, http_request, BenchGroup, HttpClient};
use std::num::NonZeroUsize;

const WARMUP: u32 = 2;
const ITERS: u32 = 10;
const BATCH: usize = 8;
/// The design points of one `sweep7_cold` batch, as extra job fields.
const SWEEP: [&str; 7] = [
    r#","optimize":"reliability""#,
    r#","optimize":"performance""#,
    r#","optimize":"power""#,
    r#","optimize":"endurance""#,
    r#","structure":"pure_sram""#,
    r#","structure":"pure_stt""#,
    r#","faults":{"seed":7,"mean_cycles_between_strikes":2000.0}"#,
];

fn job_body(seed: u64) -> String {
    sweep_point(seed, "")
}

/// A job on the bench's synthetic workload, with `extra` job fields.
fn sweep_point(seed: u64, extra: &str) -> String {
    format!(
        "{{\"workload\":{{\"synthetic\":{{\"buffer_words\":64,\"accesses\":4000,\
         \"run_length\":8,\"seed\":{seed}}}}}{extra}}}"
    )
}

fn main() {
    let mut g = BenchGroup::new("serve_throughput").counts(WARMUP, ITERS);

    let nproc = thread_count().get();
    let mut pool_sizes = vec![1];
    if nproc > 1 {
        pool_sizes.push(nproc);
    }
    // Distinct seed streams per case so no cold case ever hits another
    // case's cache entries.
    let mut next_seed = 1_000_000u64;
    for workers in pool_sizes {
        let (listener, _) = ephemeral_listener();
        let server = Server::start(
            listener,
            ServeConfig {
                workers: NonZeroUsize::new(workers).expect("nonzero workers"),
                ..ServeConfig::default()
            },
        )
        .expect("boot");
        let addr = server.addr();

        g.bench(&format!("run_cold/workers_{workers}"), || {
            next_seed += 1;
            let body = job_body(next_seed);
            let reply =
                http_request(addr, "POST", "/v1/run", body.as_bytes()).expect("cold run request");
            assert_eq!(reply.status, 200);
            black_box(reply.body.len())
        });

        let warm = job_body(1);
        g.bench(&format!("run_warm/workers_{workers}"), || {
            let reply =
                http_request(addr, "POST", "/v1/run", warm.as_bytes()).expect("warm run request");
            assert_eq!(reply.status, 200);
            black_box(reply.body.len())
        });

        let mut conn = HttpClient::connect(addr).expect("keep-alive connect");
        g.bench(&format!("keepalive_run_cold/workers_{workers}"), || {
            next_seed += 1;
            let body = job_body(next_seed);
            let reply = conn
                .request("POST", "/v1/run", body.as_bytes())
                .expect("keep-alive cold request");
            assert_eq!(reply.status, 200);
            black_box(reply.body.len())
        });
        g.bench(&format!("keepalive_run_warm/workers_{workers}"), || {
            let reply = conn
                .request("POST", "/v1/run", warm.as_bytes())
                .expect("keep-alive warm request");
            assert_eq!(reply.status, 200);
            black_box(reply.body.len())
        });
        drop(conn);

        g.bench(&format!("batch{BATCH}_cold/workers_{workers}"), || {
            let jobs: Vec<String> = (0..BATCH)
                .map(|_| {
                    next_seed += 1;
                    job_body(next_seed)
                })
                .collect();
            let batch = format!("[{}]", jobs.join(","));
            let reply = http_request(addr, "POST", "/v1/batch", batch.as_bytes())
                .expect("bench batch request");
            assert_eq!(reply.status, 200);
            black_box(reply.body.len())
        });

        drop(server);
    }

    for workers in [1, 4] {
        let (listener, _) = ephemeral_listener();
        let server = Server::start(
            listener,
            ServeConfig {
                workers: NonZeroUsize::new(workers).expect("nonzero workers"),
                ..ServeConfig::default()
            },
        )
        .expect("boot");
        let addr = server.addr();
        g.bench(&format!("sweep7_cold/workers_{workers}"), || {
            next_seed += 1;
            let points: Vec<String> = SWEEP.iter().map(|p| sweep_point(next_seed, p)).collect();
            let batch = format!("[{}]", points.join(","));
            let reply = http_request(addr, "POST", "/v1/batch", batch.as_bytes())
                .expect("bench sweep request");
            assert_eq!(reply.status, 200);
            black_box(reply.body.len())
        });
        drop(server);
    }

    g.finish();
}
