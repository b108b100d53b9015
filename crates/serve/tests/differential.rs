//! The service's determinism contract, pinned differentially: for a
//! grid of workloads × seeds × fault options, the body served by
//! `POST /v1/run` is byte-identical to running the same spec in-process
//! through `JobSpec::run`, and a `POST /v1/batch` body is exactly the
//! input-order concatenation of the singles — at a worker-pool size of
//! 1 **and** at `FTSPM_THREADS`' value (the CI smoke stage runs this
//! file at both).

use std::num::NonZeroUsize;

use ftspm_harness::{try_profile_multi_workload, try_profile_workload};
use ftspm_serve::{JobRunError, JobSpec, RunError, ServeConfig, Server, WorkloadSource};
use ftspm_testkit::{ephemeral_listener, http_request, par};
use ftspm_trace::NoTraces;
use ftspm_workloads::find_multicore;

/// The job grid: named kernels and synthetic dials, seeds, clean and
/// faulted, with and without metrics.
fn job_grid() -> Vec<String> {
    let mut jobs = Vec::new();
    for seed in [1u64, 2] {
        jobs.push(format!(
            r#"{{"workload": {{"name": "crc32", "seed": {seed}}}}}"#
        ));
        jobs.push(format!(
            r#"{{"workload": {{"synthetic": {{"buffer_words": 48, "accesses": 600,
                "run_length": 8, "seed": {seed}}}}},
                "structure": "pure_sram", "optimize": "performance"}}"#
        ));
        jobs.push(format!(
            r#"{{"workload": {{"synthetic": {{"buffer_words": 32, "accesses": 400,
                "seed": {seed}}}}},
                "faults": {{"seed": {seed}, "mean_cycles_between_strikes": 2000.0,
                           "scrub_interval": 10000}},
                "metrics": true}}"#
        ));
    }
    jobs
}

fn serve_at(workers: usize) -> Server {
    let (listener, _) = ephemeral_listener();
    Server::start(
        listener,
        ServeConfig {
            workers: NonZeroUsize::new(workers).expect("nonzero workers"),
            ..ServeConfig::default()
        },
    )
    .expect("boot")
}

#[test]
fn served_run_is_byte_identical_to_in_process_at_any_pool_size() {
    let jobs = job_grid();
    let expected: Vec<String> = jobs
        .iter()
        .map(|body| {
            JobSpec::parse(body.as_bytes())
                .expect("grid job decodes")
                .run()
                .expect("grid job runs")
                .body
        })
        .collect();

    for workers in [1, par::thread_count().get()] {
        let server = serve_at(workers);
        for (body, expected) in jobs.iter().zip(&expected) {
            let reply = http_request(server.addr(), "POST", "/v1/run", body.as_bytes())
                .expect("run request");
            assert_eq!(reply.status, 200, "{}", reply.body_str());
            assert_eq!(
                reply.body_str(),
                expected,
                "served body diverged from in-process (workers={workers}, job={body})"
            );
        }
    }
}

#[test]
fn batch_is_the_input_order_concatenation_of_singles() {
    let jobs = job_grid();
    let singles: Vec<String> = jobs
        .iter()
        .map(|body| {
            JobSpec::parse(body.as_bytes())
                .expect("grid job decodes")
                .run()
                .expect("grid job runs")
                .body
        })
        .collect();
    let expected = format!("[{}]", singles.join(","));
    let batch_body = format!("[{}]", jobs.join(","));

    for workers in [1, par::thread_count().get()] {
        let server = serve_at(workers);
        let reply = http_request(server.addr(), "POST", "/v1/batch", batch_body.as_bytes())
            .expect("batch request");
        assert_eq!(reply.status, 200, "{}", reply.body_str());
        assert_eq!(
            reply.body_str(),
            expected,
            "batch body diverged at workers={workers}"
        );
    }
}

/// Re-serving the same job on the same server yields the same bytes —
/// the server holds no per-job mutable state that could leak between
/// requests.
#[test]
fn repeat_requests_are_stable() {
    let server = serve_at(2);
    let body = br#"{"workload": {"synthetic": {"buffer_words": 32, "accesses": 300, "seed": 9}},
                    "faults": {"seed": 3, "mean_cycles_between_strikes": 1500.0}}"#;
    let first = http_request(server.addr(), "POST", "/v1/run", body).expect("first");
    let second = http_request(server.addr(), "POST", "/v1/run", body).expect("second");
    assert_eq!(first.status, 200);
    assert_eq!(first.body, second.body);
}

/// The in-process body of one batch element: its report, or the typed
/// 504 object the server renders for a deadline kill.
fn in_process_body(spec: &JobSpec) -> String {
    match spec.run_with(&NoTraces) {
        Ok(output) => output.body,
        Err(JobRunError::Run(RunError::DeadlineExceeded {
            deadline_cycles,
            cycle,
        })) => format!(
            "{{\"error\":\"job exceeded its cycle deadline\",\"kind\":\"deadline\",\
             \"deadline_cycles\":{deadline_cycles},\"cycles\":{cycle}}}"
        ),
        Err(e) => panic!("sweep element failed in process: {e}"),
    }
}

/// The cycles the profiling pass of `spec`'s workload takes.
fn profile_cycles(spec: &JobSpec) -> u64 {
    let pass = match spec.cores {
        None => {
            let mut w = spec.workload.build(&NoTraces).expect("builds");
            try_profile_workload(w.as_mut(), None)
        }
        Some(cores) => {
            let WorkloadSource::Named { name, seed } = &spec.workload else {
                panic!("multi-core workloads are named");
            };
            let entry = find_multicore(name).expect("registered");
            try_profile_multi_workload(entry.build(cores, *seed).as_mut(), None).map(|p| p.0)
        }
    };
    pass.expect("no deadline").total_cycles
}

/// One design sweep over `workload` (a JSON value) with `extra` job
/// fields: the 4 targets × 3 structures, a faulted `metrics` point, a
/// duplicate, and two deadline points — one cut in the profiling pass,
/// one cut in the mapped run.
fn sweep(workload: &str, extra: &str) -> Vec<String> {
    let mut jobs = Vec::new();
    for optimize in ["reliability", "performance", "power", "endurance"] {
        for structure in ["ftspm", "pure_sram", "pure_stt"] {
            jobs.push(format!(
                r#"{{"workload": {workload}, "structure": "{structure}",
                    "optimize": "{optimize}"{extra}}}"#
            ));
        }
    }
    jobs.push(format!(
        r#"{{"workload": {workload}, "metrics": true{extra},
            "faults": {{"seed": 3, "mean_cycles_between_strikes": 2000.0,
                       "scrub_interval": 10000}}}}"#
    ));
    jobs.push(jobs[1].clone());
    let plain = format!(r#"{{"workload": {workload}{extra}}}"#);
    let pass = profile_cycles(&JobSpec::parse(plain.as_bytes()).expect("decodes"));
    for deadline in [pass / 2, pass + 1] {
        let job = format!(r#"{{"workload": {workload}, "deadline_cycles": {deadline}{extra}}}"#);
        // Both points must really be cut: the first before its pass
        // ends, the second after it (so in the mapped run).
        let Err(JobRunError::Run(RunError::DeadlineExceeded { cycle, .. })) =
            JobSpec::parse(job.as_bytes())
                .expect("decodes")
                .run_with(&NoTraces)
        else {
            panic!("deadline point ran to completion: {job}");
        };
        assert_eq!(cycle > pass, deadline > pass, "{job}");
        jobs.push(job);
    }
    jobs
}

/// Sweep-shaped batches repeat a workload across every element, so
/// their elements share one profiling pass per workload and core count.
/// The served batch must still be the input-order concatenation of the
/// in-process bodies — at one worker and at `FTSPM_THREADS`, on the
/// first send and again on a second send answered from the cache.
#[test]
fn a_sweep_batch_is_the_concatenation_of_in_process_bodies() {
    let mut jobs = sweep(r#"{"name": "crc32", "seed": 7}"#, "");
    jobs.extend(sweep(
        r#"{"synthetic": {"buffer_words": 48, "accesses": 600, "seed": 4}}"#,
        "",
    ));
    jobs.extend(sweep(r#""reduction""#, r#", "cores": 2"#));
    jobs.extend(sweep(r#""reduction""#, r#", "cores": 4"#));
    let singles: Vec<String> = jobs
        .iter()
        .map(|body| in_process_body(&JobSpec::parse(body.as_bytes()).expect("decodes")))
        .collect();
    let expected = format!("[{}]", singles.join(","));
    let batch_body = format!("[{}]", jobs.join(","));

    let cache_hits = |server: &Server| {
        let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
        metrics
            .body_str()
            .lines()
            .find_map(|l| l.strip_prefix("serve.cache.hit,counter,,"))
            .map_or(0, |n| n.parse::<usize>().expect("a count"))
    };
    for workers in [1, par::thread_count().get()] {
        let server = serve_at(workers);
        let mut hits = Vec::new();
        for send in ["first", "cached"] {
            let reply = http_request(server.addr(), "POST", "/v1/batch", batch_body.as_bytes())
                .expect("batch request");
            assert_eq!(reply.status, 200, "{}", reply.body_str());
            assert_eq!(
                reply.body_str(),
                expected,
                "sweep batch diverged (workers={workers}, {send} send)"
            );
            hits.push(cache_hits(&server));
        }
        // The second send is answered from the cache, element by
        // element (the first send's duplicate may or may not have hit,
        // depending on scheduling).
        assert_eq!(hits[1] - hits[0], jobs.len(), "workers={workers}");
    }
}
