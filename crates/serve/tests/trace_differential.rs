//! The trace ingestion loop, pinned end to end: record a real suite
//! kernel in-process, upload the encoded trace over `POST /v1/traces`,
//! replay it through `POST /v1/run` — and the served report is
//! byte-identical to running the same trace-backed spec in-process
//! through [`JobSpec::run_with`]. The fit path gets the same
//! treatment, plus the failure surface: unknown ids answer a typed
//! 422, damaged uploads a typed 400, and re-uploads dedupe.

use std::num::NonZeroUsize;
use std::sync::Arc;

use ftspm_serve::{JobSpec, ServeConfig, Server, TraceId, TraceTable};
use ftspm_testkit::{ephemeral_listener, http_request, par};
use ftspm_trace::record;
use ftspm_workloads::registry;

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

/// Records the `bitcount` suite kernel (its encoded trace sits well
/// under the 1 MiB body cap) and returns `(encoded bytes, id)`.
fn recorded_kernel() -> (Vec<u8>, TraceId) {
    let entry = registry::find("bitcount").expect("suite kernel");
    let mut workload = entry.build(None);
    let trace = record(&mut *workload).expect("records");
    let bytes = trace.encode();
    let id = TraceId::of(&bytes);
    (bytes, id)
}

#[test]
fn uploaded_replay_is_byte_identical_to_in_process_at_any_pool_size() {
    let (bytes, id) = recorded_kernel();

    // The in-process truth: the same trace resolved from a local table.
    let mut table = TraceTable::new(4);
    let (trace, _tail) = ftspm_trace::Trace::decode(&bytes).expect("own encoding decodes");
    table.insert(id, Arc::new(trace));
    let replay_spec = format!(r#"{{"workload": {{"trace": "{id}"}}}}"#);
    let fit_spec = format!(r#"{{"workload": {{"fit": "{id}"}}, "metrics": true}}"#);
    let expected_replay = JobSpec::parse(replay_spec.as_bytes())
        .expect("decodes")
        .run_with(&table)
        .expect("replays")
        .body;
    let expected_fit = JobSpec::parse(fit_spec.as_bytes())
        .expect("decodes")
        .run_with(&table)
        .expect("fits")
        .body;

    for workers in [1, par::thread_count().get()] {
        let server = serve_at(workers);
        let upload = http_request(server.addr(), "POST", "/v1/traces", &bytes).expect("upload");
        assert_eq!(upload.status, 200, "{}", upload.body_str());
        assert!(
            upload.body_str().contains(&id.to_string()),
            "{}",
            upload.body_str()
        );
        assert!(upload.body_str().contains("\"state\":\"stored\""));

        let reply =
            http_request(server.addr(), "POST", "/v1/run", replay_spec.as_bytes()).expect("replay");
        assert_eq!(reply.status, 200, "{}", reply.body_str());
        assert_eq!(
            reply.body_str(),
            expected_replay,
            "served replay diverged from in-process (workers={workers})"
        );
        // The replayed report carries the source kernel's name and a
        // verified checksum — the replay reproduced every load the
        // recorded run observed.
        assert!(reply.body_str().contains("\"workload\":\"bitcount\""));
        assert!(reply.body_str().contains("\"checksum_ok\":true"));

        let fitted =
            http_request(server.addr(), "POST", "/v1/run", fit_spec.as_bytes()).expect("fit");
        assert_eq!(fitted.status, 200, "{}", fitted.body_str());
        assert_eq!(
            fitted.body_str(),
            expected_fit,
            "served fit diverged from in-process (workers={workers})"
        );

        let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
        let csv = metrics.body_str();
        assert!(csv.contains("trace.uploaded,counter,,1"), "{csv}");
        assert!(csv.contains("trace.replayed,counter,,1"), "{csv}");
        assert!(csv.contains("trace.fitted,counter,,1"), "{csv}");
    }
}

#[test]
fn reuploads_dedupe_and_damage_is_typed() {
    let (bytes, id) = recorded_kernel();
    let server = serve_at(2);

    let first = http_request(server.addr(), "POST", "/v1/traces", &bytes).expect("first");
    assert_eq!(first.status, 200);
    let second = http_request(server.addr(), "POST", "/v1/traces", &bytes).expect("second");
    assert_eq!(second.status, 200);
    assert!(
        second.body_str().contains("\"state\":\"exists\""),
        "{}",
        second.body_str()
    );

    // Junk bytes: typed 400, counted as a rejection.
    let junk = http_request(server.addr(), "POST", "/v1/traces", b"not a trace").expect("junk");
    assert_eq!(junk.status, 400, "{}", junk.body_str());
    assert!(junk.body_str().contains("\"kind\":\"bad_trace\""));

    // A torn tail (valid prefix, cut upload): rejected too — replay
    // needs the complete op stream.
    let torn = &bytes[..bytes.len() - 100];
    let torn = http_request(server.addr(), "POST", "/v1/traces", torn).expect("torn");
    assert_eq!(torn.status, 400, "{}", torn.body_str());

    let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
    let csv = metrics.body_str();
    assert!(csv.contains("trace.uploaded,counter,,1"), "{csv}");
    assert!(csv.contains("trace.rejected,counter,,2"), "{csv}");

    // The stored trace still resolves after the failed uploads.
    let spec = format!(r#"{{"workload": {{"trace": "{id}"}}}}"#);
    let reply = http_request(server.addr(), "POST", "/v1/run", spec.as_bytes()).expect("run");
    assert_eq!(reply.status, 200, "{}", reply.body_str());
}

#[test]
fn unknown_trace_ids_answer_422_and_are_never_cached() {
    let server = serve_at(2);
    let (bytes, id) = recorded_kernel();
    let spec = format!(r#"{{"workload": {{"trace": "{id}"}}}}"#);

    // Running before uploading: a typed 422 naming the trace.
    let miss = http_request(server.addr(), "POST", "/v1/run", spec.as_bytes()).expect("miss");
    assert_eq!(miss.status, 422, "{}", miss.body_str());
    assert!(
        miss.body_str().contains("\"kind\":\"unresolved_workload\""),
        "{}",
        miss.body_str()
    );

    // The 422 was not cached: upload the trace and the *same spec*
    // (same content address, same cache key) now runs to a report.
    let upload = http_request(server.addr(), "POST", "/v1/traces", &bytes).expect("upload");
    assert_eq!(upload.status, 200);
    let hit = http_request(server.addr(), "POST", "/v1/run", spec.as_bytes()).expect("run");
    assert_eq!(hit.status, 200, "{}", hit.body_str());

    let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
    let csv = metrics.body_str();
    assert!(csv.contains("trace.unresolved,counter,,1"), "{csv}");
    assert!(csv.contains("serve.malformed.422,counter,,1"), "{csv}");
}

/// Replay and fit elements of one uploaded trace under every structure
/// and two targets, in one batch: the replays share one profiling pass
/// and the fits another, and the served batch is still the input-order
/// concatenation of in-process `run_with` bodies — at one worker and at
/// `FTSPM_THREADS`, on the first send and on a cached second send.
#[test]
fn a_trace_sweep_batch_is_the_concatenation_of_in_process_bodies() {
    let (bytes, id) = recorded_kernel();
    let mut table = TraceTable::new(4);
    let (trace, _tail) = ftspm_trace::Trace::decode(&bytes).expect("own encoding decodes");
    table.insert(id, Arc::new(trace));
    let mut jobs = Vec::new();
    for kind in ["trace", "fit"] {
        for structure in ["ftspm", "pure_sram", "pure_stt"] {
            for optimize in ["reliability", "power"] {
                jobs.push(format!(
                    r#"{{"workload": {{"{kind}": "{id}"}}, "structure": "{structure}",
                        "optimize": "{optimize}"}}"#
                ));
            }
        }
    }
    let singles: Vec<String> = jobs
        .iter()
        .map(|body| {
            JobSpec::parse(body.as_bytes())
                .expect("decodes")
                .run_with(&table)
                .expect("runs")
                .body
        })
        .collect();
    let expected = format!("[{}]", singles.join(","));
    let batch_body = format!("[{}]", jobs.join(","));

    for workers in [1, par::thread_count().get()] {
        let server = serve_at(workers);
        let upload = http_request(server.addr(), "POST", "/v1/traces", &bytes).expect("upload");
        assert_eq!(upload.status, 200, "{}", upload.body_str());
        for send in ["first", "cached"] {
            let reply = http_request(server.addr(), "POST", "/v1/batch", batch_body.as_bytes())
                .expect("batch request");
            assert_eq!(reply.status, 200, "{}", reply.body_str());
            assert_eq!(
                reply.body_str(),
                expected,
                "trace sweep diverged (workers={workers}, {send} send)"
            );
        }
        let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
        let csv = metrics.body_str();
        assert!(csv.contains("serve.cache.hit,counter,,12"), "{csv}");
        assert!(csv.contains("trace.replayed,counter,,12"), "{csv}");
        assert!(csv.contains("trace.fitted,counter,,12"), "{csv}");
    }
}
