//! Canonical-string goldens: the content address of a job spec is the
//! cache key, the async job id, and the dedupe key — so its rendering
//! is wire format, not an implementation detail. These tests pin the
//! exact bytes.
//!
//! The `WorkloadSource` redesign rebuilt the decoder on a four-variant
//! source type; the legacy two-variant renderings (named kernel,
//! inline synthetic) are pinned here byte-for-byte so every cache line
//! and job id minted before the redesign still addresses the same
//! work. The two new variants (`trace`, `fit`) get their own pinned
//! fragments.

use ftspm_serve::JobSpec;

fn canonical(body: &str) -> String {
    JobSpec::parse(body.as_bytes())
        .expect("golden spec decodes")
        .canonical()
}

#[test]
fn legacy_named_spec_renders_the_historical_bytes() {
    // Implicit default seed: the registry default (crc32 = 0xC3C3) is
    // written out, so implicit and explicit collapse to one address.
    assert_eq!(
        canonical(r#"{"workload": "crc32"}"#),
        "w=named:crc32:50115;s=ftspm;o=Reliability;f=-;m=false;d=-;c=false"
    );
    assert_eq!(
        canonical(r#"{"workload": {"name": "crc32", "seed": 50115}}"#),
        "w=named:crc32:50115;s=ftspm;o=Reliability;f=-;m=false;d=-;c=false"
    );
    // A seedless kernel renders `-` where the seed would go.
    assert_eq!(
        canonical(r#"{"workload": "case_study"}"#),
        "w=named:case_study:-;s=ftspm;o=Reliability;f=-;m=false;d=-;c=false"
    );
}

#[test]
fn legacy_synthetic_spec_renders_the_historical_bytes() {
    assert_eq!(
        canonical(
            r#"{"workload": {"synthetic": {"write_fraction": 0.5, "buffer_words": 64,
                                           "accesses": 1000, "run_length": 4, "seed": 3}}}"#
        ),
        "w=synthetic:0.5:64:1000:4:3;s=ftspm;o=Reliability;f=-;m=false;d=-;c=false"
    );
    // Defaults fill in; the float renders shortest-roundtrip.
    assert_eq!(
        canonical(r#"{"workload": {"synthetic": {}}}"#),
        "w=synthetic:0.2:512:40000:16:24301;s=ftspm;o=Reliability;f=-;m=false;d=-;c=false"
    );
}

#[test]
fn legacy_dial_tail_renders_the_historical_bytes() {
    assert_eq!(
        canonical(
            r#"{"workload": "sha", "structure": "pure_sram", "optimize": "endurance",
                "metrics": true, "deadline_cycles": 123456,
                "faults": {"seed": 9, "mean_cycles_between_strikes": 2500.0,
                           "scrub_interval": 10000, "due_retry_limit": 2,
                           "quarantine_due_threshold": 4, "line_write_budget": 777,
                           "restrict_to": ["data_ecc", "data_parity"],
                           "mbu": [0.7, 0.2, 0.05, 0.05]}}"#
        ),
        "w=named:sha:21665;s=pure_sram;o=Endurance;\
         f=9:2500.0:10000:2:4:777:data_ecc+data_parity:0.7+0.2+0.05+0.05:false;\
         m=true;d=123456;c=false"
    );
}

#[test]
fn trace_backed_specs_render_their_fragments() {
    let id = "00112233445566778899aabbccddeeff";
    assert_eq!(
        canonical(&format!(r#"{{"workload": {{"trace": "{id}"}}}}"#)),
        format!("w=trace:{id};s=ftspm;o=Reliability;f=-;m=false;d=-;c=false")
    );
    assert_eq!(
        canonical(&format!(r#"{{"workload": {{"fit": "{id}"}}}}"#)),
        format!("w=fitted:{id};s=ftspm;o=Reliability;f=-;m=false;d=-;c=false")
    );
    // Replay and fit of the same trace are different work: different
    // fragments, different cache lines.
    assert_ne!(
        canonical(&format!(r#"{{"workload": {{"trace": "{id}"}}}}"#)),
        canonical(&format!(r#"{{"workload": {{"fit": "{id}"}}}}"#))
    );
}

fn profile_key(body: &str) -> Option<String> {
    JobSpec::parse(body.as_bytes())
        .expect("golden spec decodes")
        .profile_key()
}

/// The profile key — what a `/v1/batch` shares one profiling pass by —
/// is the workload fragment of the canonical string plus the core
/// count: everything the pass reads, and nothing else.
#[test]
fn profile_keys_render_the_pinned_bytes() {
    let id = "00112233445566778899aabbccddeeff";
    for (body, key) in [
        (
            r#"{"workload": "crc32"}"#.to_string(),
            "w=named:crc32:50115;n=1".to_string(),
        ),
        (
            r#"{"workload": "case_study"}"#.to_string(),
            "w=named:case_study:-;n=1".to_string(),
        ),
        (
            r#"{"workload": {"synthetic": {"buffer_words": 64, "accesses": 1000,
                                           "run_length": 4, "seed": 3}}}"#
                .to_string(),
            "w=synthetic:0.2:64:1000:4:3;n=1".to_string(),
        ),
        (
            format!(r#"{{"workload": {{"trace": "{id}"}}}}"#),
            format!("w=trace:{id};n=1"),
        ),
        (
            format!(r#"{{"workload": {{"fit": "{id}"}}}}"#),
            format!("w=fitted:{id};n=1"),
        ),
        (
            r#"{"workload": {"name": "reduction", "seed": 5}, "cores": 4}"#.to_string(),
            "w=named:reduction:5;n=4".to_string(),
        ),
    ] {
        assert_eq!(profile_key(&body).as_deref(), Some(key.as_str()), "{body}");
    }
}

#[test]
fn profile_keys_share_what_the_pass_ignores_and_separate_what_it_reads() {
    let base = profile_key(r#"{"workload": "crc32"}"#).expect("keyed");
    // Structure, target, faults and metrics are mapped-run dials.
    for same in [
        r#"{"workload": "crc32", "structure": "pure_stt"}"#,
        r#"{"workload": "crc32", "optimize": "power"}"#,
        r#"{"workload": "crc32", "metrics": true,
            "faults": {"seed": 9, "mean_cycles_between_strikes": 2500.0}}"#,
        // The collapses of the canonical string hold too.
        r#"{"workload": {"name": "crc32", "seed": 50115}}"#,
        r#"{"workload": "crc32", "cores": 1}"#,
    ] {
        assert_eq!(profile_key(same).as_deref(), Some(base.as_str()), "{same}");
    }
    let id = "00112233445566778899aabbccddeeff";
    for other in [
        r#"{"workload": {"name": "crc32", "seed": 1}}"#.to_string(),
        r#"{"workload": "sha"}"#.to_string(),
        r#"{"workload": {"synthetic": {}}}"#.to_string(),
        format!(r#"{{"workload": {{"trace": "{id}"}}}}"#),
        format!(r#"{{"workload": {{"fit": "{id}"}}}}"#),
        r#"{"workload": {"trace": "ffeeddccbbaa99887766554433221100"}}"#.to_string(),
    ] {
        assert_ne!(
            profile_key(&other).as_deref(),
            Some(base.as_str()),
            "{other}"
        );
    }
    assert_ne!(
        profile_key(&format!(r#"{{"workload": {{"trace": "{id}"}}}}"#)),
        profile_key(&format!(r#"{{"workload": {{"fit": "{id}"}}}}"#)),
        "replay and fit of one trace are different workloads"
    );
    // Multi-core: the registry's default seed is written out, and the
    // core count separates keys.
    let seed = ftspm_workloads::find_multicore("reduction")
        .expect("registered")
        .default_seed();
    let two = profile_key(r#"{"workload": "reduction", "cores": 2}"#).expect("keyed");
    assert_eq!(two, format!("w=named:reduction:{seed};n=2"));
    assert_eq!(
        profile_key(&format!(
            r#"{{"workload": {{"name": "reduction", "seed": {seed}}}, "cores": 2}}"#
        )),
        Some(two.clone())
    );
    assert_ne!(
        profile_key(r#"{"workload": "reduction", "cores": 4}"#),
        Some(two)
    );
}

#[test]
fn deadline_and_chaos_specs_have_no_profile_key() {
    for keyless in [
        r#"{"workload": "crc32", "deadline_cycles": 5000}"#,
        r#"{"workload": "reduction", "cores": 2, "deadline_cycles": 5000}"#,
        r#"{"workload": "crc32", "chaos_panic": true}"#,
    ] {
        assert_eq!(profile_key(keyless), None, "{keyless}");
    }
}
