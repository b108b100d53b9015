//! Canonical-string goldens: the content address of a job spec is the
//! result cache's key — so its rendering is a durable format, not an
//! implementation detail. These tests pin the
//! exact bytes.
//!
//! The `WorkloadSource` redesign rebuilt the decoder on a four-variant
//! source type; the legacy two-variant renderings (named kernel,
//! inline synthetic) are pinned here byte-for-byte so every cache line
//! minted before the redesign still addresses the same work. The two new variants (`trace`, `fit`) get their own pinned
//! fragments.
//!
//! Two `"metrics": true` jobs also pin their whole response body, so
//! the real counter values a run produces are fixed across commits,
//! not only served ≡ in-process within one.

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

fn run_body(spec: &str) -> String {
    JobSpec::parse(spec.as_bytes())
        .expect("golden spec decodes")
        .run()
        .expect("golden job runs")
        .body
}

/// The full served body of `design_sweep`'s faulted point on `crc32`:
/// live single-bit strikes with metrics on. Served ≡ in-process only
/// compares the code with itself; this pins the real `access.*`,
/// `target.*`, `dma.*` and `faults.*` values, so a recorder change that
/// drops, double-counts or reorders a counter fails here.
#[test]
fn faulted_metrics_job_renders_the_pinned_body() {
    let spec = r#"{"workload":{"name":"crc32","seed":7},
                   "faults":{"seed":7,"mean_cycles_between_strikes":20000.0,
                             "mbu":[1.0,0.0,0.0,0.0]},"metrics":true}"#;
    assert_eq!(
        run_body(spec),
        concat!(
            r#"{"workload":"crc32","structure":"ftspm","cycles":431502,"instructions":248576,"#,
            r#""spm_dynamic_pj":8425488.741436977,"spm_static_pj":7542145.481466405,"#,
            r#""spm_leakage_mw":6.991527716178748,"vulnerability":0.0005222468156084858,"#,
            r#""reliability":0.9994777531843915,"stt_max_line_writes":2,"#,
            r#""stt_total_writes":2752,"stt_lines":7168,"spm_accesses":363522,"#,
            r#""checksum_ok":true,"traffic":[{"region":"I-SPM STT-RAM","reads":248576,"#,
            r#""writes":0},{"region":"D-SPM STT-RAM","reads":81920,"writes":256},"#,
            r#"{"region":"D-SPM SEC-DED SRAM","reads":1,"writes":32769},"#,
            r#"{"region":"D-SPM parity SRAM","reads":0,"writes":0}],"recovery":{"strikes":18,"#,
            r#""masked":14,"corrections":1,"due_traps":0,"due_retries":0,"sdc_escapes":0,"#,
            r#""scrub_passes":0,"scrub_corrections":0,"quarantined_lines":0,"#,
            r#""remapped_blocks":0,"recovery_cycles":0},"metrics_csv":"name,kind,bucket,"#,
            r#"value\naccess.fetch,counter,,248576\naccess.read,counter,,81921\naccess.write,"#,
            r#"counter,,33025\ndma.bursts,counter,,6\ndma.words,counter,,"#,
            r#"3264\nfaults.corrections,counter,,1\nfaults.due_retries,counter,,"#,
            r#"0\nfaults.due_traps,counter,,0\nfaults.masked,counter,,"#,
            r#"14\nfaults.quarantined_lines,counter,,0\nfaults.recovery_cycles,counter,,"#,
            r#"0\nfaults.remapped_blocks,counter,,0\nfaults.scrub_corrections,counter,,"#,
            r#"0\nfaults.scrub_passes,counter,,0\nfaults.sdc_escapes,counter,,"#,
            r#"0\nfaults.strikes,counter,,18\ntarget.spm,counter,,295682\ndma.burst_words,"#,
            r#"histogram,le_1,0\ndma.burst_words,histogram,le_8,0\ndma.burst_words,histogram,"#,
            r#"le_16,0\ndma.burst_words,histogram,le_32,0\ndma.burst_words,histogram,le_64,"#,
            r#"0\ndma.burst_words,histogram,le_128,0\ndma.burst_words,histogram,le_256,"#,
            r#"5\ndma.burst_words,histogram,+inf,1\ndma.burst_words,histogram,sum,3264\n"}"#,
        ),
    );
}

/// The full served body of a 2-core `"metrics":true` job: per-access
/// counters summed over both cores, plus the `coh.*` / `coreN.*` fold.
#[test]
fn multicore_metrics_job_renders_the_pinned_body() {
    let spec = r#"{"workload":{"name":"reduction","seed":7},"cores":2,"metrics":true}"#;
    assert_eq!(
        run_body(spec),
        concat!(
            r#"{"workload":"reduction","structure":"ftspm","cycles":19722,"instructions":1222,"#,
            r#""spm_dynamic_pj":667875.1143955926,"spm_static_pj":344717.27404619317,"#,
            r#""spm_leakage_mw":6.991527716178748,"vulnerability":0.0,"reliability":1.0,"#,
            r#""stt_max_line_writes":34,"stt_total_writes":1422,"stt_lines":7168,"#,
            r#""spm_accesses":2444,"checksum_ok":true,"traffic":[{"region":"I-SPM STT-RAM","#,
            r#""reads":1222,"writes":0},{"region":"D-SPM STT-RAM","reads":1092,"writes":130},"#,
            r#"{"region":"D-SPM SEC-DED SRAM","reads":0,"writes":0},"#,
            r#"{"region":"D-SPM parity SRAM","reads":0,"writes":0}],"recovery":null,"#,
            r#""metrics_csv":"name,kind,bucket,value\naccess.fetch,counter,,1222\naccess.read,"#,
            r#"counter,,1092\naccess.write,counter,,130\ncoh.cross_core_observations,counter,,"#,
            r#"0\ncoh.dirty_flushes,counter,,0\ncoh.downgrades,counter,,0\ncoh.invalidations,"#,
            r#"counter,,0\ncoh.remap_invalidations,counter,,0\ncoh.shared_block_faults,counter,"#,
            r#",0\ncoh.shared_fills,counter,,0\ncoh.upgrades,counter,,0\ncore0.corrections,"#,
            r#"counter,,0\ncore0.due_traps,counter,,0\ncore0.sdc_escapes,counter,,"#,
            r#"0\ncore0.shared_exposures,counter,,0\ncore1.corrections,counter,,"#,
            r#"0\ncore1.due_traps,counter,,0\ncore1.sdc_escapes,counter,,"#,
            r#"0\ncore1.shared_exposures,counter,,0\ndma.bursts,counter,,8\ndma.words,counter,,"#,
            r#"1432\ntarget.spm,counter,,2379\ndma.burst_words,histogram,le_1,"#,
            r#"0\ndma.burst_words,histogram,le_8,4\ndma.burst_words,histogram,le_16,"#,
            r#"0\ndma.burst_words,histogram,le_32,0\ndma.burst_words,histogram,le_64,"#,
            r#"0\ndma.burst_words,histogram,le_128,3\ndma.burst_words,histogram,le_256,"#,
            r#"0\ndma.burst_words,histogram,+inf,1\ndma.burst_words,histogram,sum,1432\n","#,
            r#""multicore":{"cores":2,"coherence":{"invalidations":0,"dirty_flushes":0,"#,
            r#""downgrades":0,"shared_fills":0,"upgrades":0,"remap_invalidations":0,"#,
            r#""shared_block_faults":0,"cross_core_observations":0},"#,
            r#""per_core":[{"corrections":0,"due_traps":0,"sdc_escapes":0,"#,
            r#""shared_exposures":0},{"corrections":0,"due_traps":0,"sdc_escapes":0,"#,
            r#""shared_exposures":0}],"sharer_counts":[2,2,2,1,2]}}"#,
        ),
    );
}
