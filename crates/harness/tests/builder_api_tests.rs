//! The `LiveFaultOptionsBuilder` contract: `build` rejects each
//! structurally invalid field with the right typed error.

use ftspm_harness::{FaultOptionsError, LiveFaultOptions};

#[test]
fn builder_defaults_build_cleanly() {
    let opts = LiveFaultOptions::builder(7, 1_000.0)
        .build()
        .expect("defaults are valid");
    assert_eq!(opts.seed, 7);
    assert_eq!(opts.due_retry_limit, 3);
    assert_eq!(opts.scrub_interval, None);
}

#[test]
fn builder_rejects_invalid_strike_means() {
    for mean in [0.0, 0.5, -1.0, f64::NAN, f64::INFINITY] {
        assert_eq!(
            LiveFaultOptions::builder(0, mean).build().unwrap_err(),
            FaultOptionsError::InvalidStrikeMean,
            "mean={mean}"
        );
    }
}

#[test]
fn builder_rejects_zero_bounds() {
    assert_eq!(
        LiveFaultOptions::builder(0, 1_000.0)
            .due_retry_limit(0)
            .build()
            .unwrap_err(),
        FaultOptionsError::ZeroRetryLimit
    );
    assert_eq!(
        LiveFaultOptions::builder(0, 1_000.0)
            .quarantine_due_threshold(0)
            .build()
            .unwrap_err(),
        FaultOptionsError::ZeroQuarantineThreshold
    );
    assert_eq!(
        LiveFaultOptions::builder(0, 1_000.0)
            .scrub_interval(0)
            .build()
            .unwrap_err(),
        FaultOptionsError::ZeroScrubInterval
    );
    assert_eq!(
        LiveFaultOptions::builder(0, 1_000.0)
            .line_write_budget(0)
            .build()
            .unwrap_err(),
        FaultOptionsError::ZeroWriteBudget
    );
}

#[test]
fn fault_options_errors_display_the_offending_field() {
    let msg = FaultOptionsError::ZeroScrubInterval.to_string();
    assert!(msg.contains("scrub_interval"), "{msg}");
    let msg = FaultOptionsError::InvalidStrikeMean.to_string();
    assert!(msg.contains("mean_cycles_between_strikes"), "{msg}");
}

/// A supplied profiling pass carries its sharer counts: an N-core FTSPM
/// run given the pass and no mapping computes the same sharer-weighted
/// MDA mapping — and so the same report — as a run that profiles for
/// itself. A bare profile has no sharer counts, so it maps with plain
/// MDA; at least one kernel × core count here shares blocks enough for
/// that to change the mapping, which is what gives the check teeth.
#[test]
fn a_supplied_pass_keeps_sharer_weighted_mda() {
    use ftspm_harness::{try_profile_multi_workload, RunBuilder};
    use ftspm_workloads::{find_multicore, multicore_names};

    let mut weighting_mattered = false;
    for name in multicore_names() {
        let entry = find_multicore(name).expect("registered");
        for cores in [2, 4] {
            let case = format!("{name} at {cores} cores");
            let own = RunBuilder::new()
                .workload_multi(entry.build(cores, None).as_mut())
                .run_multi();
            let pass = try_profile_multi_workload(entry.build(cores, None).as_mut(), None)
                .expect("no deadline");
            let supplied = RunBuilder::new()
                .workload_multi(entry.build(cores, None).as_mut())
                .profile_pass(&pass)
                .run_multi();
            assert_eq!(format!("{own:?}"), format!("{supplied:?}"), "{case}");
            let bare = RunBuilder::new()
                .workload_multi(entry.build(cores, None).as_mut())
                .profile(&pass.0)
                .run_multi();
            weighting_mattered |= bare.base.mapping != own.base.mapping;
        }
    }
    assert!(
        weighting_mattered,
        "no case exercised sharer-weighted MDA; the check above proves nothing"
    );
}
