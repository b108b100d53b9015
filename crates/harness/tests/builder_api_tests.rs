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
