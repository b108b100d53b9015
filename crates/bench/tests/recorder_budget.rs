//! Recorder budget guard (DESIGN.md §10, "Overhead budget").
//!
//! A served `"metrics": true` job attaches `Recorder::recovery_only(256)`
//! to its mapped run. The recorder keeps its per-access counters in
//! plain slots, so that run must cost at most 1.3× the same run without
//! a recorder. This guard times both in-process on `susan` and `crc32`
//! (min-of-N, samples interleaved) and fails if the budget is blown
//! twice in a row.
//!
//! Timing-sensitive, so `#[ignore]`d under plain `cargo test`; ci.sh runs
//! it release-mode via `cargo test -p ftspm-bench --release -- --ignored`.

use std::time::{Duration, Instant};

use ftspm_core::mda::{run_mda, MdaOutput};
use ftspm_core::{OptimizeFor, SpmStructure};
use ftspm_harness::{profile_workload, RunBuilder, StructureKind};
use ftspm_obs::Recorder;
use ftspm_profile::Profile;
use ftspm_workloads::{find, Workload};

/// Budget: recorder-on ≤ recorder-off × 1.3.
const BUDGET: f64 = 1.3;
const SAMPLES: u32 = 7;

struct Fixture {
    w: Box<dyn Workload>,
    profile: Profile,
    structure: SpmStructure,
    mapping: MdaOutput,
}

fn fixture(kernel: &str) -> Fixture {
    let mut w = find(kernel).expect("suite kernel").build(None);
    let profile = profile_workload(w.as_mut());
    let structure = SpmStructure::ftspm();
    let mapping = run_mda(
        w.program(),
        &profile,
        &structure,
        &OptimizeFor::Reliability.thresholds(),
    );
    Fixture {
        w,
        profile,
        structure,
        mapping,
    }
}

fn time_run(fx: &mut Fixture, recorded: bool) -> Duration {
    let start = Instant::now();
    let b = RunBuilder::new()
        .workload(fx.w.as_mut())
        .structure(&fx.structure, StructureKind::Ftspm)
        .mapping(fx.mapping.clone())
        .profile(&fx.profile);
    let metrics = if recorded {
        let mut rec = Recorder::recovery_only(256);
        let metrics = b.recorder(&mut rec).run();
        assert!(!rec.into_parts().0.is_empty(), "the recorder counted");
        metrics
    } else {
        b.run()
    };
    assert!(metrics.checksum_ok, "guard runs must stay correct");
    start.elapsed()
}

/// One measurement round: (clean, recorded, ratio), each the minimum of
/// [`SAMPLES`] interleaved runs after one warm-up run apiece.
fn measure(fx: &mut Fixture) -> (Duration, Duration, f64) {
    time_run(fx, false);
    time_run(fx, true);
    let (mut clean, mut recorded) = (Duration::MAX, Duration::MAX);
    for _ in 0..SAMPLES {
        clean = clean.min(time_run(fx, false));
        recorded = recorded.min(time_run(fx, true));
    }
    (
        clean,
        recorded,
        recorded.as_secs_f64() / clean.as_secs_f64(),
    )
}

#[test]
#[ignore = "timing-sensitive; ci.sh runs it in release mode"]
fn recorder_stays_within_budget_of_a_clean_run() {
    for kernel in ["susan", "crc32"] {
        let mut fx = fixture(kernel);
        let (clean, recorded, ratio) = measure(&mut fx);
        if ratio <= BUDGET {
            continue;
        }
        // One retry absorbs a noisy round (CI neighbours, frequency
        // ramps) without letting a real regression through.
        eprintln!(
            "recorder guard: {kernel} over budget on the first round \
             (clean {clean:?}, recorded {recorded:?}, ratio {ratio:.3}); retrying"
        );
        let (clean, recorded, ratio) = measure(&mut fx);
        assert!(
            ratio <= BUDGET,
            "{kernel}: the recorder exceeds its 1.3x budget: clean {clean:?}, \
             recorded {recorded:?}, ratio {ratio:.3} (> {BUDGET})"
        );
    }
}
