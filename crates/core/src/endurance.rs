//! STT-RAM endurance model (Table III and Fig. 8).
//!
//! An STT-RAM cell tolerates a bounded number of writes. The SPM's
//! lifetime is limited by its *hottest* line: if the application writes
//! the hottest STT line `w` times per `c` cycles at clock `f`, the cell
//! wears out after `threshold / (w·f/c)` seconds of continuous execution.
//!
//! The paper reports this for thresholds 10¹²–10¹⁶ (Table III): a pure
//! STT-RAM SPM absorbs every write of every hot block and dies in
//! minutes-to-months, while FTSPM deports write-intensive blocks to SRAM
//! and stretches lifetime by about three orders of magnitude.

use ftspm_mem::Clock;

/// The write-cycle thresholds of the paper's Table III.
pub const TABLE_III_THRESHOLDS: [u64; 5] = [
    1_000_000_000_000,      // 1e12
    10_000_000_000_000,     // 1e13
    100_000_000_000_000,    // 1e14
    1_000_000_000_000_000,  // 1e15
    10_000_000_000_000_000, // 1e16
];

/// Lifetime of an SPM under continuous re-execution of the profiled
/// workload, in seconds.
///
/// `max_line_writes` is the hottest STT-RAM line's write count over one
/// run of `run_cycles` cycles. Returns `f64::INFINITY` when the workload
/// never writes STT-RAM (e.g. FTSPM with every write-heavy block evicted).
///
/// # Panics
///
/// Panics if `run_cycles` is zero while writes occurred.
pub fn lifetime_seconds(
    threshold_writes: u64,
    max_line_writes: u64,
    run_cycles: u64,
    clock: Clock,
) -> f64 {
    if max_line_writes == 0 {
        return f64::INFINITY;
    }
    assert!(run_cycles > 0, "a run with writes takes at least one cycle");
    let writes_per_second = max_line_writes as f64 / clock.seconds(run_cycles);
    threshold_writes as f64 / writes_per_second
}

/// Lifetime under *ideal wear levelling*: if the controller rotated
/// physical lines so writes spread uniformly (an extension the paper's
/// uniform-wear assumption gestures at), the array dies when the *total*
/// write volume reaches `threshold × lines` instead of when one hot line
/// does.
///
/// Returns `f64::INFINITY` when nothing is written.
///
/// # Panics
///
/// Panics if `lines` is zero, or if `run_cycles` is zero while writes
/// occurred.
pub fn lifetime_seconds_leveled(
    threshold_writes: u64,
    total_writes: u64,
    lines: u32,
    run_cycles: u64,
    clock: Clock,
) -> f64 {
    assert!(lines > 0, "an array has at least one line");
    if total_writes == 0 {
        return f64::INFINITY;
    }
    assert!(run_cycles > 0, "a run with writes takes at least one cycle");
    let writes_per_second = total_writes as f64 / clock.seconds(run_cycles);
    threshold_writes as f64 * f64::from(lines) / writes_per_second
}

/// Formats a duration in seconds in the paper's "~40 Minutes" style.
pub fn format_duration(seconds: f64) -> String {
    if seconds.is_infinite() {
        return "unlimited".to_string();
    }
    const MINUTE: f64 = 60.0;
    const HOUR: f64 = 60.0 * MINUTE;
    const DAY: f64 = 24.0 * HOUR;
    const MONTH: f64 = 30.44 * DAY;
    const YEAR: f64 = 365.25 * DAY;
    let (value, unit) = if seconds < MINUTE {
        (seconds, "seconds")
    } else if seconds < HOUR {
        (seconds / MINUTE, "minutes")
    } else if seconds < DAY {
        (seconds / HOUR, "hours")
    } else if seconds < MONTH {
        (seconds / DAY, "days")
    } else if seconds < YEAR {
        (seconds / MONTH, "months")
    } else {
        (seconds / YEAR, "years")
    };
    if value >= 10.0 {
        format!("~{value:.0} {unit}")
    } else {
        format!("~{value:.1} {unit}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_scales_linearly_with_threshold() {
        let clock = Clock::default();
        let l12 = lifetime_seconds(TABLE_III_THRESHOLDS[0], 1000, 1_000_000, clock);
        let l13 = lifetime_seconds(TABLE_III_THRESHOLDS[1], 1000, 1_000_000, clock);
        assert!((l13 / l12 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn hotter_lines_die_sooner() {
        let clock = Clock::default();
        let cool = lifetime_seconds(1_000_000_000_000, 10, 1_000_000, clock);
        let hot = lifetime_seconds(1_000_000_000_000, 10_000, 1_000_000, clock);
        assert!((cool / hot - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn zero_writes_is_unlimited() {
        let l = lifetime_seconds(1_000_000_000_000, 0, 1, Clock::default());
        assert!(l.is_infinite());
        assert_eq!(format_duration(l), "unlimited");
    }

    #[test]
    fn one_write_per_cycle_at_1e12_is_about_40_minutes() {
        // The paper's Table III first row: a line written every cycle at
        // 400 MHz reaches 1e12 writes in 2500 s ≈ 42 minutes.
        let clock = Clock::default();
        let l = lifetime_seconds(1_000_000_000_000, 1_000_000, 1_000_000, clock);
        assert!((l - 2500.0).abs() < 1.0, "{l}");
        assert_eq!(format_duration(l), "~42 minutes");
    }

    #[test]
    fn duration_units_span_the_table() {
        assert_eq!(format_duration(30.0), "~30 seconds");
        assert_eq!(format_duration(3600.0 * 7.0), "~7.0 hours");
        assert!(format_duration(86400.0 * 61.0).contains("months"));
        assert!(format_duration(86400.0 * 365.25 * 16.0).contains("16 years"));
    }

    #[test]
    fn leveling_never_hurts() {
        let clock = Clock::default();
        // 1000 lines, one hot line with 1000 writes out of 2000 total.
        let worst = lifetime_seconds(1_000_000_000_000, 1000, 1_000_000, clock);
        let leveled = lifetime_seconds_leveled(1_000_000_000_000, 2000, 1000, 1_000_000, clock);
        assert!(leveled > worst);
        // Gain = lines · max_line / total = 1000·1000/2000 = 500.
        assert!((leveled / worst - 500.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_wear_lives_as_long_leveled_as_worst_line() {
        // Every line written equally: levelled lifetime = worst-line
        // lifetime.
        let clock = Clock::default();
        let lines = 64u32;
        let per_line = 100u64;
        let worst = lifetime_seconds(1_000_000_000_000, per_line, 1_000_000, clock);
        let leveled = lifetime_seconds_leveled(
            1_000_000_000_000,
            per_line * u64::from(lines),
            lines,
            1_000_000,
            clock,
        );
        assert!((worst - leveled).abs() / worst < 1e-9);
    }

    #[test]
    fn leveled_zero_writes_is_unlimited() {
        assert!(lifetime_seconds_leveled(1, 0, 8, 1, Clock::default()).is_infinite());
    }
}
