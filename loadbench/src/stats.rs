//! Order statistics, named metrics, and the JSON the benchmark writes.

use std::fmt::Write as _;

use ftspm_serve::json::escape;

/// The `q` quantile of `values` by linear interpolation between order
/// statistics (`statistics.quantiles(..., method="inclusive")`); NaN
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Renders a finite number with every digit Rust's shortest round-trip
/// form gives; non-finite values, which JSON cannot carry, become null.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            escape(&m.name),
            json_num(m.value),
            escape(m.unit)
        );
    }
    s.push('}');
    s
}

/// The host memory high-water mark (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// What a result file records about the machine and build it ran on.
pub struct Stamp {
    pub git_sha: String,
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Stamp {
    pub fn collect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            // Only the checkout's own `.git`: never a repository above it.
            git_sha: command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["-V"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_the_inclusive_method() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert!(median(&[]).is_nan());
    }
}
