//! `loadbench compare <dirA> <dirB>`: medians, quartiles and a verdict
//! per (metric, workload) between two sets of recorded runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use ftspm_serve::json::{self, Json};

use crate::stats::quantile;

/// Which way a metric improves, and by how much it may worsen.
struct Bound {
    better: String,
    /// Relative to the baseline median, or absolute when `absolute`.
    bound: Option<f64>,
    absolute: bool,
}

/// Bounds of the printed metrics that `BENCHMARK.json` does not list:
/// they apply to some workloads only, are normally zero, or (p90) spread
/// wider between runs than any bound the benchmark may set.
const DIAGNOSTIC_BOUNDS: [(&str, &str, f64, bool); 6] = [
    ("error_rate", "lower", 0.0, true),
    ("latency_p90_ms", "lower", 0.25, false),
    ("sim_minsts_per_s", "higher", 0.25, false),
    ("upload_mb_per_s", "higher", 0.25, false),
    ("model_vuln_reduction_x", "exact", 0.0, false),
    ("model_dyn_energy_saving_pct", "exact", 0.0, false),
];

fn read_json(path: &Path) -> Result<Json, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// The bounds `BENCHMARK.json` fixes, plus the diagnostic ones.
fn bounds(benchmark: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let doc = read_json(benchmark)?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            out.insert(
                name.to_string(),
                Bound {
                    better: m
                        .get("better")
                        .and_then(Json::as_str)
                        .unwrap_or("lower")
                        .to_string(),
                    bound: m.get("bound").and_then(Json::as_f64),
                    absolute: false,
                },
            );
        }
    }
    for (name, better, bound, absolute) in DIAGNOSTIC_BOUNDS {
        out.insert(
            name.to_string(),
            Bound {
                better: better.to_string(),
                bound: Some(bound),
                absolute,
            },
        );
    }
    Ok(out)
}

/// One directory's runs: `(workload, metric) → values`, and the prefix
/// digest of every `(workload, seed)`.
type Runs = (
    BTreeMap<(String, String), Vec<f64>>,
    BTreeMap<(String, u64), Vec<String>>,
);

fn load(dir: &Path) -> Result<Runs, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut digests: BTreeMap<(String, u64), Vec<String>> = BTreeMap::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".spans.json")
        })
        .collect();
    paths.sort();
    for path in paths {
        let doc = read_json(&path)?;
        let Some(workload) = doc.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
        if let (Some(seed), Some(digest)) = (
            doc.get("seed").and_then(Json::as_u64),
            doc.get("prefix_digest").and_then(Json::as_str),
        ) {
            digests
                .entry((workload.to_string(), seed))
                .or_default()
                .push(digest.to_string());
        }
    }
    Ok((values, digests))
}

/// Median and quartiles.
fn summary(v: &[f64]) -> (f64, f64, f64) {
    (quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75))
}

/// How far `b` is worse than `a` (positive = worse), as a share of `a`'s
/// median unless the bound is absolute.
fn worse_by(bound: &Bound, a: f64, b: f64) -> f64 {
    let delta = if bound.better == "higher" {
        a - b
    } else {
        b - a
    };
    if bound.absolute {
        delta
    } else {
        delta / a.abs()
    }
}

/// The verdict of choosing-metrics §6.5: a spread wider than the bound is
/// unresolved unless every run of `b` beats every run of `a`.
fn verdict(bound: &Bound, a: &[f64], b: &[f64]) -> &'static str {
    let Some(limit) = bound.bound else {
        return "-";
    };
    if bound.better == "exact" {
        let (mut a, mut b) = (a.to_vec(), b.to_vec());
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        return if a == b { "within" } else { "worse" };
    }
    let (qa1, ma, qa3) = summary(a);
    let (qb1, mb, qb3) = summary(b);
    let spread = |q1: f64, m: f64, q3: f64| {
        if bound.absolute {
            q3 - q1
        } else {
            (q3 - q1) / m.abs()
        }
    };
    let beats = |x: f64, y: f64| worse_by(bound, y, x) < 0.0;
    if spread(qa1, ma, qa3).max(spread(qb1, mb, qb3)) > limit {
        let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
        return if all_better { "better" } else { "unresolved" };
    }
    let w = worse_by(bound, ma, mb);
    if w > limit {
        "worse"
    } else if w < -limit {
        "better"
    } else {
        "within"
    }
}

/// Compares the runs recorded in `a` (the baseline) with those in `b`.
///
/// # Errors
///
/// An unreadable directory, result file or `BENCHMARK.json`.
pub fn compare(benchmark: &Path, a: &Path, b: &Path) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark)?;
    let (values_a, digests_a) = load(a)?;
    let (values_b, digests_b) = load(b)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<30} {:<13} {:>27} {:>27} {:>8} {:>7}  verdict",
        "metric", "workload", "A median [q1, q3] n", "B median [q1, q3] n", "delta", "bound"
    );
    let mut agree = true;
    for ((workload, metric), va) in &values_a {
        let Some(vb) = values_b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(bound) = bounds.get(metric) else {
            continue;
        };
        let (qa1, ma, qa3) = summary(va);
        let (qb1, mb, qb3) = summary(vb);
        let v = verdict(bound, va, vb);
        agree &= v == "within" || v == "-";
        let side = |q1: f64, m: f64, q3: f64, n: usize| format!("{m:.4} [{q1:.4}, {q3:.4}] {n}");
        let limit = bound.bound.map_or_else(
            || "-".to_string(),
            |l| {
                if bound.absolute {
                    format!("+{l}")
                } else {
                    format!("{:.0}%", l * 100.0)
                }
            },
        );
        let delta = if bound.absolute {
            format!("{:+.4}", worse_by(bound, ma, mb))
        } else if ma == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", (mb - ma) * 100.0 / ma.abs())
        };
        let _ = writeln!(
            out,
            "{metric:<30} {workload:<13} {:>27} {:>27} {delta:>8} {limit:>7}  {v}",
            side(qa1, ma, qa3, va.len()),
            side(qb1, mb, qb3, vb.len()),
        );
    }
    let mut all_digests = digests_a;
    for (key, d) in digests_b {
        all_digests.entry(key).or_default().extend(d);
    }
    for ((workload, seed), mut digests) in all_digests {
        digests.sort();
        digests.dedup();
        let same = digests.len() == 1;
        agree &= same;
        let _ = writeln!(
            out,
            "prefix_digest {workload} seed {seed}: {}",
            if same { "identical" } else { "DIFFERS" }
        );
    }
    Ok((out, agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(better: &str, limit: f64) -> Bound {
        Bound {
            better: better.to_string(),
            bound: Some(limit),
            absolute: false,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = bound("lower", 0.1);
        assert_eq!(
            verdict(&lower, &[10.0, 10.1, 9.9], &[10.2, 10.3, 10.1]),
            "within"
        );
        assert_eq!(
            verdict(&lower, &[10.0, 10.1, 9.9], &[12.0, 12.1, 11.9]),
            "worse"
        );
        assert_eq!(
            verdict(&lower, &[10.0, 10.1, 9.9], &[8.0, 8.1, 7.9]),
            "better"
        );
        // Wider than the bound: unresolved, unless every run is better.
        assert_eq!(
            verdict(&lower, &[5.0, 10.0, 15.0], &[6.0, 10.0, 14.0]),
            "unresolved"
        );
        assert_eq!(
            verdict(&lower, &[5.0, 10.0, 15.0], &[1.0, 2.0, 3.0]),
            "better"
        );
        let higher = bound("higher", 0.1);
        assert_eq!(
            verdict(&higher, &[10.0, 10.0, 10.0], &[12.0, 12.0, 12.0]),
            "better"
        );
        let exact = bound("exact", 0.0);
        assert_eq!(verdict(&exact, &[7.2, 7.3], &[7.3, 7.2]), "within");
        assert_eq!(verdict(&exact, &[7.2, 7.3], &[7.3, 7.4]), "worse");
    }
}
