//! `loadbench`: the repository benchmark.
//!
//! One process boots the FTSPM service on a loopback port, drives one of
//! four workloads through it with closed-loop keep-alive clients, checks
//! every response, and prints end-to-end metrics. `--trace 1` then
//! replays the start of the same stream in process with a span around
//! every crate call and prints per-layer metrics instead. `compare`
//! judges two sets of recorded runs against the bounds in
//! `BENCHMARK.json`. See README.md beside this file.

mod compare;
mod served;
mod stats;
mod traced;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ftspm_serve::json::escape;
use served::{SETUPS, WORKERS};
use stats::{json_num, median, metrics_json, quantile, Metric, Stamp};
use traced::Span;
use workload::Workload;

/// Discarded before the window (shortened to the window for short runs).
const WARMUP: Duration = Duration::from_secs(3);
const DEFAULT_SECONDS: u64 = 30;
const RESULTS_DIR: &str = "results/loadbench";
/// Design-sweep batches the model metrics average over: one of each
/// suite kernel, all inside the verified prefix.
const MODEL_BATCHES: usize = 13;

const USAGE: &str =
    "usage: loadbench --workload <kernels_cold|design_sweep|warm_hits|trace_ingest> \
                     --seed <u64> [--seconds <n>] [--trace <0|1>]\n       \
                     loadbench compare <dirA> <dirB>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if let [cmd, a, b] = args {
        if cmd == "compare" {
            return Ok(Command::Compare(a.clone(), b.clone()));
        }
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    }))
}

/// Everything one run measured and found.
struct Report {
    /// `BENCHMARK.json`'s `end_to_end` metrics, from the served window.
    end_to_end: Vec<Metric>,
    /// `BENCHMARK.json`'s `per_layer` metrics (traced runs only).
    per_layer: Vec<Metric>,
    /// Everything else printed and recorded.
    diagnostics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: String,
    spans: Vec<Span>,
}

/// Runs one workload: `SETUPS` set-ups, the served window, the prefix
/// verification, and with `traced` the replay of `traced_rounds` rounds.
fn run(args: &Args, traced_rounds: u64) -> Result<Report, String> {
    pin_mmap_threshold();
    let workload = args.workload;
    let seconds = Duration::from_secs(args.seconds);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let start = Instant::now();
        setup = Some(served::setup(workload, args.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    let (inputs, window) = served::serve(setup, WARMUP.min(seconds), seconds)?;
    let (verify_problems, digest) = served::verify(&inputs, &window.prefix);

    let mut problems = window.problems.clone();
    problems.extend(verify_problems.iter().cloned());
    let hit_ratio =
        window.cache_hits as f64 / (window.cache_hits + window.cache_misses).max(1) as f64;
    let hits_expected = workload == Workload::WarmHits;
    if hits_expected && (window.cache_misses > 0 || window.cache_hits == 0)
        || !hits_expected && window.cache_hits > 0
    {
        problems.push(format!(
            "cache hit ratio {hit_ratio} on {} (hits {}, misses {})",
            workload.name(),
            window.cache_hits,
            window.cache_misses
        ));
    }
    let failed = window.failed + verify_problems.len() as u64;
    let latencies: Vec<f64> = window.latencies_ms.iter().map(|(_, ms)| *ms).collect();
    // Whole-window rates and pooled quantiles. On a shared host a CPU can
    // run at half speed for tens of seconds at a time; a median of short
    // segments jumps between the two speeds, while a whole-window figure
    // moves only with the share of the window spent slow.
    let end_to_end = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("jobs_per_s", window.jobs as f64 / window.secs, "jobs/s"),
        Metric::new("latency_p50_ms", quantile(&latencies, 0.5), "ms"),
        Metric::new("peak_rss_mb", stats::peak_rss_mib(), "MiB"),
    ];
    let mut diagnostics = vec![
        // A design sweep has six or seven batches of each kernel in a
        // window, so its p90 is the host's speed during a few batches.
        Metric::new("latency_p90_ms", quantile(&latencies, 0.9), "ms"),
        Metric::new("latency_p99_ms", quantile(&latencies, 0.99), "ms"),
        Metric::new(
            "error_rate",
            failed as f64 / window.attempted.max(1) as f64,
            "failed/attempted",
        ),
        Metric::new("measured_window_s", window.secs, "s"),
        Metric::new("latency_samples", latencies.len() as f64, "count"),
        Metric::new(
            "verified_responses",
            window.prefix.iter().flatten().count() as f64,
            "count",
        ),
    ];
    if workload.all_miss() {
        diagnostics.push(Metric::new(
            "sim_minsts_per_s",
            window.instructions as f64 / 1e6 / window.secs,
            "Minst/s",
        ));
    }
    if workload == Workload::TraceIngest {
        diagnostics.push(Metric::new(
            "upload_mb_per_s",
            window.upload_bytes as f64 / 1e6 / window.secs,
            "MB/s",
        ));
    }
    if workload == Workload::DesignSweep {
        if let Some((vuln_x, energy_pct)) = served::model_ratios(&window.prefix, MODEL_BATCHES) {
            diagnostics.push(Metric::new("model_vuln_reduction_x", vuln_x, "x"));
            diagnostics.push(Metric::new("model_dyn_energy_saving_pct", energy_pct, "%"));
        }
    }

    let mut report = Report {
        end_to_end,
        per_layer: Vec::new(),
        diagnostics,
        attempted: window.attempted,
        failed,
        problems,
        digest,
        spans: Vec::new(),
    };
    if args.traced {
        let replay = traced::replay(&inputs, traced_rounds);
        let served_p50_us = |class: &str| {
            let endpoint = class.split('/').next().unwrap_or(class);
            let v: Vec<f64> = window
                .latencies_ms
                .iter()
                .filter(|(e, _)| e.class() == endpoint)
                .map(|(_, ms)| ms * 1e3)
                .collect();
            median(&v)
        };
        let class = workload.transport_class();
        let traced_p50 = replay
            .class_p50_us
            .get(class)
            .or_else(|| {
                replay
                    .class_p50_us
                    .get(class.split('/').next().unwrap_or(class))
            })
            .copied()
            .unwrap_or(f64::NAN);
        report.per_layer = replay.per_layer;
        report.per_layer.extend([
            Metric::new(
                "serve.transport_us",
                served_p50_us(class) - traced_p50,
                "us",
            ),
            Metric::new(
                "serve.requests_per_conn",
                window.attempted as f64 / window.connections.max(1) as f64,
                "count",
            ),
            Metric::new("serve.cache_hit_ratio", hit_ratio, "ratio"),
        ]);
        report.diagnostics.extend(replay.diagnostics);
        if let Some(batch_jobs_us) = replay.batch_jobs_us {
            report.diagnostics.push(Metric::new(
                "testkit.par_efficiency",
                batch_jobs_us / (served_p50_us("batch") * WORKERS as f64),
                "ratio",
            ));
        }
        report.attempted += replay.attempted;
        report.failed += replay.problems.len() as u64;
        report.problems.extend(replay.problems);
        report.spans = replay.spans;
    }
    Ok(report)
}

/// The result file: the run's metrics plus the machine and build they
/// were measured on.
fn result_json(args: &Args, report: &Report, stamp: &Stamp) -> String {
    let metrics: Vec<Metric> = report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .chain(&report.diagnostics)
        .cloned()
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"window_s\": {}, \"warmup_s\": {}, \
         \"clients\": {}, \"ftspm_threads\": {WORKERS}, \"nproc\": {}, \"cpu\": {}, \
         \"rustc\": {}, \"git_sha\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"prefix_digest\": {},\n\"metrics\": {}}}\n",
        escape(args.workload.name()),
        args.seed,
        args.traced,
        args.seconds,
        json_num(WARMUP.min(Duration::from_secs(args.seconds)).as_secs_f64()),
        args.workload.clients(),
        stamp.nproc,
        escape(&stamp.cpu),
        escape(&stamp.rustc),
        escape(&stamp.git_sha),
        report.problems.is_empty() && report.failed == 0,
        report.attempted,
        report.failed,
        escape(&report.digest),
        metrics_json(&metrics),
    )
}

fn write_results(args: &Args, report: &Report) -> Result<(), String> {
    let name = args.workload.name();
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    let suffix = if args.traced { ".traced" } else { "" };
    let path = format!("{RESULTS_DIR}/{name}.seed{}{suffix}.json", args.seed);
    std::fs::write(&path, result_json(args, report, &Stamp::collect()))
        .map_err(|e| format!("{path}: {e}"))?;
    if args.traced {
        let path = format!("{RESULTS_DIR}/{name}.spans.json");
        std::fs::write(&path, traced::spans_json(name, &report.spans))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Fixes glibc's mmap threshold at its initial 128 KiB. Left dynamic,
/// glibc raises it after the first large free, and from then on whether
/// a freed multi-MiB simulator buffer goes back to the system depends on
/// which threads' allocations interleaved: on a 2-vCPU Xeon VM
/// `peak_rss_mb` then spread 29 % between runs of `kernels_cold`;
/// pinned, about 2 %.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's documented, thread-safe setter for
    // allocator parameters; it takes two integers and touches no memory
    // of ours. `M_MMAP_THRESHOLD` (-3) with a value below its 32 MiB
    // maximum is a valid request, and a refusal (return 0) only leaves
    // the default in place.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Compare(a, b)) => {
            return match compare::compare(Path::new("BENCHMARK.json"), a.as_ref(), b.as_ref()) {
                Ok((table, agree)) => {
                    print!("{table}");
                    if agree {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("loadbench compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Err(e) => {
            eprintln!("loadbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The service sizes its executor from this; set before any thread.
    std::env::set_var("FTSPM_THREADS", WORKERS.to_string());
    let report = match run(&args, args.workload.traced_rounds()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadbench: {e}");
            return ExitCode::from(1);
        }
    };
    let name = args.workload.name();
    for m in report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .chain(&report.diagnostics)
    {
        println!("{} {name} {} {}", m.name, json_num(m.value), m.unit);
    }
    println!("prefix_digest {name} {} fnv128", report.digest);
    for problem in &report.problems {
        eprintln!("loadbench: {problem}");
    }
    if let Err(e) = write_results(&args, &report) {
        eprintln!("loadbench: {e}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let shown = if args.traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        metrics_json(shown)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspm_serve::json::{self, Json};

    /// Every workload, a one-second window and a five-round traced pass:
    /// each metric `BENCHMARK.json` names comes out finite, nothing
    /// fails, and the traced layers reconcile with the untraced runs.
    #[test]
    fn every_workload_prints_every_benchmark_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read(path).expect("BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| {
            let mut v: Vec<String> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect();
            v.sort();
            v
        };
        for workload in workload::ALL {
            let args = Args {
                workload,
                seed: 7,
                seconds: 1,
                traced: true,
            };
            let report = run(&args, 5).expect("the run completes");
            assert!(
                report.problems.is_empty(),
                "{}: {:?}",
                workload.name(),
                report.problems
            );
            assert_eq!(report.failed, 0);
            for (key, metrics) in [
                ("end_to_end", &report.end_to_end),
                ("per_layer", &report.per_layer),
            ] {
                let mut printed: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
                printed.sort();
                assert_eq!(printed, names(key), "{} {key}", workload.name());
                for m in metrics {
                    assert!(
                        m.value.is_finite(),
                        "{} {} = {}",
                        workload.name(),
                        m.name,
                        m.value
                    );
                }
            }
            let error_rate = report
                .diagnostics
                .iter()
                .find(|m| m.name == "error_rate")
                .expect("error_rate printed");
            assert_eq!(error_rate.value, 0.0);
            assert!(report
                .per_layer
                .iter()
                .any(|m| m.name == "harness.unattributed_pct"
                    && m.value.abs() <= traced::UNATTRIBUTED_LIMIT_PCT));
        }
    }
}
