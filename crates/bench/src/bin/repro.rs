//! Regenerates the paper's tables and figures from live simulation.
//!
//! ```sh
//! cargo run --release -p ftspm-bench --bin repro -- all
//! cargo run --release -p ftspm-bench --bin repro -- table2 fig5
//! ```
//!
//! Targets: `table1 table2 table3 table4 fig2 fig3 fig4 fig5 fig6 fig7
//! fig8 case-study validate dynamic crossover scrub recovery multicore
//! ablation-sizes ablation-threshold ablation-mbu ablation-interleave
//! all`. Human-readable output goes to stdout; CSV lands in `results/`.
//!
//! Observability flags (consumed by the `recovery` target):
//! `--trace <path>` writes the representative cell's structured trace
//! as chrome-trace JSON (load it in `about://tracing` or Perfetto);
//! `--metrics <path>` writes the merged sweep counters as CSV. Both
//! outputs are bit-identical at every `FTSPM_THREADS` value.
//! `--journal <path>` makes `recovery` crash-only: each completed cell
//! is durably appended to the journal, so a killed campaign rerun with
//! the same flag skips finished cells and still produces byte-identical
//! stdout and artifacts (see EXPERIMENTS.md §Crash/resume).
//!
//! The `serve` target boots the evaluation service instead of a repro
//! batch: `repro serve --addr 127.0.0.1:8437 --workers 4` listens until
//! killed (`--addr 127.0.0.1:0` picks an ephemeral port and prints it;
//! `--workers` defaults to the `FTSPM_THREADS` knob). See
//! EXPERIMENTS.md §Serving for the client-side recipe.
//!
//! The `trace` mode works with external access traces (binary
//! `FTSPMTRC` files, the format `POST /v1/traces` ingests):
//!
//! ```sh
//! repro trace record crc32 --out crc32.trc     # record a suite kernel
//! repro trace replay crc32.trc                 # replay → report JSON
//! repro trace fit crc32.trc                    # fitted model summary
//! repro trace diff crc32.trc                   # replay fixed point + refit drift
//! ```
//!
//! `trace` must be the first argument (the standalone `--trace <path>`
//! flag above is unrelated: it names the chrome-trace output of the
//! `recovery` target). See EXPERIMENTS.md §Traces for the full loop
//! against a running server.

use std::path::Path;

use ftspm_bench::{sweeps, write_result};
use ftspm_core::OptimizeFor;
use ftspm_ecc::{MbuDistribution, ProtectionScheme};
use ftspm_faults::{run_campaign, RegionImage};
use ftspm_harness::{evaluate_workload, report, RunBuilder, WorkloadEvaluation};
use ftspm_mem::Clock;
use ftspm_testkit::par;
use ftspm_workloads::{evaluation_set, CaseStudy, Workload};

struct Lazy {
    case_study: Option<WorkloadEvaluation>,
    suite: Option<Vec<WorkloadEvaluation>>,
}

impl Lazy {
    fn case_study(&mut self) -> &WorkloadEvaluation {
        if self.case_study.is_none() {
            eprintln!("[repro] evaluating the case study…");
            let mut w = CaseStudy::new();
            self.case_study = Some(evaluate_workload(&mut w, OptimizeFor::Reliability));
        }
        self.case_study.as_ref().expect("just set")
    }

    fn suite(&mut self) -> &[WorkloadEvaluation] {
        if self.suite.is_none() {
            eprintln!("[repro] evaluating the 12-workload suite on 3 structures…");
            self.suite =
                Some(RunBuilder::new().run_suite(evaluation_set(), OptimizeFor::Reliability));
        }
        self.suite.as_ref().expect("just set")
    }
}

/// Writes a result file, treating a refused filesystem as fatal — a
/// repro run whose CSV silently vanished is worse than one that stops.
fn emit(name: &str, contents: &str) {
    if let Err(e) = write_result(name, contents) {
        eprintln!("[repro] could not write results/{name}: {e}");
        std::process::exit(1);
    }
}

/// Boots the evaluation service and blocks until the process is
/// killed. Never returns: `serve` is a mode, not a batch target.
fn run_serve(addr: &str, workers: Option<usize>) -> ! {
    use ftspm_serve::{ServeConfig, Server};
    use std::num::NonZeroUsize;
    let workers = workers
        .and_then(NonZeroUsize::new)
        .unwrap_or_else(par::thread_count);
    let server = match Server::bind(
        addr,
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    ) {
        Ok(server) => server,
        Err(e) => {
            // A busy port (or refused spawn) is an operator mistake,
            // not a bug: report it and exit instead of panicking.
            eprintln!("[repro] {e}");
            std::process::exit(1);
        }
    };
    // Print the *actual* address (addr may have asked for port 0).
    println!(
        "[repro] serving FTSPM evaluation jobs on http://{}",
        server.addr()
    );
    println!("[repro] endpoints: POST /v1/run, POST /v1/batch, GET /healthz, GET /metrics");
    eprintln!("[repro] {workers} worker(s); ^C to stop");
    loop {
        std::thread::park();
    }
}

/// The `repro trace` mode: record, replay, fit, and diff external
/// access traces without a server in the loop. Exits the process.
fn run_trace_cli(args: &[String]) -> ! {
    use ftspm_serve::{JobSpec, TraceTable};
    use ftspm_trace::{fit, record, NoTraces, Tail, Trace, TraceId, WorkloadSource};
    use std::sync::Arc;

    fn die(msg: &str) -> ! {
        eprintln!("[repro] {msg}");
        std::process::exit(2);
    }

    fn load(path: &str) -> (Arc<Trace>, TraceId, Tail) {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => die(&format!("could not read {path}: {e}")),
        };
        let (trace, tail) = match Trace::decode(&bytes) {
            Ok(decoded) => decoded,
            Err(e) => die(&format!("{path} did not decode: {e}")),
        };
        if tail == Tail::Torn {
            eprintln!(
                "[repro] warning: {path} has a torn tail ({} of {} ops survive)",
                trace.decoded_ops(),
                trace.op_count
            );
        }
        (Arc::new(trace), TraceId::of(&bytes), tail)
    }

    /// Replays through the same spec path the server uses, so the
    /// printed report is the exact body `POST /v1/run` would serve.
    fn replay_body(trace: &Arc<Trace>, id: TraceId, form: &str) -> String {
        let mut table = TraceTable::new(1);
        table.insert(id, Arc::clone(trace));
        let spec = format!("{{\"workload\": {{\"{form}\": \"{id}\"}}}}");
        match JobSpec::parse(spec.as_bytes()).map(|s| s.run_with(&table)) {
            Ok(Ok(output)) => output.body,
            Ok(Err(e)) => die(&format!("replay failed: {e}")),
            Err(e) => die(&format!("replay spec rejected: {e}")),
        }
    }

    match args {
        [verb, rest @ ..] if verb == "record" => {
            let mut name = None;
            let mut seed = None;
            let mut out = None;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--seed" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                        Some(v) => seed = Some(v),
                        None => die("--seed needs an integer value"),
                    },
                    "--out" => match it.next() {
                        Some(v) => out = Some(v.clone()),
                        None => die("--out needs a path value"),
                    },
                    other if name.is_none() => name = Some(other.to_string()),
                    other => die(&format!("unexpected argument `{other}`")),
                }
            }
            let Some(name) = name else {
                die("usage: repro trace record <kernel> [--seed N] --out <path>")
            };
            let Some(out) = out else {
                die("record needs --out <path>")
            };
            let mut workload = match WorkloadSource::named(&name, seed).build(&NoTraces) {
                Ok(w) => w,
                Err(e) => die(&e.to_string()),
            };
            let trace = match record(&mut *workload) {
                Ok(trace) => trace,
                Err(e) => die(&format!("recording failed: {e}")),
            };
            let bytes = trace.encode();
            if let Err(e) = std::fs::write(&out, &bytes) {
                die(&format!("could not write {out}: {e}"));
            }
            println!(
                "[repro] recorded `{name}` → {out}: {} ops, {} bytes, trace id {}",
                trace.op_count,
                bytes.len(),
                TraceId::of(&bytes)
            );
        }
        [verb, path] if verb == "replay" => {
            let (trace, id, _) = load(path);
            println!("{}", replay_body(&trace, id, "trace"));
        }
        [verb, path] if verb == "fit" => {
            let (trace, _, _) = load(path);
            let model = fit(&trace);
            println!(
                "fit of `{}` ({} ops): {} blocks, write fraction {:.4}, \
                 mean run length {:.2}",
                trace.name,
                trace.op_count,
                model.blocks.len(),
                model.write_fraction(),
                model.mean_run_length
            );
            for (i, phase) in model.phases.iter().enumerate() {
                println!(
                    "  phase {i}: cycles {}..{}, {} accesses, write fraction {:.4}",
                    phase.start_cycle,
                    phase.end_cycle,
                    phase.accesses,
                    phase.write_fraction()
                );
            }
            println!(
                "{}",
                replay_body(&trace, TraceId::of(&trace.encode()), "fit")
            );
        }
        [verb, path] if verb == "diff" => {
            let (trace, _, tail) = load(path);
            if tail == Tail::Torn {
                die("diff needs a complete trace (torn tail)");
            }
            // Fixed point: replaying the trace and re-recording the
            // replay must reproduce the identical trace.
            let mut replayed = ftspm_trace::TraceWorkload::new(Arc::clone(&trace));
            let re_recorded = match record(&mut replayed) {
                Ok(t) => t,
                Err(e) => die(&format!("re-record failed: {e}")),
            };
            let replay_ok = re_recorded == *trace;
            // Refit drift: the model fitted to the regenerated
            // synthetic must match the source model's shape.
            let model = fit(&trace);
            let mut fitted = ftspm_trace::FittedWorkload::from_model(&trace, &model);
            let refit = match record(&mut fitted) {
                Ok(t) => fit(&Arc::new(t)),
                Err(e) => die(&format!("fitted re-record failed: {e}")),
            };
            let wf_drift = (refit.write_fraction() - model.write_fraction()).abs();
            let fit_ok = refit.blocks.len() == model.blocks.len()
                && refit.phases.len() == model.phases.len()
                && wf_drift <= 0.02;
            println!(
                "replay fixed point: {}",
                if replay_ok {
                    "ok (byte-identical)"
                } else {
                    "DIVERGED"
                }
            );
            println!(
                "refit: blocks {} vs {}, phases {} vs {}, write-fraction drift {:.4} → {}",
                refit.blocks.len(),
                model.blocks.len(),
                refit.phases.len(),
                model.phases.len(),
                wf_drift,
                if fit_ok { "ok" } else { "DRIFTED" }
            );
            if !(replay_ok && fit_ok) {
                std::process::exit(1);
            }
        }
        _ => die("usage: repro trace <record|replay|fit|diff> …"),
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "trace") {
        run_trace_cli(&args[1..]);
    }
    let mut targets: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut journal_path: Option<String> = None;
    let mut serve_addr = "127.0.0.1:8437".to_string();
    let mut serve_workers: Option<usize> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" | "--metrics" | "--journal" | "--addr" | "--workers" => {
                let Some(value) = it.next() else {
                    eprintln!("[repro] {arg} requires a value argument");
                    std::process::exit(2);
                };
                match arg.as_str() {
                    "--trace" => trace_path = Some(value),
                    "--metrics" => metrics_path = Some(value),
                    "--journal" => journal_path = Some(value),
                    "--addr" => serve_addr = value,
                    _ => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => serve_workers = Some(n),
                        _ => {
                            eprintln!("[repro] --workers needs an integer >= 1, got `{value}`");
                            std::process::exit(2);
                        }
                    },
                }
            }
            _ => targets.push(arg),
        }
    }
    if targets.iter().any(|t| t == "serve") {
        run_serve(&serve_addr, serve_workers);
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    if targets.iter().any(|t| t == "all") {
        targets = [
            "table1",
            "table2",
            "table3",
            "table4",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "case-study",
            "validate",
            "dynamic",
            "ablation-sizes",
            "ablation-threshold",
            "ablation-mbu",
            "ablation-interleave",
            "crossover",
            "scrub",
            "recovery",
            "multicore",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    let clock = Clock::default();
    let mut lazy = Lazy {
        case_study: None,
        suite: None,
    };
    for target in &targets {
        match target.as_str() {
            "table1" => {
                let e = lazy.case_study();
                println!("{}", report::table1(&e.profile));
                emit(
                    "table1.csv",
                    &ftspm_profile::ProfileTable::new(&e.profile).to_csv(),
                );
            }
            "table2" => {
                let e = lazy.case_study();
                println!("{}", report::table2(&e.ftspm.mapping));
            }
            "table3" => {
                let e = lazy.case_study();
                println!("{}", report::table3(&e.ftspm, &e.pure_stt, clock));
            }
            "table4" => println!("{}", report::table4()),
            "fig2" => {
                let e = lazy.case_study();
                println!("{}", report::fig_traffic(&e.ftspm));
            }
            "fig3" => println!("{}", report::fig3()),
            "fig4" => {
                let evals = lazy.suite();
                let mut out = String::new();
                for e in evals {
                    out.push_str(&report::fig_traffic(&e.ftspm));
                    out.push('\n');
                }
                println!("{out}");
            }
            "fig5" => {
                let evals = lazy.suite();
                println!("{}", report::fig5(evals));
            }
            "fig6" => {
                let evals = lazy.suite();
                println!("{}", report::fig6(evals));
            }
            "fig7" => {
                let evals = lazy.suite();
                println!("{}", report::fig7(evals));
            }
            "fig8" => {
                let evals = lazy.suite();
                println!("{}", report::fig8(evals, clock));
            }
            "case-study" => {
                let e = lazy.case_study();
                println!("Case-study headlines (paper §IV in parentheses):");
                println!(
                    "  FTSPM reliability    {:>6.1} %  (~86 %)",
                    e.ftspm.reliability * 100.0
                );
                println!(
                    "  baseline reliability {:>6.1} %  (~62 %)",
                    e.pure_sram.reliability * 100.0
                );
                println!(
                    "  dynamic vs SRAM      {:>6.1} %  (-44 %)",
                    (e.ftspm.spm_dynamic_pj / e.pure_sram.spm_dynamic_pj - 1.0) * 100.0
                );
                println!(
                    "  static vs SRAM       {:>6.1} %  (-56 %)\n",
                    (e.ftspm.spm_static_pj / e.pure_sram.spm_static_pj - 1.0) * 100.0
                );
            }
            "validate" => {
                println!("Fault-injection validation (1e6 strikes per scheme):");
                for scheme in ProtectionScheme::ALL {
                    let image = RegionImage::random(scheme, 2048, 0xDEAD);
                    let r = run_campaign(
                        &image,
                        MbuDistribution::default(),
                        1_000_000,
                        0xBEEF,
                        par::thread_count(),
                    );
                    println!(
                        "  {:<18} SDC {:.4}  DUE {:.4}  DRE {:.4}  SDC+DUE {:.4} (analytic {:.4})",
                        scheme.name(),
                        r.sdc_rate(),
                        r.due_rate(),
                        r.dre_rate(),
                        r.vulnerability_weight(),
                        scheme.vulnerability_weight(MbuDistribution::default()),
                    );
                }
                println!();
            }
            "dynamic" => {
                eprintln!("[repro] comparing static vs dynamic MDA on the stream workload…");
                use ftspm_core::mda::{run_mda, run_mda_dynamic};
                use ftspm_core::SpmStructure;
                use ftspm_harness::{profile_workload, StructureKind};
                use ftspm_workloads::StreamPipeline;
                let mut w = StreamPipeline::new(0x57E4);
                let profile = profile_workload(&mut w);
                let structure = SpmStructure::ftspm();
                let th = OptimizeFor::Reliability.thresholds();
                let static_mapping = run_mda(w.program(), &profile, &structure, &th);
                let dynamic_mapping = run_mda_dynamic(w.program(), &profile, &structure, &th);
                let s = RunBuilder::new()
                    .workload(&mut w)
                    .structure(&structure, StructureKind::Ftspm)
                    .mapping(static_mapping)
                    .profile(&profile)
                    .run();
                let d = RunBuilder::new()
                    .workload(&mut w)
                    .structure(&structure, StructureKind::Ftspm)
                    .mapping(dynamic_mapping)
                    .profile(&profile)
                    .run();
                println!("Dynamic SPM management (stream workload):");
                println!("  static MDA:  {} cycles", s.cycles);
                println!("  dynamic MDA: {} cycles", d.cycles);
                println!(
                    "  speedup:     {:.2}x (checksums: {} / {})\n",
                    s.cycles as f64 / d.cycles as f64,
                    s.checksum_ok,
                    d.checksum_ok
                );
            }
            "ablation-sizes" => {
                eprintln!("[repro] sweeping D-SPM size splits…");
                let mut w = CaseStudy::new();
                let rows = ftspm_harness::ablation::size_split_sweep(
                    &mut w,
                    &[(14, 1, 1), (12, 2, 2), (10, 3, 3), (8, 4, 4), (6, 5, 5)],
                    OptimizeFor::Reliability,
                );
                println!(
                    "{}",
                    ftspm_harness::ablation::render_size_split("case_study", &rows)
                );
            }
            "ablation-threshold" => {
                eprintln!("[repro] sweeping STT write thresholds…");
                let mut w = CaseStudy::new();
                let rows = ftspm_harness::ablation::write_threshold_sweep(
                    &mut w,
                    &[500, 2_000, 20_000, 100_000, 1_000_000],
                );
                println!(
                    "{}",
                    ftspm_harness::ablation::render_write_threshold("case_study", &rows)
                );
            }
            "scrub" => {
                println!("Scrubbing study — SEC-DED failure fraction vs scrub interval");
                println!("(strikes between scrubs on a 2 KiB SEC-DED region; beyond the paper)");
                let image = RegionImage::random(ProtectionScheme::SecDed, 512, 0xDEAD);
                for per_interval in [1u64, 10, 50, 200, 800] {
                    let r = ftspm_faults::run_scrub_study(
                        &image,
                        MbuDistribution::default(),
                        per_interval,
                        (40_000 / per_interval).max(10),
                        0xBEEF,
                        par::thread_count(),
                    );
                    println!(
                        "  {per_interval:>4} strikes/scrub  failure fraction {:.4}  (DUE {} SDC {} corrected {})",
                        r.failure_fraction(),
                        r.due_words,
                        r.sdc_words,
                        r.corrected_words
                    );
                }
                println!();
            }
            "recovery" => {
                eprintln!("[repro] sweeping strike rate × scrub interval on the case study…");
                let write_or_die = |path: &str, what: &str, contents: &str| {
                    if let Err(e) = std::fs::write(path, contents) {
                        eprintln!("[repro] could not write {what} to {path}: {e}");
                        std::process::exit(1);
                    }
                    eprintln!("[repro] {what} written to {path}");
                };
                // Every cell renders its artifacts and every output is
                // assembled from them; `--journal` only persists them,
                // so a `kill -9` here resumes by skipping finished
                // cells — with byte-identical output.
                let journal = journal_path.as_deref();
                let sweep =
                    match sweeps::recovery_sweep(par::thread_count(), journal.map(Path::new)) {
                        Ok(sweep) => sweep,
                        Err(e) => {
                            eprintln!("[repro] journal {}: {e}", journal.unwrap_or_default());
                            std::process::exit(1);
                        }
                    };
                if sweep.resumed > 0 {
                    eprintln!(
                        "[repro] resumed {} completed cell(s) from {}",
                        sweep.resumed,
                        journal.unwrap_or_default()
                    );
                }
                println!("Recovery overhead — strike rate × scrub interval (case study):");
                for cell in &sweep.cells {
                    println!("{}", cell.line);
                    if !cell.report.is_empty() {
                        println!("\n{}", cell.report);
                    }
                }
                emit("recovery.csv", &sweep.csv);
                if let Some(path) = &trace_path {
                    write_or_die(path, "chrome-trace JSON", sweep.trace_json());
                }
                if let Some(path) = &metrics_path {
                    write_or_die(path, "metrics CSV", &sweep.metrics_csv);
                }
            }
            "multicore" => {
                eprintln!("[repro] sweeping multi-core kernels × core counts under strikes…");
                let cells = sweeps::multicore_sweep(par::thread_count());
                println!("Multi-core sweep — shared-SPM fault propagation (beyond the paper):");
                for cell in &cells {
                    println!("{}", sweeps::multicore_line(cell));
                }
                println!();
                emit("multicore.csv", &sweeps::multicore_csv(&cells));
            }
            "crossover" => {
                eprintln!("[repro] sweeping the write fraction…");
                let rows = ftspm_harness::ablation::write_fraction_sweep(&[
                    0.0, 0.02, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80,
                ]);
                println!("{}", ftspm_harness::ablation::render_crossover(&rows));
            }
            "ablation-interleave" => {
                println!("Ablation — physical bit interleaving (SEC-DED SRAM, 1e6 strikes):");
                let image = RegionImage::random(ProtectionScheme::SecDed, 2048, 0xDEAD);
                for ways in [1u32, 2, 4, 8] {
                    let r = ftspm_faults::run_campaign_interleaved(
                        &image,
                        MbuDistribution::default(),
                        ways,
                        1_000_000,
                        0xBEEF,
                        par::thread_count(),
                    );
                    println!(
                        "  {ways}-way  SDC {:.4}  DUE {:.4}  DRE {:.4}  SDC+DUE {:.4}",
                        r.sdc_rate(),
                        r.due_rate(),
                        r.dre_rate(),
                        r.vulnerability_weight()
                    );
                }
                println!(
                    "  (interleaving rescues SEC-DED against MBU clusters at an area/routing\n\
                     \u{20}  cost the paper's baseline does not pay; STT-RAM needs neither)\n"
                );
            }
            "ablation-mbu" => {
                eprintln!("[repro] sweeping MBU distributions…");
                let mut w = CaseStudy::new();
                let rows = ftspm_harness::ablation::mbu_sweep(&mut w);
                println!(
                    "{}",
                    ftspm_harness::ablation::render_mbu("case_study", &rows)
                );
            }
            other => {
                eprintln!("[repro] unknown target `{other}` — see the module docs");
                std::process::exit(2);
            }
        }
    }
    // Always drop the machine-readable suite summary when the suite ran.
    if let Some(evals) = &lazy.suite {
        emit("suite.csv", &report::suite_csv(evals));
        println!("{}", report::summary(evals));
        eprintln!("[repro] CSV written to results/");
    }
}
