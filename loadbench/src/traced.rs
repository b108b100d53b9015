//! The traced replay: the first rounds of the same request stream, run
//! in process on one thread through each crate's public functions in the
//! order the service calls them, with a span around every call.
//!
//! Every job is also run untraced with `JobSpec::run_with`, off the
//! span clock, alternating which goes first. The decomposed body must
//! equal its bytes, and the layer times must add up to its time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ftspm_core::mda::{run_baseline, run_mda, run_mda_multicore};
use ftspm_core::SpmStructure;
use ftspm_harness::{
    try_profile_multi_workload, try_profile_workload, RunBuilder, RunMetrics, StructureKind,
};
use ftspm_obs::{MetricsRegistry, Recorder};
use ftspm_serve::http::{read_next_request, Response};
use ftspm_serve::json;
use ftspm_serve::{
    render_multi_report, render_report, CacheKey, CachedResult, JobSpec, ResultCache, TraceTable,
};
use ftspm_trace::{fit, FittedWorkload, Trace, TraceId, TraceResolver, WorkloadSource};
use ftspm_workloads::find_multicore;

use crate::served::{expected_body, upload_body};
use crate::stats::{median, quantile, Metric};
use crate::workload::{Endpoint, Inputs, Request};

/// The service's default result-cache and trace-table capacities: the
/// replay keeps its own, so hits and evictions match the served run.
const CACHE_ENTRIES: usize = 128;
const TRACE_ENTRIES: usize = 64;
/// What `JobSpec::run_with` gives a metrics job's recorder.
const RECORDER_TRACE_CAPACITY: usize = 256;
/// The reconciliation tolerance on `harness.unattributed_pct`.
pub const UNATTRIBUTED_LIMIT_PCT: f64 = 5.0;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: u64,
}

/// Records spans in memory against one clock, from which the untraced
/// reference runs are cut out.
struct Tracer {
    origin: Instant,
    excluded_ns: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    request_id: u64,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64 - self.excluded_ns
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self) {
        let id = self.open.pop().expect("a span is open");
        self.spans[id].end_ns = self.now();
    }

    fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }

    /// Runs `f` off the clock: no span sees its time.
    fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.excluded_ns += start.elapsed().as_nanos() as u64;
        value
    }
}

/// What one decomposed job reported, beside its spans.
struct JobRecord {
    span: usize,
    source: &'static str,
    sim: &'static str,
    untraced_ns: u64,
    instructions: u64,
    faults: Option<(u64, u64)>,
}

/// One replayed request.
struct RequestRecord {
    root: usize,
    class: String,
    frame_bytes: usize,
    upload_bytes: usize,
}

struct Replayer<'a> {
    inputs: &'a Inputs,
    t: Tracer,
    cache: ResultCache,
    table: TraceTable,
    registry: MetricsRegistry,
    jobs: Vec<JobRecord>,
    requests: Vec<RequestRecord>,
}

fn structure_of(kind: StructureKind) -> SpmStructure {
    match kind {
        StructureKind::Ftspm => SpmStructure::ftspm(),
        StructureKind::PureSram => SpmStructure::pure_sram(),
        StructureKind::PureStt => SpmStructure::pure_stt(),
    }
}

fn stats_of(m: &RunMetrics) -> (u64, Option<(u64, u64)>) {
    (
        m.instructions,
        m.recovery.map(|r| (r.strikes, r.recovery_cycles)),
    )
}

/// A decomposed job's body, registry, instruction count and fault
/// counters.
type Decomposed = (String, Option<MetricsRegistry>, u64, Option<(u64, u64)>);

/// `JobSpec::run_with`, one public call per layer: build, (fit),
/// profiling pass, MDA, mapped simulation, (metrics export), render.
fn decomposed(
    t: &mut Tracer,
    spec: &JobSpec,
    traces: &dyn TraceResolver,
) -> Result<Decomposed, String> {
    let structure = structure_of(spec.structure);
    let thresholds = spec.optimize.thresholds();
    let fail = |e: &dyn std::fmt::Display| format!("decomposed run: {e}");
    if let Some(cores) = spec.cores {
        let WorkloadSource::Named { name, seed } = &spec.workload else {
            return Err("a multi-core job names its kernel".to_string());
        };
        let entry = find_multicore(name).ok_or("unknown multi-core kernel")?;
        let mut workload = t.leaf("workloads.build", || entry.build(cores, *seed));
        let (profile, sharers) = t
            .leaf("profile.pass", || {
                try_profile_multi_workload(workload.as_mut(), spec.deadline_cycles)
            })
            .map_err(|e| fail(&e))?;
        let mapping = t.leaf("core.mda", || {
            let program = workload.program().clone();
            match spec.structure {
                StructureKind::Ftspm => {
                    run_mda_multicore(&program, &profile, &structure, &thresholds, &sharers)
                }
                _ => run_baseline(&program, &profile, &structure),
            }
        });
        let mut builder = RunBuilder::new()
            .workload_multi(workload.as_mut())
            .cores(cores)
            .structure(&structure, spec.structure)
            .optimize(spec.optimize)
            .profile(&profile)
            .mapping(mapping);
        if let Some(faults) = &spec.faults {
            builder = builder.faults(faults.clone());
        }
        if let Some(deadline) = spec.deadline_cycles {
            builder = builder.deadline_cycles(deadline);
        }
        return if spec.metrics {
            let mut recorder = Recorder::recovery_only(RECORDER_TRACE_CAPACITY);
            let metrics = t
                .leaf("sim.run", || {
                    builder.recorder(&mut recorder).try_run_multi()
                })
                .map_err(|e| fail(&e))?;
            let (registry, _) = recorder.into_parts();
            let csv = t.leaf("obs.export", || registry.to_csv());
            let body = t.leaf("serve.render", || render_multi_report(&metrics, Some(&csv)));
            let (instructions, faults) = stats_of(&metrics.base);
            Ok((body, Some(registry), instructions, faults))
        } else {
            let metrics = t
                .leaf("sim.run", || builder.try_run_multi())
                .map_err(|e| fail(&e))?;
            let body = t.leaf("serve.render", || render_multi_report(&metrics, None));
            let (instructions, faults) = stats_of(&metrics.base);
            Ok((body, None, instructions, faults))
        };
    }
    let mut workload = match &spec.workload {
        WorkloadSource::Fitted(id) => {
            let trace = traces.resolve(*id).ok_or("fit of an unknown trace")?;
            let model = t.leaf("trace.fit", || fit(&trace));
            let fitted = t.leaf("workloads.build", || {
                FittedWorkload::from_model(&trace, &model)
            });
            Box::new(fitted)
        }
        source => t
            .leaf("workloads.build", || source.build(traces))
            .map_err(|e| fail(&e))?,
    };
    let profile = t
        .leaf("profile.pass", || {
            try_profile_workload(workload.as_mut(), spec.deadline_cycles)
        })
        .map_err(|e| fail(&e))?;
    let mapping = t.leaf("core.mda", || {
        let program = workload.program().clone();
        match spec.structure {
            StructureKind::Ftspm => run_mda(&program, &profile, &structure, &thresholds),
            _ => run_baseline(&program, &profile, &structure),
        }
    });
    let mut builder = RunBuilder::new()
        .workload_boxed(workload)
        .structure(&structure, spec.structure)
        .optimize(spec.optimize)
        .profile(&profile)
        .mapping(mapping);
    if let Some(faults) = &spec.faults {
        builder = builder.faults(faults.clone());
    }
    if let Some(deadline) = spec.deadline_cycles {
        builder = builder.deadline_cycles(deadline);
    }
    if spec.metrics {
        let mut recorder = Recorder::recovery_only(RECORDER_TRACE_CAPACITY);
        let metrics = t
            .leaf("sim.run", || builder.recorder(&mut recorder).try_run())
            .map_err(|e| fail(&e))?;
        let (registry, _) = recorder.into_parts();
        let csv = t.leaf("obs.export", || registry.to_csv());
        let body = t.leaf("serve.render", || render_report(&metrics, Some(&csv)));
        let (instructions, faults) = stats_of(&metrics);
        Ok((body, Some(registry), instructions, faults))
    } else {
        let metrics = t
            .leaf("sim.run", || builder.try_run())
            .map_err(|e| fail(&e))?;
        let body = t.leaf("serve.render", || render_report(&metrics, None));
        let (instructions, faults) = stats_of(&metrics);
        Ok((body, None, instructions, faults))
    }
}

impl Replayer<'_> {
    /// One job through the cache, as the service's `run_cached` does it.
    /// Returns the body and whether it was a hit.
    fn run_cached(&mut self, spec: &JobSpec) -> Result<(String, bool), String> {
        let key = self
            .t
            .leaf("serve.cache_key", || CacheKey::of(&spec.canonical()));
        let cache = &mut self.cache;
        if let Some(hit) = self.t.leaf("serve.cache_lookup", || cache.get(key)) {
            if let Some(job_registry) = &hit.registry {
                let registry = &mut self.registry;
                self.t
                    .leaf("obs.registry_merge", || registry.merge(job_registry));
            }
            return Ok((hit.body, true));
        }
        let (body, job_registry) = self.job(spec)?;
        if let Some(job_registry) = &job_registry {
            let registry = &mut self.registry;
            self.t
                .leaf("obs.registry_merge", || registry.merge(job_registry));
        }
        let cache = &mut self.cache;
        let stored = CachedResult {
            status: 200,
            body: body.clone(),
            registry: job_registry,
        };
        self.t
            .leaf("serve.cache_insert", || cache.insert(key, stored));
        Ok((body, false))
    }

    /// Runs a job decomposed, under a `harness.job` span, and untraced
    /// beside it; checks the bodies agree byte for byte.
    fn job(&mut self, spec: &JobSpec) -> Result<(String, Option<MetricsRegistry>), String> {
        let table = &self.table;
        let untraced = |t: &mut Tracer| {
            t.untimed(|| {
                let start = Instant::now();
                let out = spec.run_with(table);
                (start.elapsed().as_nanos() as u64, out)
            })
        };
        let reference_first = self.jobs.len().is_multiple_of(2);
        let early = reference_first.then(|| untraced(&mut self.t));
        let span = self.t.enter("harness.job");
        let result = decomposed(&mut self.t, spec, table);
        self.t.exit();
        let (untraced_ns, reference) = early.unwrap_or_else(|| untraced(&mut self.t));
        let (body, job_registry, instructions, faults) = result?;
        let reference = reference.map_err(|e| format!("in-process run: {e}"))?;
        if reference.body != body {
            return Err(format!(
                "decomposed body differs from JobSpec::run_with for {}",
                spec.canonical()
            ));
        }
        self.jobs.push(JobRecord {
            span,
            source: match (&spec.workload, spec.cores) {
                (_, Some(_)) => "multicore",
                (WorkloadSource::Named { .. }, None) => "kernel",
                (WorkloadSource::Synthetic(_), None) => "synthetic",
                (WorkloadSource::Trace(_), None) => "trace",
                (WorkloadSource::Fitted(_), None) => "fit",
            },
            sim: match (spec.cores, &spec.faults) {
                (Some(_), _) => "multicore",
                (None, Some(_)) => "faulted",
                (None, None) => "clean",
            },
            untraced_ns,
            instructions,
            faults,
        });
        Ok((body, job_registry))
    }

    /// An upload, as the service's `upload_trace` handles it.
    fn upload(&mut self, body: &[u8]) -> Result<String, String> {
        let (trace, _) = self
            .t
            .leaf("trace.decode", || Trace::decode(body))
            .map_err(|e| format!("trace decode: {e}"))?;
        let id = self.t.leaf("trace.id", || TraceId::of(body));
        let (name, ops) = (trace.name.clone(), trace.op_count);
        let table = &mut self.table;
        self.t
            .leaf("trace.table_insert", || table.insert(id, trace.into()));
        Ok(upload_body(id, &name, ops))
    }

    fn request(&mut self, request: &Request<'_>) -> Result<(), String> {
        let raw = self.t.untimed(|| {
            let mut raw = format!(
                "POST {} HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: {}\r\n\r\n",
                request.endpoint.path(),
                request.body.len()
            )
            .into_bytes();
            raw.extend_from_slice(&request.body);
            raw
        });
        let root = self.t.enter("serve.request");
        let parsed = self
            .t
            .leaf("serve.http_read", || read_next_request(&mut raw.as_slice()))
            .map_err(|e| format!("http read: {e}"))?
            .ok_or("http read: empty request")?;
        let mut all_hits = true;
        let body = match request.endpoint {
            Endpoint::Traces => self.upload(&parsed.body)?,
            Endpoint::Run => {
                let doc = self
                    .t
                    .leaf("serve.json_parse", || json::parse(&parsed.body))
                    .map_err(|e| format!("json: {e}"))?;
                let spec = self
                    .t
                    .leaf("serve.job_decode", || JobSpec::from_json(&doc))
                    .map_err(|e| format!("job decode: {e}"))?;
                let (body, hit) = self.run_cached(&spec)?;
                all_hits = hit;
                body
            }
            Endpoint::Batch => {
                let doc = self
                    .t
                    .leaf("serve.json_parse", || json::parse(&parsed.body))
                    .map_err(|e| format!("json: {e}"))?;
                let items = doc.as_arr().ok_or("batch is not an array")?;
                let specs = self
                    .t
                    .leaf("serve.job_decode", || {
                        items
                            .iter()
                            .map(JobSpec::from_json)
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .map_err(|e| format!("job decode: {e}"))?;
                let mut bodies = Vec::with_capacity(specs.len());
                for spec in &specs {
                    let (body, hit) = self.run_cached(spec)?;
                    all_hits &= hit;
                    bodies.push(body);
                }
                format!("[{}]", bodies.join(","))
            }
        };
        let frame = self
            .t
            .leaf("serve.frame", || Response::json(body).render(false, false));
        self.t.exit();
        let mut class = request.endpoint.class().to_string();
        if request.endpoint != Endpoint::Traces && all_hits {
            class.push_str("/hit");
        }
        self.requests.push(RequestRecord {
            root,
            class,
            frame_bytes: frame.len(),
            upload_bytes: request.upload.map_or(0, |_| request.body.len()),
        });
        Ok(())
    }
}

/// The outcome of a traced replay.
pub struct Replay {
    pub spans: Vec<Span>,
    /// Per-layer metrics the replay alone determines.
    pub per_layer: Vec<Metric>,
    /// Per-call, per-kind and per-class breakdowns.
    pub diagnostics: Vec<Metric>,
    /// Median traced request time per request class, in microseconds.
    pub class_p50_us: BTreeMap<String, f64>,
    /// Median over batch requests of the sum of their traced job times.
    pub batch_jobs_us: Option<f64>,
    pub attempted: u64,
    pub problems: Vec<String>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Replays the first `rounds` rounds of `inputs`' stream.
pub fn replay(inputs: &Inputs, rounds: u64) -> Replay {
    let mut r = Replayer {
        inputs,
        t: Tracer {
            origin: Instant::now(),
            excluded_ns: 0,
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        },
        cache: ResultCache::new(CACHE_ENTRIES),
        table: TraceTable::new(TRACE_ENTRIES),
        registry: MetricsRegistry::new(),
        jobs: Vec::new(),
        requests: Vec::new(),
    };
    // An untimed pass over the first round warms code, caches and the
    // allocator, as the served warm-up does; otherwise the first job's
    // cold start lands on whichever of its two runs goes first.
    for request in inputs.round(0) {
        let _ = expected_body(inputs, 0, &request);
    }
    let mut problems = Vec::new();
    let mut attempted = 0;
    let per_round = inputs.workload.requests_per_round();
    'rounds: for round in 0..rounds {
        for (j, request) in r.inputs.round(round).iter().enumerate() {
            attempted += 1;
            r.t.request_id = round * per_round + j as u64;
            if let Err(problem) = r.request(request) {
                problems.push(format!("traced request {}: {problem}", r.t.request_id));
                break 'rounds;
            }
        }
    }
    let (per_layer, diagnostics, class_p50_us, batch_jobs_us) = summarise(&r, &mut problems);
    Replay {
        spans: r.t.spans,
        per_layer,
        diagnostics,
        class_p50_us,
        batch_jobs_us,
        attempted,
        problems,
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

type Summary = (Vec<Metric>, Vec<Metric>, BTreeMap<String, f64>, Option<f64>);

fn summarise(r: &Replayer<'_>, problems: &mut Vec<String>) -> Summary {
    let spans = &r.t.spans;
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += dur(s);
        }
    }
    let mut calls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut layer_self: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        calls.entry(s.name).or_default().push(us(dur(s)));
        *layer_self.entry(layer_of(s.name)).or_default() += dur(s).saturating_sub(child_ns[i]);
    }
    // Per-call means, not medians: a replay mixes calls of different
    // sizes in fixed proportions (half of `trace_ingest`'s requests are
    // 1 MB uploads), and a median of such a mix falls between the modes.
    let call_sum = |name: &str| calls.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let call_us = |name: &str| {
        calls
            .get(name)
            .map_or(0.0, |v| call_sum(name) / v.len() as f64)
    };
    let total_ns: u64 = r.requests.iter().map(|q| dur(&spans[q.root])).sum();
    let share = |layers: &[&str]| {
        let ns: u64 = layers
            .iter()
            .map(|l| layer_self.get(l).copied().unwrap_or(0))
            .sum();
        ns as f64 * 100.0 / total_ns.max(1) as f64
    };

    // Per-class request times and per-class, per-layer self times.
    let mut class_total: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut class_layer: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let ends: Vec<usize> = r
        .requests
        .iter()
        .skip(1)
        .map(|q| q.root)
        .chain([spans.len()])
        .collect();
    for (q, end) in r.requests.iter().zip(ends) {
        class_total
            .entry(&q.class)
            .or_default()
            .push(us(dur(&spans[q.root])));
        let mut per_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for i in q.root..end {
            *per_layer.entry(layer_of(spans[i].name)).or_default() +=
                dur(&spans[i]).saturating_sub(child_ns[i]);
        }
        for (layer, ns) in per_layer {
            class_layer
                .entry((&q.class, layer))
                .or_default()
                .push(us(ns));
        }
    }

    // Reconciliation: each job's layers, and its whole traced span,
    // against its untraced run, as a share of the untraced time. The
    // median over jobs keeps one pair split by a host hiccup from
    // failing the run.
    let per_job = |f: &dyn Fn(&JobRecord) -> u64| {
        let gaps: Vec<f64> = r
            .jobs
            .iter()
            .map(|j| (j.untraced_ns as f64 - f(j) as f64) * 100.0 / j.untraced_ns.max(1) as f64)
            .collect();
        if gaps.is_empty() {
            0.0
        } else {
            median(&gaps)
        }
    };
    let unattributed_pct = per_job(&|j| child_ns[j.span]);
    let trace_overhead_pct = -per_job(&|j| dur(&spans[j.span]));
    if unattributed_pct.abs() > UNATTRIBUTED_LIMIT_PCT {
        problems.push(format!(
            "the layers of a median job miss its untraced time by {unattributed_pct:.1} % \
             (limit {UNATTRIBUTED_LIMIT_PCT} %)"
        ));
    }
    let instructions: u64 = r.jobs.iter().map(|j| j.instructions).sum();
    let per_inst = |name: &str| {
        if instructions == 0 {
            0.0
        } else {
            call_sum(name) * 1e3 / instructions as f64
        }
    };
    let faulted: Vec<(u64, u64)> = r.jobs.iter().filter_map(|j| j.faults).collect();
    let fault_mean = |f: fn(&(u64, u64)) -> u64| {
        if faulted.is_empty() {
            0.0
        } else {
            faulted.iter().map(f).sum::<u64>() as f64 / faulted.len() as f64
        }
    };
    let decoded: usize = r.requests.iter().map(|q| q.upload_bytes).sum();
    let decode_us = call_sum("trace.decode");
    let frames: Vec<f64> = r.requests.iter().map(|q| q.frame_bytes as f64).collect();
    let untraced_us: Vec<f64> = r.jobs.iter().map(|j| us(j.untraced_ns)).collect();

    let per_layer = vec![
        Metric::new("serve.http_read_us", call_us("serve.http_read"), "us"),
        Metric::new("serve.json_parse_us", call_us("serve.json_parse"), "us"),
        Metric::new("serve.job_decode_us", call_us("serve.job_decode"), "us"),
        Metric::new("serve.cache_key_us", call_us("serve.cache_key"), "us"),
        Metric::new("serve.cache_lookup_us", call_us("serve.cache_lookup"), "us"),
        Metric::new("serve.render_us", call_us("serve.render"), "us"),
        Metric::new("serve.frame_us", call_us("serve.frame"), "us"),
        Metric::new(
            "serve.response_bytes",
            frames.iter().sum::<f64>() / frames.len().max(1) as f64,
            "bytes",
        ),
        Metric::new("serve.share_pct", share(&["serve"]), "%"),
        Metric::new("obs.share_pct", share(&["obs"]), "%"),
        Metric::new("workloads.build_us", call_us("workloads.build"), "us"),
        Metric::new("trace.share_pct", share(&["trace"]), "%"),
        Metric::new(
            "trace.decode_mb_per_s",
            if decode_us > 0.0 {
                decoded as f64 / decode_us
            } else {
                0.0
            },
            "MB/s",
        ),
        Metric::new("profile.pass_us", call_us("profile.pass"), "us"),
        Metric::new("profile.ns_per_inst", per_inst("profile.pass"), "ns"),
        Metric::new("profile.share_pct", share(&["profile"]), "%"),
        Metric::new("core.mda_us", call_us("core.mda"), "us"),
        Metric::new("sim.run_us", call_us("sim.run"), "us"),
        Metric::new("sim.ns_per_inst", per_inst("sim.run"), "ns"),
        Metric::new("sim.share_pct", share(&["sim"]), "%"),
        Metric::new("faults.strikes_per_job", fault_mean(|f| f.0), "count"),
        Metric::new(
            "faults.recovery_cycles_per_job",
            fault_mean(|f| f.1),
            "cycles",
        ),
        Metric::new("harness.job_us", median(&untraced_us), "us"),
        Metric::new("harness.unattributed_pct", unattributed_pct, "%"),
        Metric::new("harness.trace_overhead_pct", trace_overhead_pct, "%"),
    ];

    let mut diagnostics = Vec::new();
    for name in [
        "serve.cache_insert",
        "obs.registry_merge",
        "obs.export",
        "trace.decode",
        "trace.id",
        "trace.table_insert",
        "trace.fit",
    ] {
        if calls.contains_key(name) {
            diagnostics.push(Metric::new(format!("{name}_us"), call_us(name), "us"));
        }
    }
    let mut by_kind: BTreeMap<(&str, &str), (Vec<f64>, f64, u64)> = BTreeMap::new();
    for job in &r.jobs {
        for (i, s) in spans.iter().enumerate().skip(job.span + 1) {
            if s.parent != Some(job.span) {
                if s.start_ns >= spans[job.span].end_ns {
                    break;
                }
                continue;
            }
            let kind = match s.name {
                "workloads.build" => job.source,
                "sim.run" => job.sim,
                _ => continue,
            };
            let entry = by_kind.entry((s.name, kind)).or_default();
            entry.0.push(us(dur(&spans[i])));
            entry.1 += us(dur(&spans[i]));
            if s.name == "sim.run" {
                entry.2 += job.instructions;
            }
        }
    }
    for ((name, kind), (calls, total_us, instructions)) in &by_kind {
        diagnostics.push(Metric::new(
            format!("{name}_us.{kind}"),
            median(calls),
            "us",
        ));
        if *name == "sim.run" && *instructions > 0 {
            diagnostics.push(Metric::new(
                format!("sim.ns_per_inst.{kind}"),
                total_us * 1e3 / *instructions as f64,
                "ns",
            ));
        }
    }
    for ((class, layer), values) in &class_layer {
        diagnostics.push(Metric::new(
            format!("self.{layer}.{class}.p50"),
            median(values),
            "us",
        ));
        diagnostics.push(Metric::new(
            format!("self.{layer}.{class}.p90"),
            quantile(values, 0.9),
            "us",
        ));
    }
    for (class, values) in &class_total {
        diagnostics.push(Metric::new(
            format!("requests.{class}"),
            values.len() as f64,
            "count",
        ));
    }
    diagnostics.push(Metric::new("jobs.traced", r.jobs.len() as f64, "count"));

    let class_p50_us = class_total
        .iter()
        .map(|(class, v)| (class.to_string(), median(v)))
        .collect();
    let batch_jobs: Vec<f64> = r
        .requests
        .iter()
        .filter(|q| q.class.starts_with("batch"))
        .map(|q| {
            let root = q.root;
            r.jobs
                .iter()
                .filter(|j| spans[j.span].parent == Some(root))
                .map(|j| us(dur(&spans[j.span])))
                .sum()
        })
        .collect();
    let batch_jobs_us = (!batch_jobs.is_empty()).then(|| median(&batch_jobs));
    (per_layer, diagnostics, class_p50_us, batch_jobs_us)
}

/// The spans as JSON: `{"workload", "spans": [{name, start_ns, end_ns,
/// parent, request_id}]}`.
pub fn spans_json(workload: &str, spans: &[Span]) -> String {
    let mut s = format!("{{\"workload\": {}, \"spans\": [\n", json::escape(workload));
    for (i, span) in spans.iter().enumerate() {
        let _ = write!(
            s,
            "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request_id\": {}}}",
            json::escape(span.name),
            span.start_ns,
            span.end_ns,
            span.parent
                .map_or_else(|| "null".to_string(), |p| p.to_string()),
            span.request_id
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push_str("]}\n");
    s
}
