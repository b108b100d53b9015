//! Job specs: the service's JSON schema, its validating decoder, and
//! the deterministic report renderer.
//!
//! A job body selects a workload — a named suite kernel, an inline
//! synthetic spec, an uploaded trace to replay (`{"trace": "<id>"}`),
//! or a synthetic fitted to one (`{"fit": "<id>"}`) — plus a
//! structure, an optimisation target, optional live fault injection,
//! and whether to attach an observability registry:
//!
//! ```json
//! {
//!   "workload": {"name": "crc32", "seed": 1234},
//!   "structure": "ftspm",
//!   "optimize": "reliability",
//!   "faults": {"seed": 7, "mean_cycles_between_strikes": 10000.0,
//!              "scrub_interval": 50000, "restrict_to": ["data_ecc"]},
//!   "metrics": true,
//!   "deadline_cycles": 100000000
//! }
//! ```
//!
//! `deadline_cycles` bounds the simulation: a job that would run past
//! its budget is cancelled at a deterministic cycle and the server
//! answers 504 with a typed body. `chaos_panic` (boolean) is the
//! documented chaos-testing hook: the job panics inside the worker and
//! the server's `catch_unwind` isolation must turn it into a typed 500.
//!
//! The decoder is strict: unknown fields, wrong types, fractional
//! seeds, and out-of-range synthetic dials are all typed [`JobError`]s
//! — the panicking constructors downstream (`Synthetic::new`,
//! [`MbuDistribution::new`]) are only ever called on values this module
//! has already validated, so a malformed request can never take a
//! worker thread down.
//!
//! [`render_report`] is the other half of the determinism contract:
//! fields render in one fixed order, floats via Rust's
//! shortest-roundtrip formatting, so the same spec and seed produce
//! byte-identical response bodies everywhere — in-process or served,
//! at any worker-pool size.

use std::fmt;
use std::sync::OnceLock;

use ftspm_core::{OptimizeFor, RegionRole};
use ftspm_ecc::MbuDistribution;
use ftspm_harness::{
    try_profile_multi_workload, FaultOptionsError, LiveFaultOptions, MultiRunMetrics, ProfilePass,
    RunBuilder, RunError, RunMetrics, SingleCore, StructureKind,
};
use ftspm_obs::{MetricsRegistry, Recorder};
use ftspm_sim::MAX_CORES;
use ftspm_trace::{NoTraces, SourceError, TraceId, TraceResolver, WorkloadSource};
use ftspm_workloads::multicore::MultiWorkload;
use ftspm_workloads::{find_multicore, multicore_names, SyntheticConfig};

use crate::json::{self, Json, JsonError};

/// Cap on synthetic `accesses` — a request must not be able to order an
/// unbounded amount of simulation.
pub const MAX_SYNTHETIC_ACCESSES: u32 = 10_000_000;
/// Cap on synthetic `buffer_words` (per buffer; two are allocated).
pub const MAX_SYNTHETIC_BUFFER_WORDS: u32 = 1 << 20;

/// A fully validated evaluation job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The workload to run.
    pub workload: WorkloadSource,
    /// The structure to run it on.
    pub structure: StructureKind,
    /// The MDA optimisation target.
    pub optimize: OptimizeFor,
    /// Live fault injection, if requested.
    pub faults: Option<LiveFaultOptions>,
    /// Attach a metrics registry and echo its CSV in the report.
    pub metrics: bool,
    /// Cycle budget for the run; [`JobSpec::run`] returns
    /// [`RunError::DeadlineExceeded`] (the server's 504) when exhausted.
    pub deadline_cycles: Option<u64>,
    /// Chaos-testing hook: panic inside [`JobSpec::run`] instead of
    /// running anything. The soak battery uses this to prove a worker
    /// panic becomes a typed 500 and nothing else.
    pub chaos_panic: bool,
    /// Core count for a multi-core job (`Some(n)` only for `n >= 2`; a
    /// body's `"cores": 1` is normalised away at decode because a
    /// 1-core machine is observably byte-identical to the plain one —
    /// the multicore differential battery pins that collapse).
    pub cores: Option<usize>,
}

/// Why a job body failed to decode. Shape errors map to HTTP 400;
/// [`JobError::Workload`] is the semantic rejection — a well-formed
/// body naming a workload the service does not have — and maps to 422.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The body is not a JSON document.
    Json(JsonError),
    /// The document decoded but a field is missing, unknown, of the
    /// wrong type, or out of range; the message names it.
    Spec(String),
    /// The fault options decoded but failed harness validation.
    Faults(FaultOptionsError),
    /// The workload reference is well-formed but names nothing the
    /// service can build — an unknown kernel name (the message lists
    /// the valid ones) or an unknown trace id.
    Workload(SourceError),
    /// A well-formed multi-core job the service cannot satisfy: an
    /// unknown multi-core kernel, or a core count below the kernel's
    /// minimum. Semantic, like [`JobError::Workload`] — maps to 422.
    Multicore(String),
}

impl JobError {
    /// The HTTP status this error answers with: 422 for a semantic
    /// workload rejection, 400 for every shape error.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            Self::Workload(_) | Self::Multicore(_) => 422,
            Self::Json(_) | Self::Spec(_) | Self::Faults(_) => 400,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(e) => write!(f, "invalid JSON: {e}"),
            Self::Spec(msg) => write!(f, "invalid job spec: {msg}"),
            Self::Faults(e) => write!(f, "invalid fault options: {e}"),
            Self::Workload(e) => write!(f, "invalid job spec: {e}"),
            Self::Multicore(msg) => write!(f, "invalid job spec: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<JsonError> for JobError {
    fn from(e: JsonError) -> Self {
        Self::Json(e)
    }
}

impl From<FaultOptionsError> for JobError {
    fn from(e: FaultOptionsError) -> Self {
        Self::Faults(e)
    }
}

fn spec_err(msg: impl Into<String>) -> JobError {
    JobError::Spec(msg.into())
}

fn u64_field(obj: &Json, field: &str) -> Result<Option<u64>, JobError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| spec_err(format!("`{field}` must be an unsigned integer"))),
    }
}

fn f64_field(obj: &Json, field: &str) -> Result<Option<f64>, JobError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| spec_err(format!("`{field}` must be a number"))),
    }
}

fn u32_field(obj: &Json, field: &str) -> Result<Option<u32>, JobError> {
    match u64_field(obj, field)? {
        None => Ok(None),
        Some(v) => u32::try_from(v)
            .map(Some)
            .map_err(|_| spec_err(format!("`{field}` exceeds u32 range"))),
    }
}

fn reject_unknown_fields(obj: &Json, known: &[&str], context: &str) -> Result<(), JobError> {
    for (key, _) in obj.as_obj().unwrap_or(&[]) {
        if !known.contains(&key.as_str()) {
            return Err(spec_err(format!("unknown {context} field `{key}`")));
        }
    }
    Ok(())
}

/// Decodes a job's `workload` JSON into the [`WorkloadSource`] it names.
/// All validation that the wire format owns — field strictness, dial
/// ranges, id syntax — happens here; what a source *means* (registry
/// lookup, trace resolution, building) lives in `WorkloadSource`.
/// Shape problems are [`JobError::Spec`]; an unknown kernel name is
/// [`JobError::Workload`], the 422.
fn decode_workload(v: &Json) -> Result<WorkloadSource, JobError> {
    match v {
        Json::Str(name) => decode_named(name, None),
        Json::Obj(_) => {
            if let Some(synth) = v.get("synthetic") {
                reject_unknown_fields(v, &["synthetic"], "workload")?;
                return decode_synthetic(synth);
            }
            if let Some(id) = v.get("trace") {
                reject_unknown_fields(v, &["trace"], "workload")?;
                return Ok(WorkloadSource::Trace(decode_trace_id(id, "trace")?));
            }
            if let Some(id) = v.get("fit") {
                reject_unknown_fields(v, &["fit"], "workload")?;
                return Ok(WorkloadSource::Fitted(decode_trace_id(id, "fit")?));
            }
            reject_unknown_fields(v, &["name", "seed"], "workload")?;
            let name = v
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| spec_err("workload object needs a string `name`"))?;
            decode_named(name, u64_field(v, "seed")?)
        }
        _ => Err(spec_err(
            "`workload` must be a kernel name, {\"name\", \"seed\"}, {\"synthetic\": ...}, \
             {\"trace\": \"<id>\"}, or {\"fit\": \"<id>\"}",
        )),
    }
}

fn decode_named(name: &str, seed: Option<u64>) -> Result<WorkloadSource, JobError> {
    let source = WorkloadSource::named(name, seed);
    match source.validate() {
        Ok(()) => Ok(source),
        // The seedless-with-seed case is a shape error (the body
        // asked for a contradiction) and keeps its historical 400.
        Err(e @ SourceError::SeededSeedless { .. }) => Err(spec_err(e.to_string())),
        Err(e) => Err(JobError::Workload(e)),
    }
}

fn decode_trace_id(v: &Json, field: &str) -> Result<TraceId, JobError> {
    v.as_str()
        .and_then(TraceId::parse)
        .ok_or_else(|| spec_err(format!("`{field}` must be a 32-hex-digit trace id")))
}

fn decode_synthetic(v: &Json) -> Result<WorkloadSource, JobError> {
    if v.as_obj().is_none() {
        return Err(spec_err("`synthetic` must be an object"));
    }
    reject_unknown_fields(
        v,
        &[
            "write_fraction",
            "buffer_words",
            "accesses",
            "run_length",
            "seed",
        ],
        "synthetic",
    )?;
    let defaults = SyntheticConfig::default();
    let write_fraction = f64_field(v, "write_fraction")?.unwrap_or(defaults.write_fraction);
    if !write_fraction.is_finite() || !(0.0..=1.0).contains(&write_fraction) {
        return Err(spec_err("`write_fraction` must be in [0, 1]"));
    }
    let buffer_words = u32_field(v, "buffer_words")?.unwrap_or(defaults.buffer_words);
    if buffer_words == 0 || buffer_words > MAX_SYNTHETIC_BUFFER_WORDS {
        return Err(spec_err(format!(
            "`buffer_words` must be in 1..={MAX_SYNTHETIC_BUFFER_WORDS}"
        )));
    }
    let accesses = u32_field(v, "accesses")?.unwrap_or(defaults.accesses);
    if accesses == 0 || accesses > MAX_SYNTHETIC_ACCESSES {
        return Err(spec_err(format!(
            "`accesses` must be in 1..={MAX_SYNTHETIC_ACCESSES}"
        )));
    }
    let run_length = u32_field(v, "run_length")?.unwrap_or(defaults.run_length);
    if run_length == 0 {
        return Err(spec_err("`run_length` must be >= 1"));
    }
    let seed = u64_field(v, "seed")?.unwrap_or(defaults.seed);
    Ok(WorkloadSource::Synthetic(SyntheticConfig {
        write_fraction,
        buffer_words,
        accesses,
        run_length,
        seed,
    }))
}

fn decode_structure(v: Option<&Json>) -> Result<StructureKind, JobError> {
    match v {
        None | Some(Json::Null) => Ok(StructureKind::Ftspm),
        Some(v) => match v.as_str() {
            Some("ftspm") => Ok(StructureKind::Ftspm),
            Some("pure_sram") => Ok(StructureKind::PureSram),
            Some("pure_stt") => Ok(StructureKind::PureStt),
            _ => Err(spec_err(
                "`structure` must be \"ftspm\", \"pure_sram\", or \"pure_stt\"",
            )),
        },
    }
}

fn decode_optimize(v: Option<&Json>) -> Result<OptimizeFor, JobError> {
    match v {
        None | Some(Json::Null) => Ok(OptimizeFor::Reliability),
        Some(v) => match v.as_str() {
            Some("reliability") => Ok(OptimizeFor::Reliability),
            Some("performance") => Ok(OptimizeFor::Performance),
            Some("power") => Ok(OptimizeFor::Power),
            Some("endurance") => Ok(OptimizeFor::Endurance),
            _ => Err(spec_err(
                "`optimize` must be \"reliability\", \"performance\", \"power\", or \"endurance\"",
            )),
        },
    }
}

fn decode_role(v: &Json) -> Result<RegionRole, JobError> {
    match v.as_str() {
        Some("instruction") => Ok(RegionRole::Instruction),
        Some("data_stt") => Ok(RegionRole::DataStt),
        Some("data_ecc") => Ok(RegionRole::DataEcc),
        Some("data_parity") => Ok(RegionRole::DataParity),
        _ => Err(spec_err(
            "`restrict_to` entries must be \"instruction\", \"data_stt\", \"data_ecc\", or \"data_parity\"",
        )),
    }
}

fn decode_faults(v: &Json) -> Result<LiveFaultOptions, JobError> {
    if v.as_obj().is_none() {
        return Err(spec_err("`faults` must be an object"));
    }
    reject_unknown_fields(
        v,
        &[
            "seed",
            "mean_cycles_between_strikes",
            "scrub_interval",
            "due_retry_limit",
            "quarantine_due_threshold",
            "line_write_budget",
            "restrict_to",
            "mbu",
        ],
        "faults",
    )?;
    let seed = u64_field(v, "seed")?.ok_or_else(|| spec_err("`faults.seed` is required"))?;
    let mean = f64_field(v, "mean_cycles_between_strikes")?
        .ok_or_else(|| spec_err("`faults.mean_cycles_between_strikes` is required"))?;
    let mut b = LiveFaultOptions::builder(seed, mean);
    if let Some(interval) = u64_field(v, "scrub_interval")? {
        b = b.scrub_interval(interval);
    }
    if let Some(limit) = u32_field(v, "due_retry_limit")? {
        b = b.due_retry_limit(limit);
    }
    if let Some(threshold) = u32_field(v, "quarantine_due_threshold")? {
        b = b.quarantine_due_threshold(threshold);
    }
    if let Some(budget) = u64_field(v, "line_write_budget")? {
        b = b.line_write_budget(budget);
    }
    match v.get("restrict_to") {
        None | Some(Json::Null) => {}
        Some(roles) => {
            let roles = roles
                .as_arr()
                .ok_or_else(|| spec_err("`restrict_to` must be an array of role names"))?;
            if roles.is_empty() {
                return Err(spec_err(
                    "`restrict_to` must not be empty (omit it for all)",
                ));
            }
            b = b.restrict_to(roles.iter().map(decode_role).collect::<Result<_, _>>()?);
        }
    }
    match v.get("mbu") {
        None | Some(Json::Null) => {}
        Some(mbu) => {
            let ps = mbu
                .as_arr()
                .filter(|a| a.len() == 4)
                .and_then(|a| a.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>())
                .ok_or_else(|| spec_err("`mbu` must be an array of 4 probabilities"))?;
            // Validate here — MbuDistribution::new panics on bad input.
            if ps.iter().any(|p| !p.is_finite() || *p < 0.0)
                || (ps.iter().sum::<f64>() - 1.0).abs() >= 1e-9
            {
                return Err(spec_err("`mbu` probabilities must be >= 0 and sum to 1"));
            }
            b = b.mbu(MbuDistribution::new(ps[0], ps[1], ps[2], ps[3]));
        }
    }
    Ok(b.build()?)
}

impl JobSpec {
    /// Decodes one job from raw body bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`JobError`] for malformed JSON or an invalid spec.
    pub fn parse(body: &[u8]) -> Result<Self, JobError> {
        Self::from_json(&json::parse(body)?)
    }

    /// Decodes one job from a parsed JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`JobError`] for anything but a complete, in-range
    /// spec: unknown fields, missing workload, wrong types, out-of-range
    /// dials, invalid fault options.
    pub fn from_json(v: &Json) -> Result<Self, JobError> {
        if v.as_obj().is_none() {
            return Err(spec_err("job must be a JSON object"));
        }
        reject_unknown_fields(
            v,
            &[
                "workload",
                "structure",
                "optimize",
                "faults",
                "metrics",
                "deadline_cycles",
                "chaos_panic",
                "cores",
            ],
            "job",
        )?;
        let cores = match u64_field(v, "cores")? {
            None => None,
            Some(n) => {
                if !(1..=MAX_CORES as u64).contains(&n) {
                    return Err(spec_err(format!("`cores` must be in 1..={MAX_CORES}")));
                }
                // 1 collapses to the plain single-core path: a 1-core
                // machine is byte-identical to it (pinned by the
                // multicore differential battery), so the two spellings
                // share one canonical address and one code path.
                (n >= 2).then_some(n as usize)
            }
        };
        let workload_json = v
            .get("workload")
            .ok_or_else(|| spec_err("`workload` is required"))?;
        let workload = match cores {
            None => decode_workload(workload_json)?,
            Some(n) => Self::multicore_workload(workload_json, n)?,
        };
        let structure = decode_structure(v.get("structure"))?;
        let optimize = decode_optimize(v.get("optimize"))?;
        let faults = match v.get("faults") {
            None | Some(Json::Null) => None,
            Some(f) => Some(decode_faults(f)?),
        };
        let metrics = match v.get("metrics") {
            None | Some(Json::Null) => false,
            Some(m) => m
                .as_bool()
                .ok_or_else(|| spec_err("`metrics` must be a boolean"))?,
        };
        let deadline_cycles = match u64_field(v, "deadline_cycles")? {
            Some(0) => return Err(spec_err("`deadline_cycles` must be >= 1 (omit for none)")),
            other => other,
        };
        let chaos_panic = match v.get("chaos_panic") {
            None | Some(Json::Null) => false,
            Some(c) => c
                .as_bool()
                .ok_or_else(|| spec_err("`chaos_panic` must be a boolean"))?,
        };
        Ok(Self {
            workload,
            structure,
            optimize,
            faults,
            metrics,
            deadline_cycles,
            chaos_panic,
            cores,
        })
    }

    /// Decodes the `workload` of a multi-core job (`cores >= 2`): a
    /// kernel name — bare string or `{"name", "seed"}` — resolved in
    /// the *multicore* registry. Synthetics and traces have no
    /// multi-core form, so anything else is a shape error.
    fn multicore_workload(v: &Json, cores: usize) -> Result<WorkloadSource, JobError> {
        let (name, seed) =
            match v {
                Json::Str(name) => (name.as_str(), None),
                Json::Obj(_) => {
                    reject_unknown_fields(v, &["name", "seed"], "workload")?;
                    let name = v
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| spec_err("workload object needs a string `name`"))?;
                    (name, u64_field(v, "seed")?)
                }
                _ => return Err(spec_err(
                    "a multi-core job's `workload` must be a kernel name or {\"name\", \"seed\"}",
                )),
            };
        let Some(entry) = find_multicore(name) else {
            let mut msg = format!("unknown multi-core kernel `{name}`; valid names: ");
            for (i, n) in multicore_names().iter().enumerate() {
                if i > 0 {
                    msg.push_str(", ");
                }
                msg.push_str(n);
            }
            return Err(JobError::Multicore(msg));
        };
        if cores < entry.min_cores() {
            return Err(JobError::Multicore(format!(
                "`{name}` needs at least {} cores, got {cores}",
                entry.min_cores()
            )));
        }
        Ok(WorkloadSource::named(name, seed))
    }

    /// Renders the decoded spec as a total, fixed-order canonical
    /// string — the result cache's content address.
    ///
    /// Canonicalisation happens on the *decoded* spec, not the raw
    /// body: whitespace, JSON field order, and defaulted fields all
    /// collapse, so `{"workload":"crc32"}` and
    /// `{"workload":{"name":"crc32","seed":49859}}` address the same
    /// cache line. Every dial that [`JobSpec::run`] reads is rendered
    /// (floats via `{:?}`, options as `-` when absent), so two specs
    /// with equal canonical strings provably produce byte-identical
    /// responses under the determinism contract.
    #[must_use]
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(192);
        s.push_str(&self.workload_fragment());
        let _ = write!(
            s,
            ";s={};o={:?}",
            structure_token(self.structure),
            self.optimize
        );
        match &self.faults {
            None => s.push_str(";f=-"),
            Some(f) => {
                let _ = write!(
                    s,
                    ";f={}:{:?}:{}:{}:{}:{}",
                    f.seed,
                    f.mean_cycles_between_strikes,
                    opt(f.scrub_interval),
                    f.due_retry_limit,
                    f.quarantine_due_threshold,
                    opt(f.line_write_budget),
                );
                match &f.restrict_to {
                    None => s.push_str(":-"),
                    Some(roles) => {
                        s.push(':');
                        for (i, role) in roles.iter().enumerate() {
                            if i > 0 {
                                s.push('+');
                            }
                            s.push_str(role_token(*role));
                        }
                    }
                }
                let _ = write!(
                    s,
                    ":{:?}+{:?}+{:?}+{:?}:{}",
                    f.mbu.p1(),
                    f.mbu.p2(),
                    f.mbu.p3(),
                    f.mbu.p4_plus(),
                    f.reference_path,
                );
            }
        }
        let _ = write!(
            s,
            ";m={};d={};c={}",
            self.metrics,
            opt(self.deadline_cycles),
            self.chaos_panic
        );
        // Appended only for true multi-core jobs: absent and `"cores": 1`
        // must collapse onto the historical single-core address.
        if let Some(cores) = self.cores {
            let _ = write!(s, ";n={cores}");
        }
        s
    }

    /// The workload's canonical fragment, `w=...`: the first field of
    /// [`canonical`](Self::canonical) and of
    /// [`profile_key`](Self::profile_key).
    fn workload_fragment(&self) -> String {
        // The fragment is rendered by the source itself and is
        // byte-compatible with the historical two-variant rendering
        // (pinned by `tests/spec_goldens.rs`), so pre-redesign cache
        // addresses and job ids survive unchanged. Multi-core jobs
        // resolve their default seed in the multicore registry instead
        // (an omitted seed and the written-out default must share one
        // cache line there too).
        match self.cores {
            None => self.workload.canonical_fragment(),
            Some(_) => {
                let WorkloadSource::Named { name, seed } = &self.workload else {
                    unreachable!("multi-core workloads are named (validated at decode)");
                };
                let seed =
                    seed.unwrap_or_else(|| find_multicore(name).expect("validated").default_seed());
                format!("w=named:{name}:{seed}")
            }
        }
    }

    /// The key of this job's profiling pass: the workload's canonical
    /// fragment plus the core count, `w=...;n=<cores>` — everything the
    /// pass reads. Specs that differ only in structure, target, faults
    /// or metrics share a key, and so can share one pass (a `/v1/batch`
    /// profiles each distinct key once). The collapses of
    /// [`canonical`](Self::canonical) hold: an omitted seed and the
    /// written-out default share a key, and so do `"cores": 1` and no
    /// `cores`.
    ///
    /// `None` — always profile for yourself — for a `deadline_cycles`
    /// spec, whose 504 reports the cycle its *own* budget cut the pass
    /// at, and for a `chaos_panic` spec, which never profiles.
    #[must_use]
    pub fn profile_key(&self) -> Option<String> {
        if self.deadline_cycles.is_some() || self.chaos_panic {
            return None;
        }
        Some(format!(
            "{};n={}",
            self.workload_fragment(),
            self.cores.unwrap_or(1)
        ))
    }

    /// Whether this job's result may be served from the cache.
    /// `chaos_panic` jobs exist to *exercise* the worker path — caching
    /// them would defeat the chaos battery's exactly-once accounting —
    /// and panics never produce a result to cache anyway.
    #[must_use]
    pub fn cacheable(&self) -> bool {
        !self.chaos_panic
    }

    /// Runs the job through the harness and renders its report,
    /// resolving any trace-backed workload with [`NoTraces`] — the
    /// entry point for trace-less specs (kernels and synthetics).
    ///
    /// # Errors
    ///
    /// [`RunError::DeadlineExceeded`] when the spec's `deadline_cycles`
    /// budget runs out; the server renders it as a 504.
    ///
    /// # Panics
    ///
    /// Panics when the spec set `chaos_panic` (the documented chaos
    /// hook; the server's `catch_unwind` isolation turns it into a
    /// 500), or when the spec names a trace — those need
    /// [`JobSpec::run_with`] and a real resolver.
    pub fn run(&self) -> Result<JobOutput, RunError> {
        match self.run_with(&NoTraces) {
            Ok(output) => Ok(output),
            Err(JobRunError::Run(e)) => Err(e),
            Err(JobRunError::Source(e)) => {
                panic!("trace-backed specs need JobSpec::run_with and a resolver: {e}")
            }
        }
    }

    /// Runs the job through the harness and renders its report,
    /// resolving trace-backed workloads through `traces`.
    ///
    /// This is the same call path whether the job arrived over HTTP or
    /// was constructed in-process — which is exactly what the
    /// differential tests pin.
    ///
    /// # Errors
    ///
    /// [`JobRunError::Source`] when the workload cannot be built (an
    /// unknown trace id above all — the server's 422), and
    /// [`JobRunError::Run`] for [`RunError::DeadlineExceeded`] (the
    /// server's 504).
    ///
    /// # Panics
    ///
    /// Panics when the spec set `chaos_panic` — the documented chaos
    /// hook; the server's `catch_unwind` isolation turns it into a 500.
    pub fn run_with(&self, traces: &dyn TraceResolver) -> Result<JobOutput, JobRunError> {
        self.run_sharing(traces, &OnceLock::new())
    }

    /// [`run_with`](Self::run_with), taking its profiling pass from
    /// `pass`: the single-flight cell of this spec's
    /// [`profile_key`](Self::profile_key), shared by the `/v1/batch`
    /// elements with that key. The first caller profiles the workload
    /// instance it built and runs that same instance; later callers
    /// build a fresh instance and run only the mapped run. A pass that
    /// panics leaves the cell empty, so the next caller profiles. A
    /// `deadline_cycles` spec profiles under its own budget — its cell
    /// is always private.
    pub(crate) fn run_sharing(
        &self,
        traces: &dyn TraceResolver,
        pass: &OnceLock<ProfilePass>,
    ) -> Result<JobOutput, JobRunError> {
        assert!(
            !self.chaos_panic,
            "chaos_panic: injected worker panic (test hook)"
        );
        let mut workload: Box<dyn MultiWorkload> = match self.cores {
            None => Box::new(SingleCore::new(self.workload.build(traces)?)),
            Some(cores) => {
                let WorkloadSource::Named { name, seed } = &self.workload else {
                    unreachable!("multi-core workloads are named (validated at decode)");
                };
                find_multicore(name)
                    .expect("validated at decode")
                    .build(cores, *seed)
            }
        };
        let pass = match self.deadline_cycles {
            Some(deadline) => {
                let own = try_profile_multi_workload(workload.as_mut(), Some(deadline))?;
                pass.get_or_init(|| own)
            }
            None => pass.get_or_init(|| {
                try_profile_multi_workload(workload.as_mut(), None)
                    .expect("a pass without a deadline is never cut")
            }),
        };
        let structure = self.structure.structure();
        let mut builder = RunBuilder::new()
            .workload_multi_boxed(workload)
            .structure(&structure, self.structure)
            .optimize(self.optimize)
            .profile_pass(pass);
        if let Some(faults) = &self.faults {
            builder = builder.faults(faults.clone());
        }
        if let Some(deadline) = self.deadline_cycles {
            builder = builder.deadline_cycles(deadline);
        }
        let (metrics, registry) = if self.metrics {
            let mut recorder = Recorder::recovery_only(256);
            let metrics = builder.recorder(&mut recorder).try_run_multi()?;
            (metrics, Some(recorder.into_parts().0))
        } else {
            (builder.try_run_multi()?, None)
        };
        let csv = registry.as_ref().map(MetricsRegistry::to_csv);
        // A multi-core job's report grows a `multicore` section.
        let body = match self.cores {
            None => render_report(&metrics.base, csv.as_deref()),
            Some(_) => render_multi_report(&metrics, csv.as_deref()),
        };
        Ok(JobOutput { body, registry })
    }
}

/// Why [`JobSpec::run_with`] failed: the workload could not be built,
/// or the run itself was cancelled.
#[derive(Debug)]
pub enum JobRunError {
    /// The workload source did not resolve — an unknown trace id (the
    /// trace was never uploaded, or was evicted); the server's 422.
    Source(SourceError),
    /// The harness cancelled the run ([`RunError::DeadlineExceeded`];
    /// the server's 504).
    Run(RunError),
}

impl fmt::Display for JobRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Source(e) => write!(f, "cannot build workload: {e}"),
            Self::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JobRunError {}

impl From<SourceError> for JobRunError {
    fn from(e: SourceError) -> Self {
        Self::Source(e)
    }
}

impl From<RunError> for JobRunError {
    fn from(e: RunError) -> Self {
        Self::Run(e)
    }
}

/// What running a job produces: the response body, plus the job's
/// metrics registry when one was attached (the server folds these into
/// its `/metrics` totals).
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The rendered JSON report — the exact `/v1/run` response body.
    pub body: String,
    /// The job's registry when the spec set `"metrics": true`.
    pub registry: Option<MetricsRegistry>,
}

/// The wire token for a structure kind (also accepted by the decoder).
pub fn structure_token(kind: StructureKind) -> &'static str {
    match kind {
        StructureKind::Ftspm => "ftspm",
        StructureKind::PureSram => "pure_sram",
        StructureKind::PureStt => "pure_stt",
    }
}

/// The wire token for a region role (inverse of the decoder's table).
fn role_token(role: RegionRole) -> &'static str {
    match role {
        RegionRole::Instruction => "instruction",
        RegionRole::DataStt => "data_stt",
        RegionRole::DataEcc => "data_ecc",
        RegionRole::DataParity => "data_parity",
    }
}

/// Renders an optional integer for [`JobSpec::canonical`]: the value,
/// or `-` when absent (no integer renders as `-`, so the two cases
/// cannot collide).
fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// Formats an `f64` deterministically as valid JSON (Rust's
/// shortest-roundtrip `{:?}`; the simulator never produces NaN or
/// infinities in report fields).
fn num(f: f64) -> String {
    debug_assert!(f.is_finite(), "report fields are finite");
    format!("{f:?}")
}

/// Renders a run report as JSON with a fixed field order.
///
/// This function is the response-body half of the determinism contract:
/// no maps, no locale, no clocks — two calls with equal inputs yield
/// equal bytes.
pub fn render_report(m: &RunMetrics, metrics_csv: Option<&str>) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"workload\":{},\"structure\":\"{}\",\"cycles\":{},\"instructions\":{},\
         \"spm_dynamic_pj\":{},\"spm_static_pj\":{},\"spm_leakage_mw\":{},\
         \"vulnerability\":{},\"reliability\":{},\"stt_max_line_writes\":{},\
         \"stt_total_writes\":{},\"stt_lines\":{},\"spm_accesses\":{},\"checksum_ok\":{}",
        json::escape(&m.workload),
        structure_token(m.structure),
        m.cycles,
        m.instructions,
        num(m.spm_dynamic_pj),
        num(m.spm_static_pj),
        num(m.spm_leakage_mw),
        num(m.vulnerability),
        num(m.reliability),
        m.stt_max_line_writes,
        m.stt_total_writes,
        m.stt_lines,
        m.spm_accesses(),
        m.checksum_ok,
    );
    s.push_str(",\"traffic\":[");
    for (i, t) in m.traffic.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"region\":{},\"reads\":{},\"writes\":{}}}",
            json::escape(&t.region),
            t.reads,
            t.writes
        );
    }
    s.push(']');
    match &m.recovery {
        None => s.push_str(",\"recovery\":null"),
        Some(r) => {
            let _ = write!(
                s,
                ",\"recovery\":{{\"strikes\":{},\"masked\":{},\"corrections\":{},\
                 \"due_traps\":{},\"due_retries\":{},\"sdc_escapes\":{},\"scrub_passes\":{},\
                 \"scrub_corrections\":{},\"quarantined_lines\":{},\"remapped_blocks\":{},\
                 \"recovery_cycles\":{}}}",
                r.strikes,
                r.masked,
                r.corrections,
                r.due_traps,
                r.due_retries,
                r.sdc_escapes,
                r.scrub_passes,
                r.scrub_corrections,
                r.quarantined_lines,
                r.remapped_blocks,
                r.recovery_cycles,
            );
        }
    }
    if let Some(csv) = metrics_csv {
        let _ = write!(s, ",\"metrics_csv\":{}", json::escape(csv));
    }
    s.push('}');
    s
}

/// Renders a multi-core run report: the single-core report fields (from
/// the embedded [`RunMetrics`]) plus a `multicore` section — core
/// count, bus-level coherence counters, per-core fault views, and each
/// block's sharer count. Deterministic like [`render_report`].
pub fn render_multi_report(m: &MultiRunMetrics, metrics_csv: Option<&str>) -> String {
    use std::fmt::Write as _;
    let mut s = render_report(&m.base, metrics_csv);
    s.pop();
    let c = &m.coherence;
    let _ = write!(
        s,
        ",\"multicore\":{{\"cores\":{},\"coherence\":{{\"invalidations\":{},\
         \"dirty_flushes\":{},\"downgrades\":{},\"shared_fills\":{},\"upgrades\":{},\
         \"remap_invalidations\":{},\"shared_block_faults\":{},\
         \"cross_core_observations\":{}}}",
        m.cores,
        c.invalidations,
        c.dirty_flushes,
        c.downgrades,
        c.shared_fills,
        c.upgrades,
        c.remap_invalidations,
        c.shared_block_faults,
        c.cross_core_observations,
    );
    s.push_str(",\"per_core\":[");
    for (i, v) in m.per_core.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"corrections\":{},\"due_traps\":{},\"sdc_escapes\":{},\"shared_exposures\":{}}}",
            v.corrections, v.due_traps, v.sdc_escapes, v.shared_exposures
        );
    }
    s.push_str("],\"sharer_counts\":[");
    for (i, n) in m.sharer_counts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{n}");
    }
    s.push_str("]}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_minimal_named_job_decodes_with_defaults() {
        let job = JobSpec::parse(br#"{"workload": "crc32"}"#).expect("minimal job");
        assert_eq!(
            job.workload,
            WorkloadSource::Named {
                name: "crc32".to_string(),
                seed: None
            }
        );
        assert_eq!(job.structure, StructureKind::Ftspm);
        assert_eq!(job.optimize, OptimizeFor::Reliability);
        assert!(job.faults.is_none());
        assert!(!job.metrics);
    }

    #[test]
    fn a_full_job_decodes() {
        let job = JobSpec::parse(
            br#"{"workload": {"name": "qsort", "seed": 99},
                 "structure": "pure_sram", "optimize": "endurance",
                 "faults": {"seed": 7, "mean_cycles_between_strikes": 5000.0,
                            "scrub_interval": 10000, "due_retry_limit": 2,
                            "quarantine_due_threshold": 4, "line_write_budget": 1000,
                            "restrict_to": ["data_ecc", "data_parity"],
                            "mbu": [0.7, 0.2, 0.05, 0.05]},
                 "metrics": true}"#,
        )
        .expect("full job");
        assert_eq!(job.structure, StructureKind::PureSram);
        assert_eq!(job.optimize, OptimizeFor::Endurance);
        let faults = job.faults.expect("faults decoded");
        assert_eq!(faults.seed, 7);
        assert_eq!(faults.scrub_interval, Some(10_000));
        assert_eq!(faults.due_retry_limit, 2);
        assert_eq!(faults.line_write_budget, Some(1000));
        assert_eq!(
            faults.restrict_to,
            Some(vec![RegionRole::DataEcc, RegionRole::DataParity])
        );
        assert!(job.metrics);
    }

    #[test]
    fn synthetic_jobs_decode_and_out_of_range_dials_are_rejected() {
        let job = JobSpec::parse(
            br#"{"workload": {"synthetic": {"write_fraction": 0.5, "buffer_words": 64,
                                            "accesses": 1000, "run_length": 4, "seed": 3}}}"#,
        )
        .expect("synthetic job");
        match job.workload {
            WorkloadSource::Synthetic(c) => {
                assert_eq!(c.buffer_words, 64);
                assert_eq!(c.accesses, 1000);
            }
            other => panic!("expected synthetic, got {other:?}"),
        }
        for bad in [
            r#"{"workload": {"synthetic": {"write_fraction": 1.5}}}"#,
            r#"{"workload": {"synthetic": {"write_fraction": -0.1}}}"#,
            r#"{"workload": {"synthetic": {"buffer_words": 0}}}"#,
            r#"{"workload": {"synthetic": {"accesses": 99999999}}}"#,
            r#"{"workload": {"synthetic": {"run_length": 0}}}"#,
        ] {
            assert!(
                matches!(JobSpec::parse(bad.as_bytes()), Err(JobError::Spec(_))),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn strictness_unknown_fields_and_bad_values_are_typed_errors() {
        for bad in [
            r#"{}"#,
            r#"{"workload": "crc32", "surprise": 1}"#,
            r#"{"workload": {"name": "crc32", "seed": 1.5}}"#,
            r#"{"workload": {"name": "crc32", "seed": -1}}"#,
            r#"{"workload": "crc32", "structure": "dram"}"#,
            r#"{"workload": "crc32", "optimize": "speed"}"#,
            r#"{"workload": "crc32", "metrics": 1}"#,
            r#"{"workload": "crc32", "faults": {"seed": 1}}"#,
            r#"{"workload": "crc32", "faults": {"seed": 1,
                "mean_cycles_between_strikes": 100.0, "mbu": [0.5, 0.5, 0.5, 0.5]}}"#,
            r#"{"workload": "crc32", "faults": {"seed": 1,
                "mean_cycles_between_strikes": 100.0, "restrict_to": []}}"#,
            r#"{"workload": "crc32", "faults": {"seed": 1,
                "mean_cycles_between_strikes": 100.0, "reference_path": true}}"#,
            r#"["not", "an", "object"]"#,
        ] {
            assert!(
                matches!(JobSpec::parse(bad.as_bytes()), Err(JobError::Spec(_))),
                "should reject: {bad}"
            );
        }
        // An unknown kernel name is the workload-level 422 (it lists
        // the valid names), not a generic spec 400.
        let unknown = JobSpec::parse(br#"{"workload": "no_such_kernel"}"#).expect_err("rejects");
        assert!(matches!(unknown, JobError::Workload(_)), "{unknown:?}");
        assert_eq!(unknown.status(), 422);
        assert!(
            unknown.to_string().contains("crc32"),
            "lists valid names: {unknown}"
        );
        // A malformed trace id is a spec 400; a well-formed id for a
        // trace nobody uploaded decodes fine (resolution is deferred).
        assert!(matches!(
            JobSpec::parse(br#"{"workload": {"trace": "not-hex"}}"#),
            Err(JobError::Spec(_))
        ));
        let id = "00112233445566778899aabbccddeeff";
        let spec = JobSpec::parse(format!(r#"{{"workload": {{"fit": "{id}"}}}}"#).as_bytes())
            .expect("fit spec decodes");
        assert!(matches!(spec.workload, WorkloadSource::Fitted(_)));
        // A case_study seed is rejected; a valid name + seed works.
        assert!(JobSpec::parse(br#"{"workload": {"name": "case_study", "seed": 1}}"#).is_err());
        // Builder-level validation surfaces as Faults.
        assert!(matches!(
            JobSpec::parse(
                br#"{"workload": "crc32",
                     "faults": {"seed": 1, "mean_cycles_between_strikes": 0.5}}"#
            ),
            Err(JobError::Faults(FaultOptionsError::InvalidStrikeMean))
        ));
    }

    #[test]
    fn reports_render_deterministically_and_reparse() {
        let job = JobSpec::parse(
            br#"{"workload": {"synthetic": {"buffer_words": 32, "accesses": 400,
                                            "run_length": 4, "seed": 11}},
                 "faults": {"seed": 5, "mean_cycles_between_strikes": 2000.0}}"#,
        )
        .expect("job");
        let a = job.run().expect("run");
        let b = job.run().expect("run");
        assert_eq!(a.body, b.body, "equal specs must render equal bytes");
        let parsed = json::parse(a.body.as_bytes()).expect("report is valid JSON");
        assert_eq!(
            parsed.get("workload").and_then(Json::as_str),
            Some("synthetic")
        );
        assert_eq!(
            parsed.get("structure").and_then(Json::as_str),
            Some("ftspm")
        );
        assert!(parsed.get("recovery").is_some_and(|r| r.as_obj().is_some()));
        assert!(parsed.get("metrics_csv").is_none());
    }

    #[test]
    fn deadline_and_chaos_fields_decode_and_validate() {
        let job = JobSpec::parse(
            br#"{"workload": "crc32", "deadline_cycles": 5000, "chaos_panic": false}"#,
        )
        .expect("job");
        assert_eq!(job.deadline_cycles, Some(5000));
        assert!(!job.chaos_panic);
        for bad in [
            r#"{"workload": "crc32", "deadline_cycles": 0}"#,
            r#"{"workload": "crc32", "deadline_cycles": -3}"#,
            r#"{"workload": "crc32", "deadline_cycles": 1.5}"#,
            r#"{"workload": "crc32", "chaos_panic": "yes"}"#,
        ] {
            assert!(
                matches!(JobSpec::parse(bad.as_bytes()), Err(JobError::Spec(_))),
                "should reject: {bad}"
            );
        }
        // A tiny budget cancels a real run with a typed error, and the
        // cut lands at the same cycle every time.
        let job = JobSpec::parse(br#"{"workload": "crc32", "deadline_cycles": 10}"#).expect("job");
        let a = job.run().expect_err("budget too small");
        let b = job.run().expect_err("budget too small");
        assert_eq!(a, b, "deadline cut is deterministic");
        assert!(matches!(
            a,
            RunError::DeadlineExceeded {
                deadline_cycles: 10,
                ..
            }
        ));
    }

    #[test]
    fn canonical_collapses_equivalent_bodies_and_separates_different_ones() {
        // Omitted seed vs. the suite default written out, different
        // whitespace/field order: one cache line.
        let implicit = JobSpec::parse(br#"{"workload": "crc32"}"#).expect("job");
        let explicit =
            JobSpec::parse(br#"{ "workload" : {"seed": 50115, "name": "crc32"} }"#).expect("job");
        assert_eq!(implicit.canonical(), explicit.canonical());
        // Any dial the run reads must separate keys.
        for other in [
            r#"{"workload": {"name": "crc32", "seed": 50116}}"#,
            r#"{"workload": "sha"}"#,
            r#"{"workload": "crc32", "structure": "pure_sram"}"#,
            r#"{"workload": "crc32", "optimize": "power"}"#,
            r#"{"workload": "crc32", "metrics": true}"#,
            r#"{"workload": "crc32", "deadline_cycles": 5000}"#,
            r#"{"workload": "crc32",
                "faults": {"seed": 1, "mean_cycles_between_strikes": 100.0}}"#,
        ] {
            let spec = JobSpec::parse(other.as_bytes()).expect("job");
            assert_ne!(implicit.canonical(), spec.canonical(), "collided: {other}");
        }
        // Fault sub-dials separate too.
        let base = r#"{"workload": "crc32",
            "faults": {"seed": 1, "mean_cycles_between_strikes": 100.0}}"#;
        let base = JobSpec::parse(base.as_bytes()).expect("job");
        for variant in [
            r#"{"workload": "crc32", "faults": {"seed": 2,
                "mean_cycles_between_strikes": 100.0}}"#,
            r#"{"workload": "crc32", "faults": {"seed": 1,
                "mean_cycles_between_strikes": 200.0}}"#,
            r#"{"workload": "crc32", "faults": {"seed": 1,
                "mean_cycles_between_strikes": 100.0, "scrub_interval": 5000}}"#,
            r#"{"workload": "crc32", "faults": {"seed": 1,
                "mean_cycles_between_strikes": 100.0, "restrict_to": ["data_ecc"]}}"#,
            r#"{"workload": "crc32", "faults": {"seed": 1,
                "mean_cycles_between_strikes": 100.0, "mbu": [0.8, 0.1, 0.05, 0.05]}}"#,
        ] {
            let spec = JobSpec::parse(variant.as_bytes()).expect("job");
            assert_ne!(base.canonical(), spec.canonical(), "collided: {variant}");
        }
    }

    #[test]
    fn multicore_jobs_decode_run_and_render_a_multicore_section() {
        let job = JobSpec::parse(br#"{"workload": "reduction", "cores": 3, "metrics": true}"#)
            .expect("multicore job");
        assert_eq!(job.cores, Some(3));
        let a = job.run().expect("run");
        let b = job.run().expect("run");
        assert_eq!(a.body, b.body, "multicore reports are deterministic");
        let parsed = json::parse(a.body.as_bytes()).expect("valid JSON");
        let multi = parsed.get("multicore").expect("multicore section");
        assert_eq!(multi.get("cores").and_then(Json::as_u64), Some(3));
        assert!(multi.get("coherence").is_some_and(|c| c.as_obj().is_some()));
        assert_eq!(
            multi.get("per_core").and_then(Json::as_arr).map(<[_]>::len),
            Some(3)
        );
        assert!(multi.get("sharer_counts").is_some());
        assert_eq!(
            parsed.get("checksum_ok").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn cores_one_collapses_onto_the_single_core_address() {
        let implicit = JobSpec::parse(br#"{"workload": "crc32"}"#).expect("job");
        let explicit = JobSpec::parse(br#"{"workload": "crc32", "cores": 1}"#).expect("job");
        assert_eq!(implicit.canonical(), explicit.canonical());
        assert_eq!(explicit.cores, None, "cores=1 normalises away");
        // A real multi-core job gets its own address, and the omitted
        // seed collapses onto the registry default written out.
        let multi = JobSpec::parse(br#"{"workload": "reduction", "cores": 2}"#).expect("job");
        assert_ne!(implicit.canonical(), multi.canonical());
        let seeded = ftspm_workloads::find_multicore("reduction")
            .expect("registered")
            .default_seed();
        let spelled = JobSpec::parse(
            format!(r#"{{"workload": {{"name": "reduction", "seed": {seeded}}}, "cores": 2}}"#)
                .as_bytes(),
        )
        .expect("job");
        assert_eq!(multi.canonical(), spelled.canonical());
        let more = JobSpec::parse(br#"{"workload": "reduction", "cores": 3}"#).expect("job");
        assert_ne!(multi.canonical(), more.canonical(), "core count separates");
    }

    #[test]
    fn multicore_validation_is_typed_and_maps_to_422() {
        // Out-of-range core counts are shape errors.
        for bad in [
            r#"{"workload": "reduction", "cores": 0}"#,
            r#"{"workload": "reduction", "cores": 9}"#,
            r#"{"workload": "reduction", "cores": 2.5}"#,
            r#"{"workload": {"synthetic": {}}, "cores": 2}"#,
        ] {
            assert!(
                matches!(JobSpec::parse(bad.as_bytes()), Err(JobError::Spec(_))),
                "should reject: {bad}"
            );
        }
        // Unknown multi-core kernel: semantic 422 listing valid names.
        let e = JobSpec::parse(br#"{"workload": "crc32", "cores": 2}"#).expect_err("rejects");
        assert!(matches!(e, JobError::Multicore(_)), "{e:?}");
        assert_eq!(e.status(), 422);
        assert!(e.to_string().contains("reduction"), "lists names: {e}");
        // At its 2-core floor producer_consumer decodes fine...
        assert!(JobSpec::parse(br#"{"workload": "producer_consumer", "cores": 2}"#).is_ok());
        // ...but `cores: 1` collapses onto the single-core path, where
        // a multicore-only kernel is simply an unknown workload (422).
        let e = JobSpec::parse(br#"{"workload": "producer_consumer", "cores": 1}"#)
            .expect_err("no single-core producer_consumer");
        assert!(matches!(e, JobError::Workload(_)), "{e:?}");
        assert_eq!(e.status(), 422);
    }

    #[test]
    fn chaos_panic_jobs_are_not_cacheable() {
        let normal = JobSpec::parse(br#"{"workload": "crc32"}"#).expect("job");
        assert!(normal.cacheable());
        let chaos = JobSpec::parse(br#"{"workload": "crc32", "chaos_panic": true}"#).expect("job");
        assert!(!chaos.cacheable());
        assert_ne!(normal.canonical(), chaos.canonical());
    }

    #[test]
    fn metrics_jobs_attach_a_registry_and_echo_its_csv() {
        let job = JobSpec::parse(
            br#"{"workload": {"synthetic": {"buffer_words": 32, "accesses": 200}},
                 "metrics": true}"#,
        )
        .expect("job");
        let out = job.run().expect("run");
        let registry = out.registry.expect("registry attached");
        assert!(!registry.is_empty());
        let parsed = json::parse(out.body.as_bytes()).expect("valid JSON");
        let csv = parsed
            .get("metrics_csv")
            .and_then(Json::as_str)
            .expect("metrics_csv present");
        assert_eq!(csv, registry.to_csv());
    }
}
