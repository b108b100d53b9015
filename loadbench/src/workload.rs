//! The four served workloads: which requests each client sends, derived
//! from the run seed alone, and the inputs they need prepared up front.
//!
//! Requests are numbered by *round*. A round is one request, except on
//! `trace_ingest`, where it is an upload followed by a job on the trace
//! just uploaded. Round `r`'s bytes depend only on `(workload, seed, r)`,
//! so the served run, the in-process verification and the traced replay
//! all see the same stream.

use std::borrow::Cow;

use ftspm_serve::http::MAX_BODY_BYTES;
use ftspm_testkit::{derive_seed, par_map};
use ftspm_trace::{record, TraceId};
use ftspm_workloads::{multicore_names, registry};

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request a fresh suite kernel job: the simulator is the cost.
    KernelsCold,
    /// Ten design points of one fresh kernel per batch, one connection.
    DesignSweep,
    /// A hot set smaller than the result cache: every request hits.
    WarmHits,
    /// Trace uploads alternating with jobs on them; every job misses.
    TraceIngest,
}

/// Every workload, in the order the README lists them.
pub const ALL: [Workload; 4] = [
    Workload::KernelsCold,
    Workload::DesignSweep,
    Workload::WarmHits,
    Workload::TraceIngest,
];

/// Suite kernels whose recorded trace fits under the server's 1 MiB body
/// cap at any seed (the largest, `patricia` and `crc32`, record to about
/// 0.85 MiB; `fft` sits within 6 % of the cap and is left out).
const TRACE_KERNELS: [&str; 6] = [
    "qsort",
    "bitcount",
    "basicmath",
    "crc32",
    "stringsearch",
    "patricia",
];

/// Recorded seeds per trace kernel. The 72-trace pool outnumbers the
/// server's 64-entry trace table, so every upload decodes and evicts,
/// and its 144 job specs (replay and fit of each) outnumber the
/// 128-entry result cache, so every job misses.
const TRACE_SEEDS: usize = 12;
const POOL: u64 = (TRACE_KERNELS.len() * TRACE_SEEDS) as u64;

/// The four MDA optimisation targets of a design sweep.
const OPTIMIZE: [&str; 4] = ["reliability", "performance", "power", "endurance"];

/// Design points in one `design_sweep` batch: the four targets, both
/// baselines, a faulted point and the three multicore kernels.
pub const DESIGN_POINTS: usize = 10;

/// A request endpoint; its name is the request class layer times are
/// grouped by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/run`.
    Run,
    /// `POST /v1/batch`.
    Batch,
    /// `POST /v1/traces`.
    Traces,
}

impl Endpoint {
    pub fn path(self) -> &'static str {
        match self {
            Self::Run => "/v1/run",
            Self::Batch => "/v1/batch",
            Self::Traces => "/v1/traces",
        }
    }

    pub fn class(self) -> &'static str {
        match self {
            Self::Run => "run",
            Self::Batch => "batch",
            Self::Traces => "traces",
        }
    }
}

/// One request of a round.
pub struct Request<'a> {
    pub endpoint: Endpoint,
    pub body: Cow<'a, [u8]>,
    /// The pooled trace an upload carries (its expected id, name, ops).
    pub upload: Option<&'a PooledTrace>,
}

impl Request<'_> {
    /// Reports the response must carry: one per job.
    pub fn jobs(&self) -> usize {
        match self.endpoint {
            Endpoint::Run => 1,
            Endpoint::Batch => DESIGN_POINTS,
            Endpoint::Traces => 0,
        }
    }
}

/// A recorded, encoded trace of the `trace_ingest` pool.
pub struct PooledTrace {
    pub bytes: Vec<u8>,
    pub id: TraceId,
    pub name: String,
    pub ops: u64,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Self::KernelsCold => "kernels_cold",
            Self::DesignSweep => "design_sweep",
            Self::WarmHits => "warm_hits",
            Self::TraceIngest => "trace_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections: a design sweep is one researcher's script.
    pub fn clients(self) -> usize {
        match self {
            Self::DesignSweep => 1,
            _ => 2,
        }
    }

    /// Rounds per cycle: the shortest run of rounds in which every
    /// kernel (and, on `trace_ingest`, both job kinds) appears equally
    /// often. Job cost differs tenfold between kernels, so the window
    /// is measured in whole cycles and no partial mix skews a rate.
    pub fn cycle(self) -> u64 {
        match self {
            Self::KernelsCold | Self::DesignSweep => 13,
            Self::WarmHits => 42,
            Self::TraceIngest => 2 * TRACE_KERNELS.len() as u64,
        }
    }

    /// Jobs one round reports. Uploads are not jobs.
    pub fn jobs_per_round(self) -> u64 {
        match self {
            Self::DesignSweep => DESIGN_POINTS as u64,
            _ => 1,
        }
    }

    /// Requests in one round.
    pub fn requests_per_round(self) -> u64 {
        match self {
            Self::TraceIngest => 2,
            _ => 1,
        }
    }

    /// Rounds the traced replay covers: two kernel cycles, one sweep
    /// cycle, a hundred hot-set cycles, one full trace pool.
    pub fn traced_rounds(self) -> u64 {
        match self {
            Self::KernelsCold => 26,
            Self::DesignSweep => 13,
            Self::WarmHits => 4_200,
            Self::TraceIngest => POOL,
        }
    }

    /// Whether every job misses the result cache, so the reports'
    /// instruction counts are work the simulator did in the window.
    pub fn all_miss(self) -> bool {
        self != Self::WarmHits
    }

    /// The served request class whose transport cost `serve.transport_us`
    /// reports, and whether its requests are cache hits.
    pub fn transport_class(self) -> &'static str {
        match self {
            Self::KernelsCold => "run",
            Self::DesignSweep => "batch",
            Self::WarmHits => "run/hit",
            Self::TraceIngest => "traces",
        }
    }
}

/// Everything a workload's stream needs that is costly to make, built
/// during set-up.
pub struct Inputs {
    pub workload: Workload,
    seed: u64,
    suite: Vec<&'static str>,
    /// `warm_hits`: the hot set, primed before timing.
    hot: Vec<String>,
    /// `trace_ingest`: the upload pool.
    pool: Vec<PooledTrace>,
}

fn kernel_spec(name: &str, seed: u64, extra: &str) -> String {
    format!("{{\"workload\":{{\"name\":\"{name}\",\"seed\":{seed}}}{extra}}}")
}

/// The faulted design point's extra fields: live strikes, metrics on.
/// Strikes are single-bit, which FTSPM's ECC and parity regions correct
/// or recover: with the default multi-bit mix about one faulted job in
/// sixteen ends in a silent corruption and a false checksum, and every
/// report must pass its checksum.
fn faulted(seed: u64) -> String {
    format!(
        ",\"faults\":{{\"seed\":{seed},\"mean_cycles_between_strikes\":20000.0,\
         \"mbu\":[1.0,0.0,0.0,0.0]}},\"metrics\":true"
    )
}

impl Inputs {
    /// Builds the inputs: the hot set for `warm_hits`, the recorded
    /// trace pool for `trace_ingest`.
    ///
    /// # Errors
    ///
    /// A trace that cannot be recorded or outgrows the upload cap.
    pub fn prepare(workload: Workload, seed: u64) -> Result<Self, String> {
        let suite: Vec<&'static str> = registry()
            .iter()
            .filter(|e| e.in_suite())
            .map(|e| e.name())
            .collect();
        let mut hot = Vec::new();
        if workload == Workload::WarmHits {
            for (i, kernel) in suite.iter().enumerate() {
                let s = derive_seed(seed, i as u64);
                hot.push(kernel_spec(kernel, s, ""));
                hot.push(kernel_spec(kernel, s, ",\"structure\":\"pure_sram\""));
                hot.push(kernel_spec(kernel, s, &faulted(s)));
            }
            for (j, kernel) in multicore_names().iter().enumerate() {
                let s = derive_seed(seed, (suite.len() + j) as u64);
                hot.push(kernel_spec(kernel, s, ",\"cores\":2"));
            }
            assert_eq!(hot.len() as u64, workload.cycle(), "hot set is one cycle");
        }
        let pool = if workload == Workload::TraceIngest {
            par_map((0..POOL).collect(), |p| record_pooled(seed, p))
                .into_iter()
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Self {
            workload,
            seed,
            suite,
            hot,
            pool,
        })
    }

    /// The `/v1/batch` body that primes the hot set, for `warm_hits`.
    pub fn priming_batch(&self) -> Option<String> {
        (!self.hot.is_empty()).then(|| format!("[{}]", self.hot.join(",")))
    }

    /// The pooled trace round `r` uploads, on `trace_ingest`.
    pub fn pooled(&self, r: u64) -> Option<&PooledTrace> {
        self.pool.get((r % POOL) as usize)
    }

    /// The requests of round `r`, in send order.
    pub fn round(&self, r: u64) -> Vec<Request<'_>> {
        let run = |body: String| Request {
            endpoint: Endpoint::Run,
            body: Cow::Owned(body.into_bytes()),
            upload: None,
        };
        let kernel = self.suite[(r % self.suite.len() as u64) as usize];
        match self.workload {
            Workload::KernelsCold => vec![run(kernel_spec(kernel, derive_seed(self.seed, r), ""))],
            Workload::DesignSweep => {
                let s = derive_seed(self.seed, r);
                let mut points: Vec<String> = OPTIMIZE
                    .iter()
                    .map(|o| kernel_spec(kernel, s, &format!(",\"optimize\":\"{o}\"")))
                    .collect();
                points.push(kernel_spec(kernel, s, ",\"structure\":\"pure_sram\""));
                points.push(kernel_spec(kernel, s, ",\"structure\":\"pure_stt\""));
                points.push(kernel_spec(kernel, s, &faulted(s)));
                for m in multicore_names() {
                    points.push(kernel_spec(m, s, ",\"cores\":2"));
                }
                vec![Request {
                    endpoint: Endpoint::Batch,
                    body: Cow::Owned(format!("[{}]", points.join(",")).into_bytes()),
                    upload: None,
                }]
            }
            Workload::WarmHits => vec![run(self.hot[(r % self.workload.cycle()) as usize].clone())],
            Workload::TraceIngest => {
                let trace = self.pooled(r).expect("trace_ingest has a pool");
                // Six replays, then six fits, each kernel once; a pool
                // pass later the kinds swap, so each trace is both a
                // replay and a fit within 144 rounds.
                let fit = ((r / 6) + (r / POOL)) % 2 == 1;
                let kind = if fit { "fit" } else { "trace" };
                vec![
                    Request {
                        endpoint: Endpoint::Traces,
                        body: Cow::Borrowed(&trace.bytes),
                        upload: Some(trace),
                    },
                    run(format!("{{\"workload\":{{\"{kind}\":\"{}\"}}}}", trace.id)),
                ]
            }
        }
    }
}

fn record_pooled(seed: u64, p: u64) -> Result<PooledTrace, String> {
    let name = TRACE_KERNELS[(p % TRACE_KERNELS.len() as u64) as usize];
    let entry = ftspm_workloads::find(name).expect("trace kernels are registered");
    let trace = record(entry.build(Some(derive_seed(seed, p))).as_mut())
        .map_err(|e| format!("recording {name}: {e}"))?;
    let bytes = trace.encode();
    if bytes.len() > MAX_BODY_BYTES {
        return Err(format!(
            "{name} recorded {} bytes, over the {MAX_BODY_BYTES}-byte upload cap",
            bytes.len()
        ));
    }
    Ok(PooledTrace {
        id: TraceId::of(&bytes),
        name: trace.name,
        ops: trace.op_count,
        bytes,
    })
}
