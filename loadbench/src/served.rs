//! The served run: boot the service, prime it, drive closed-loop clients
//! over keep-alive connections, measure whole cycles, and recompute a
//! prefix of the responses in process.

use std::net::SocketAddr;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ftspm_serve::json::{self, Json};
use ftspm_serve::{CacheKey, JobSpec, ServeConfig, Server, TraceTable};
use ftspm_testkit::{ephemeral_listener, http_request, par_map, HttpClient, HttpReply};
use ftspm_trace::{NoTraces, Trace, TraceId, TraceResolver};

use crate::workload::{Endpoint, Inputs, PooledTrace, Request, Workload};

/// Server worker threads; also the `FTSPM_THREADS` the process runs at.
pub const WORKERS: usize = 2;
/// Responses recomputed in process after the window, by request index.
const VERIFIED_PREFIX: usize = 32;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Latency samples a client keeps before it thins them to every other
/// one: bounds the benchmark's own memory, which `peak_rss_mb` counts.
const SAMPLE_CAP: usize = 1 << 18;

const CHECKSUM_OK: &[u8] = b"\"checksum_ok\":true";
const INSTRUCTIONS: &[u8] = b"\"instructions\":";

/// A booted, primed service and its connected clients. Clients are
/// declared first so they drop first: the server's shutdown waits on
/// every open keep-alive connection.
pub struct Setup {
    clients: Vec<HttpClient>,
    server: Server,
    inputs: Inputs,
}

/// Prepares inputs, boots the service, primes its hot set and opens one
/// checked connection per client.
///
/// # Errors
///
/// Any failure to record inputs, boot, prime or connect.
pub fn setup(workload: Workload, seed: u64) -> Result<Setup, String> {
    let inputs = Inputs::prepare(workload, seed)?;
    let (listener, _) = ephemeral_listener();
    let server = Server::start(
        listener,
        ServeConfig {
            workers: NonZeroUsize::new(WORKERS).expect("nonzero workers"),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("boot: {e}"))?;
    let addr = server.addr();
    if let Some(batch) = inputs.priming_batch() {
        let reply = http_request(addr, "POST", "/v1/batch", batch.as_bytes())
            .map_err(|e| format!("priming: {e}"))?;
        let passed = count(&reply.body, CHECKSUM_OK);
        if reply.status != 200 || passed != workload.cycle() as usize {
            return Err(format!(
                "priming answered {} with {passed} of {} checksums passing",
                reply.status,
                workload.cycle()
            ));
        }
    }
    let mut clients = Vec::new();
    for _ in 0..workload.clients() {
        let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let probe = client
            .request("GET", "/healthz", b"")
            .map_err(|e| format!("readiness probe: {e}"))?;
        if probe.status != 200 {
            return Err(format!("readiness probe answered {}", probe.status));
        }
        clients.push(client);
    }
    Ok(Setup {
        clients,
        server,
        inputs,
    })
}

/// Occurrences of `needle` in `hay`.
fn count(hay: &[u8], needle: &[u8]) -> usize {
    hay.windows(needle.len()).filter(|w| *w == needle).count()
}

/// Sum of every `"instructions":N` field in a response body.
fn instructions(body: &[u8]) -> u64 {
    let mut total = 0;
    let mut rest = body;
    while let Some(at) = rest
        .windows(INSTRUCTIONS.len())
        .position(|w| w == INSTRUCTIONS)
    {
        rest = &rest[at + INSTRUCTIONS.len()..];
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        total += std::str::from_utf8(&rest[..digits])
            .ok()
            .and_then(|d| d.parse::<u64>().ok())
            .unwrap_or(0);
    }
    total
}

/// The answer `POST /v1/traces` gives for a newly stored trace. Every
/// served upload must match it byte for byte.
pub fn upload_body(id: TraceId, name: &str, ops: u64) -> String {
    format!(
        "{{\"trace\":\"{id}\",\"name\":{},\"ops\":{ops},\"state\":\"stored\"}}",
        json::escape(name)
    )
}

/// Checks a served reply cheaply, on the client thread: 200, one
/// `checksum_ok:true` per job, the expected upload answer.
fn check(request: &Request<'_>, reply: &HttpReply) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!(
            "{} answered {}: {}",
            request.endpoint.path(),
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    match request.upload {
        Some(t) if reply.body == upload_body(t.id, &t.name, t.ops).as_bytes() => Ok(()),
        Some(t) => Err(format!(
            "upload of {} answered {}",
            t.id,
            String::from_utf8_lossy(&reply.body)
        )),
        None if count(&reply.body, CHECKSUM_OK) == request.jobs() => Ok(()),
        None => Err(format!(
            "{} reports without checksum_ok:true",
            request.endpoint.path()
        )),
    }
}

/// One latency sample of the window.
#[derive(Clone, Copy)]
struct Sample {
    endpoint: Endpoint,
    ns: u64,
}

/// A client's latency samples, thinned evenly once `SAMPLE_CAP` is hit.
struct Samples {
    stride: u64,
    seen: u64,
    kept: Vec<Sample>,
}

impl Samples {
    fn push(&mut self, sample: Sample) {
        if self.seen.is_multiple_of(self.stride) {
            self.kept.push(sample);
            if self.kept.len() == SAMPLE_CAP {
                self.kept = self.kept.iter().copied().step_by(2).collect();
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }
}

/// One client's tallies. Rounds are sorted into warm-up and window as
/// they finish: a round is warm-up while the window's first round is
/// not yet fixed, since that boundary is fixed at or above every round
/// handed out by then.
struct Tally {
    /// When the client's last warm-up round finished.
    warm_end_ns: u64,
    /// When the client's last window round finished.
    end_ns: u64,
    rounds: u64,
    instructions: u64,
    upload_bytes: u64,
    samples: Samples,
    attempted: u64,
    failed: u64,
    connections: u64,
    problems: Vec<String>,
}

/// Shared pacing state: the round counter and the two boundaries the
/// deadlines turn into, each rounded up to a whole cycle.
struct Pace {
    start: Instant,
    next: AtomicU64,
    warm_stop: AtomicU64,
    stop: AtomicU64,
    warm_deadline: Instant,
    deadline: Instant,
}

impl Pace {
    /// Sets `cell` once to the next cycle boundary at or after the
    /// rounds handed out so far (and at least `floor`).
    fn boundary(&self, cell: &AtomicU64, cycle: u64, floor: u64) {
        let proposed = (self.next.load(Ordering::SeqCst).div_ceil(cycle) * cycle).max(floor);
        let _ = cell.compare_exchange(u64::MAX, proposed, Ordering::SeqCst, Ordering::SeqCst);
    }
}

fn drive(
    client: &mut HttpClient,
    addr: SocketAddr,
    inputs: &Inputs,
    pace: &Pace,
    prefix: &Mutex<Vec<Option<Vec<u8>>>>,
) -> Tally {
    let workload = inputs.workload;
    let cycle = workload.cycle();
    let mut tally = Tally {
        warm_end_ns: 0,
        end_ns: 0,
        rounds: 0,
        instructions: 0,
        upload_bytes: 0,
        samples: Samples {
            stride: 1,
            seen: 0,
            kept: Vec::new(),
        },
        attempted: 0,
        failed: 0,
        connections: 1,
        problems: Vec::new(),
    };
    let mut connected = true;
    while connected {
        let now = Instant::now();
        if now >= pace.warm_deadline {
            pace.boundary(&pace.warm_stop, cycle, 0);
        }
        if now >= pace.deadline {
            let warm_stop = pace.warm_stop.load(Ordering::SeqCst);
            pace.boundary(&pace.stop, cycle, warm_stop.saturating_add(cycle));
        }
        let r = pace.next.fetch_add(1, Ordering::SeqCst);
        if r >= pace.stop.load(Ordering::SeqCst) {
            break;
        }
        let (mut instructions_done, mut bytes_done) = (0, 0);
        let mut samples = Vec::with_capacity(2);
        for (j, request) in inputs.round(r).into_iter().enumerate() {
            let index = (r * workload.requests_per_round()) as usize + j;
            let sent = Instant::now();
            let outcome = client.request("POST", request.endpoint.path(), &request.body);
            let ns = sent.elapsed().as_nanos() as u64;
            tally.attempted += 1;
            samples.push(Sample {
                endpoint: request.endpoint,
                ns,
            });
            let verdict = match &outcome {
                Ok(reply) => check(&request, reply).map(|()| reply),
                Err(e) => Err(format!("transport: {e}")),
            };
            match verdict {
                Ok(reply) => {
                    if workload.all_miss() && request.upload.is_none() {
                        instructions_done += instructions(&reply.body);
                    }
                    if request.upload.is_some() {
                        bytes_done += request.body.len() as u64;
                    }
                    if index < VERIFIED_PREFIX {
                        prefix.lock().expect("prefix lock")[index] = Some(reply.body.clone());
                    }
                }
                Err(problem) => {
                    tally.failed += 1;
                    if tally.problems.len() < 4 {
                        tally.problems.push(problem);
                    }
                }
            }
            // The server's per-connection cap (and any failure) closes
            // the connection; a client that cannot reconnect stops, and
            // the window it leaves short fails the run.
            let close = outcome
                .as_ref()
                .map_or(true, |reply| reply.header("connection") == Some("close"));
            if close {
                match HttpClient::connect(addr) {
                    Ok(fresh) => {
                        *client = fresh;
                        tally.connections += 1;
                    }
                    Err(e) => {
                        tally.problems.push(format!("reconnect: {e}"));
                        connected = false;
                        break;
                    }
                }
            }
        }
        let done_ns = pace.start.elapsed().as_nanos() as u64;
        if r < pace.warm_stop.load(Ordering::SeqCst) {
            tally.warm_end_ns = tally.warm_end_ns.max(done_ns);
        } else if connected && r < pace.stop.load(Ordering::SeqCst) {
            tally.end_ns = tally.end_ns.max(done_ns);
            tally.rounds += 1;
            tally.instructions += instructions_done;
            tally.upload_bytes += bytes_done;
            for sample in samples {
                tally.samples.push(sample);
            }
        }
    }
    tally
}

/// The measured window of a served run: whole cycles, from the end of
/// the last warm-up round to the end of the last window round.
pub struct Window {
    pub secs: f64,
    pub jobs: u64,
    pub instructions: u64,
    pub upload_bytes: u64,
    /// Request latency samples: endpoint, milliseconds.
    pub latencies_ms: Vec<(Endpoint, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub connections: u64,
    /// `serve.cache.hit` and `serve.cache.miss` counted after set-up.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Response bodies by request index, for the verified prefix.
    pub prefix: Vec<Option<Vec<u8>>>,
    pub problems: Vec<String>,
}

/// `serve.cache.hit` and `serve.cache.miss` from a `/metrics` reply.
fn cache_counters(reply: std::io::Result<HttpReply>) -> Result<(u64, u64), String> {
    let reply = reply.map_err(|e| format!("/metrics: {e}"))?;
    let csv = String::from_utf8_lossy(&reply.body);
    let counter = |name: &str| {
        csv.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(",counter,,"))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Ok((counter("serve.cache.hit"), counter("serve.cache.miss")))
}

/// Drives the workload for `warmup` then a window of about `seconds`,
/// both ending on cycle boundaries, and shuts the service down.
///
/// # Errors
///
/// A `/metrics` fetch that fails.
pub fn serve(
    setup: Setup,
    warmup: Duration,
    seconds: Duration,
) -> Result<(Inputs, Window), String> {
    let Setup {
        mut clients,
        server,
        inputs,
    } = setup;
    let addr = server.addr();
    // Over a client's own connection: every worker is holding one, so a
    // fresh connection would queue until an idle timeout freed a worker.
    let (hits_before, misses_before) = cache_counters(clients[0].request("GET", "/metrics", b""))?;
    let start = Instant::now();
    let pace = Pace {
        start,
        next: AtomicU64::new(0),
        warm_stop: AtomicU64::new(u64::MAX),
        stop: AtomicU64::new(u64::MAX),
        warm_deadline: start + warmup,
        deadline: start + warmup + seconds,
    };
    let prefix = Mutex::new(vec![None; VERIFIED_PREFIX]);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| scope.spawn(|| drive(client, addr, &inputs, &pace, &prefix)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    drop(clients);
    let (hits_after, misses_after) = cache_counters(http_request(addr, "GET", "/metrics", b""))?;
    drop(server);

    let (warm_stop, stop) = (pace.warm_stop.into_inner(), pace.stop.into_inner());
    let rounds: u64 = tallies.iter().map(|t| t.rounds).sum();
    let start_ns = tallies.iter().map(|t| t.warm_end_ns).max().unwrap_or(0);
    let end_ns = tallies.iter().map(|t| t.end_ns).max().unwrap_or(0);
    let mut window = Window {
        secs: end_ns.saturating_sub(start_ns) as f64 / 1e9,
        jobs: rounds * inputs.workload.jobs_per_round(),
        instructions: tallies.iter().map(|t| t.instructions).sum(),
        upload_bytes: tallies.iter().map(|t| t.upload_bytes).sum(),
        latencies_ms: Vec::new(),
        attempted: tallies.iter().map(|t| t.attempted).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
        connections: tallies.iter().map(|t| t.connections).sum(),
        cache_hits: hits_after - hits_before,
        cache_misses: misses_after - misses_before,
        prefix: prefix.into_inner().expect("prefix lock"),
        problems: Vec::new(),
    };
    for tally in tallies {
        window.latencies_ms.extend(
            tally
                .samples
                .kept
                .iter()
                .map(|s| (s.endpoint, s.ns as f64 / 1e6)),
        );
        window.problems.extend(tally.problems);
    }
    // Every round of the window's whole cycles must have finished.
    if stop == u64::MAX || rounds != stop - warm_stop {
        window
            .problems
            .push(format!("the window finished {rounds} of its rounds"));
    }
    Ok((inputs, window))
}

/// A resolver for round `r`'s trace job: a one-entry trace table holding
/// the pooled trace, decoded.
fn resolver_for(inputs: &Inputs, r: u64) -> Result<Box<dyn TraceResolver>, String> {
    match inputs.pooled(r) {
        None => Ok(Box::new(NoTraces)),
        Some(PooledTrace { bytes, id, .. }) => {
            let (trace, _) = Trace::decode(bytes).map_err(|e| format!("decode: {e}"))?;
            let mut table = TraceTable::new(1);
            table.insert(*id, Arc::new(trace));
            Ok(Box::new(table))
        }
    }
}

fn run_spec(spec: &JobSpec, traces: &dyn TraceResolver) -> Result<String, String> {
    spec.run_with(traces)
        .map(|out| out.body)
        .map_err(|e| format!("in-process run: {e}"))
}

/// The body the service must answer to `request`, one of round `r`'s,
/// computed in process with `JobSpec::run_with`.
///
/// # Errors
///
/// A request that does not decode or run in process.
pub fn expected_body(inputs: &Inputs, r: u64, request: &Request<'_>) -> Result<String, String> {
    match request.endpoint {
        Endpoint::Traces => {
            let t = request.upload.expect("uploads carry their trace");
            Ok(upload_body(t.id, &t.name, t.ops))
        }
        Endpoint::Run => {
            let spec = JobSpec::parse(&request.body).map_err(|e| format!("decode: {e}"))?;
            run_spec(&spec, resolver_for(inputs, r)?.as_ref())
        }
        Endpoint::Batch => {
            let doc = json::parse(&request.body).map_err(|e| format!("decode: {e}"))?;
            let items = doc.as_arr().ok_or("batch is not an array")?;
            let mut bodies = Vec::with_capacity(items.len());
            for item in items {
                let spec = JobSpec::from_json(item).map_err(|e| format!("decode: {e}"))?;
                bodies.push(run_spec(&spec, &NoTraces)?);
            }
            Ok(format!("[{}]", bodies.join(",")))
        }
    }
}

/// Recomputes the verified prefix in process and compares it byte for
/// byte. Returns the problems found and the prefix digest.
pub fn verify(inputs: &Inputs, prefix: &[Option<Vec<u8>>]) -> (Vec<String>, String) {
    let per_round = inputs.workload.requests_per_round() as usize;
    let received: Vec<(usize, &Vec<u8>)> = prefix
        .iter()
        .enumerate()
        .filter_map(|(i, body)| body.as_ref().map(|b| (i, b)))
        .collect();
    let problems: Vec<String> = par_map(received.clone(), |(index, body)| {
        let r = (index / per_round) as u64;
        let request = inputs.round(r).swap_remove(index % per_round);
        match expected_body(inputs, r, &request) {
            Ok(expected) if expected.as_bytes() == body.as_slice() => None,
            Ok(_) => Some(format!("response {index} differs from the in-process run")),
            Err(e) => Some(format!("response {index}: {e}")),
        }
    })
    .into_iter()
    .flatten()
    .collect();
    let mut concatenated = String::new();
    for (_, body) in &received {
        concatenated.push_str(&String::from_utf8_lossy(body));
    }
    (problems, CacheKey::of(&concatenated).hex())
}

/// The model's headline ratios over the first `rounds` verified
/// `design_sweep` batches, averaged as the Fig. 5 and Fig. 7 reports
/// average them: mean pure-SRAM vulnerability over mean FTSPM
/// vulnerability, and the mean of FTSPM/pure-SRAM dynamic energy as a
/// saving in percent.
pub fn model_ratios(prefix: &[Option<Vec<u8>>], rounds: usize) -> Option<(f64, f64)> {
    let (mut sram_vuln, mut ftspm_vuln, mut energy) = (0.0, 0.0, 0.0);
    let mut n = 0usize;
    for body in prefix.iter().take(rounds) {
        let doc = json::parse(body.as_ref()?).ok()?;
        let points = doc.as_arr()?;
        let field = |i: usize, name: &str| points.get(i)?.get(name).and_then(Json::as_f64);
        // Point 0 is FTSPM under the reliability target, point 4 pure SRAM.
        sram_vuln += field(4, "vulnerability")?;
        ftspm_vuln += field(0, "vulnerability")?;
        energy += field(0, "spm_dynamic_pj")? / field(4, "spm_dynamic_pj")?;
        n += 1;
    }
    (n > 0).then(|| (sram_vuln / ftspm_vuln, (energy / n as f64 - 1.0) * 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_fields_are_summed() {
        let body = br#"[{"cycles":9,"instructions":120,"x":1},{"instructions":3}]"#;
        assert_eq!(instructions(body), 123);
        assert_eq!(count(body, b"instructions"), 2);
    }

    #[test]
    fn thinning_keeps_an_even_stride() {
        let mut samples = Samples {
            stride: 1,
            seen: 0,
            kept: Vec::new(),
        };
        for i in 0..(SAMPLE_CAP as u64 * 3) {
            samples.push(Sample {
                endpoint: Endpoint::Run,
                ns: i,
            });
        }
        assert!(samples.kept.len() < SAMPLE_CAP);
        assert!(samples.kept.iter().all(|s| s.ns % samples.stride == 0));
    }
}
