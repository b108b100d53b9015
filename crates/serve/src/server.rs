//! The service itself: a bounded-queue accept loop and a connection
//! worker pool.
//!
//! Threading model: one accept thread pushes accepted connections onto
//! a bounded queue; `workers` pool threads pop and serve them — each
//! connection through a keep-alive loop that parses sequential
//! requests off the same socket until the client closes, asks to
//! close, exceeds the per-connection request bound, or sits idle past
//! the idle window (a typed 408). Every job runs inside the request
//! that carried it, so no work outlives a response.
//! When the connection queue is full the **accept thread** answers
//! `503` with `retry-after` directly — backpressure is explicit and
//! immediate, not a silently growing buffer. Batch requests fan out
//! over `ftspm_testkit::par` with the same worker count, so the
//! ordered seed-substream discipline that makes campaign sharding
//! deterministic also makes `/v1/batch` bodies identical at every pool
//! size. The elements of one batch that share a
//! [`JobSpec::profile_key`] share one profiling pass.
//!
//! Every execution path — `/v1/run` and each `/v1/batch` element — goes
//! through the content-addressed result cache
//! ([`crate::cache`]): the determinism contract makes a hit
//! byte-identical to the fresh run it replaces, so the cache changes
//! `serve.cache.*` counters and latency, nothing else.
//!
//! Lock discipline: `queue`, `registry`, `cache`, and `traces` are
//! four independent mutexes and no code path holds two at once —
//! lock, update, unlock, then take the next (the trace resolver locks,
//! clones an `Arc`, and unlocks before any run state exists). That
//! makes deadlock impossible by construction and keeps panic poisoning
//! (always recovered via `relock`) from ever wedging more than one
//! update.
//!
//! Shutdown is graceful: [`Server::shutdown`] stops accepting, lets the
//! workers drain every connection already queued, and joins all
//! threads. Dropping the server does the same.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use ftspm_harness::{ProfilePass, RunError};
use ftspm_obs::MetricsRegistry;
use ftspm_testkit::par;

use ftspm_trace::{Tail, Trace, TraceId, TraceResolver, WorkloadSource};

use crate::cache::{CacheKey, CachedResult, ResultCache};
use crate::http::{read_next_request, HttpError, Request, Response};
use crate::job::{JobError, JobOutput, JobRunError, JobSpec};
use crate::json::{self, Json};
use crate::traces::{Stored, TraceTable};

/// Cap on jobs in one `/v1/batch` request.
pub const MAX_BATCH_JOBS: usize = 256;

/// Why the service failed to boot. These are the conditions a caller
/// can reasonably hit and handle (a busy port above all); `repro serve`
/// prints them and exits instead of unwinding with a backtrace.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Binding the listen address failed (port in use, bad address,
    /// privileged port, …).
    Bind {
        /// The address that was requested.
        addr: String,
        /// The underlying bind error.
        source: io::Error,
    },
    /// The bound listener's local address could not be read.
    LocalAddr(io::Error),
    /// An accept or worker thread could not be spawned.
    Spawn(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            Self::LocalAddr(e) => write!(f, "cannot read listener address: {e}"),
            Self::Spawn(e) => write!(f, "cannot spawn service thread: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Bind { source, .. } => Some(source),
            Self::LocalAddr(e) | Self::Spawn(e) => Some(e),
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker pool size; also the `/v1/batch` fan-out width. Defaults
    /// to the `FTSPM_THREADS` knob ([`par::thread_count`]).
    pub workers: NonZeroUsize,
    /// Connections held while all workers are busy; beyond this the
    /// accept thread answers 503. Defaults to 64.
    pub queue_depth: usize,
    /// Socket read/write timeout per connection. A client that stalls
    /// mid-request gets a 408, never a hung worker. Defaults to 5 s.
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server answers a typed 408 and closes (counted as
    /// `serve.conn.idle_timeout`, not as a request). Defaults to 5 s.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (`connection: close` on the final response); bounds how long a
    /// single client can hold a worker. Defaults to 1024, minimum 1.
    pub max_requests_per_connection: usize,
    /// Result-cache entries held (LRU); 0 disables caching. Defaults
    /// to 128.
    pub cache_capacity: usize,
    /// Uploaded traces held (oldest evicted when full; every stored
    /// trace is evictable, so uploads never 503). Defaults to 64,
    /// minimum 1.
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: par::thread_count(),
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1024,
            cache_capacity: 128,
            trace_capacity: 64,
        }
    }
}

struct Queue {
    conns: VecDeque<TcpStream>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
    registry: Mutex<MetricsRegistry>,
    cache: Mutex<ResultCache>,
    traces: Mutex<TraceTable>,
    config: ServeConfig,
}

/// [`TraceResolver`] over the server's shared trace table: locks,
/// clones the `Arc`, unlocks — never held across a run.
struct SharedTraces<'a>(&'a Shared);

impl TraceResolver for SharedTraces<'_> {
    fn resolve(&self, id: TraceId) -> Option<Arc<Trace>> {
        relock(&self.0.traces).get(id)
    }
}

/// Poison-recovering lock: a panic between lock and unlock (anywhere,
/// ever) must not wedge the accept thread, the workers, or `shutdown`.
/// The guarded state is a connection queue and a counter registry —
/// both meaningful after any partial update — so recovering the guard
/// is always safe.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running service; see the module docs for the threading model.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and boots the service on it — the `repro serve`
    /// entry point.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address is busy or invalid, plus
    /// everything [`Server::start`] can return.
    pub fn bind(addr: &str, config: ServeConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|source| ServeError::Bind {
            addr: addr.to_string(),
            source,
        })?;
        Self::start(listener, config)
    }

    /// Boots the service on an already-bound listener (tests use
    /// `ftspm_testkit::ephemeral_listener`; `repro serve` binds an
    /// explicit address via [`Server::bind`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::LocalAddr`] / [`ServeError::Spawn`] when the
    /// listener's address cannot be read or a service thread cannot be
    /// spawned. Threads spawned before the failure are shut down before
    /// returning.
    pub fn start(listener: TcpListener, config: ServeConfig) -> Result<Self, ServeError> {
        let addr = listener.local_addr().map_err(ServeError::LocalAddr)?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                conns: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            registry: Mutex::new(MetricsRegistry::new()),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            traces: Mutex::new(TraceTable::new(config.trace_capacity)),
            config,
        });
        let mut server = Self {
            addr,
            shared: Arc::clone(&shared),
            accept: None,
            workers: Vec::new(),
        };
        for i in 0..shared.config.workers.get() {
            let shared = Arc::clone(&shared);
            let worker = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(ServeError::Spawn)?;
            // On a later spawn failure, `server` drops here and its
            // shutdown path joins the workers already running.
            server.workers.push(worker);
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(ServeError::Spawn)?
        };
        server.accept = Some(accept);
        Ok(server)
    }

    /// The address the service is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains every already-queued connection, and
    /// joins all service threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut q = relock(&self.shared.queue);
            if q.shutdown {
                return;
            }
            q.shutdown = true;
        }
        self.shared.ready.notify_all();
        // The accept thread is parked in accept(); poke it awake so it
        // observes the flag. The connection itself is queued and served
        // (or refused) like any other — harmless either way.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let conn = match listener.accept() {
            Ok((conn, _)) => conn,
            Err(_) => {
                // Transient accept errors (EMFILE, aborted handshake):
                // keep serving unless we are shutting down.
                if relock(&shared.queue).shutdown {
                    return;
                }
                continue;
            }
        };
        let mut q = relock(&shared.queue);
        if q.shutdown {
            return;
        }
        if q.conns.len() >= shared.config.queue_depth {
            drop(q);
            relock(&shared.registry).incr("serve.refused");
            refuse(conn, shared.config.read_timeout);
            continue;
        }
        q.conns.push_back(conn);
        drop(q);
        shared.ready.notify_one();
    }
}

/// Answers 503 + `retry-after` on the accept thread: backpressure must
/// not depend on a worker becoming free.
fn refuse(mut conn: TcpStream, timeout: Duration) {
    let _ = conn.set_write_timeout(Some(timeout));
    let busy = Response {
        retry_after: Some(1),
        ..Response::error(503, "job queue full; retry shortly")
    };
    let _ = busy.write_framed(&mut conn, true, false);
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut q = relock(&shared.queue);
            loop {
                if let Some(conn) = q.conns.pop_front() {
                    break conn;
                }
                if q.shutdown {
                    return;
                }
                q = shared.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        serve_connection(conn, shared);
    }
}

/// The `serve.malformed.*` counter for a request the service turned
/// away without running anything: bad framing, bad routing, or a bad
/// job spec. Keyed by status so `/metrics` shows the failure classes
/// separately (`501`/`505` are protocol-level rejections and count
/// here too; `500`/`503`/`504` are accounted by their own counters).
fn malformed_counter(status: u16) -> Option<&'static str> {
    Some(match status {
        400 => "serve.malformed.400",
        404 => "serve.malformed.404",
        405 => "serve.malformed.405",
        408 => "serve.malformed.408",
        411 => "serve.malformed.411",
        413 => "serve.malformed.413",
        414 => "serve.malformed.414",
        422 => "serve.malformed.422",
        431 => "serve.malformed.431",
        501 => "serve.malformed.501",
        505 => "serve.malformed.505",
        401..=499 => "serve.malformed.4xx",
        _ => return None,
    })
}

/// The keep-alive connection loop: parses sequential requests off one
/// socket until the client closes (clean EOF), asks to close, trips a
/// parse error, exceeds the per-connection request bound, or idles
/// past the idle window.
///
/// The response bytes are identical to the one-shot path except for
/// the `connection:` header (pinned by `http::tests`), which is what
/// makes N pipelined requests produce exactly the concatenation of N
/// fresh-connection responses, `connection:` aside.
fn serve_connection(conn: TcpStream, shared: &Shared) {
    let config = &shared.config;
    let _ = conn.set_read_timeout(Some(config.read_timeout));
    let _ = conn.set_write_timeout(Some(config.read_timeout));
    // Responses go out as several small writes; on a keep-alive
    // connection Nagle + delayed ACK would turn that into ~40 ms per
    // round trip.
    let _ = conn.set_nodelay(true);
    let max_requests = config.max_requests_per_connection.max(1);
    let mut reader = BufReader::new(&conn);
    let mut served = 0usize;
    loop {
        let (response, close, head_only) = match read_next_request(&mut reader) {
            // Clean EOF between requests: the client hung up, which is
            // how a keep-alive conversation normally ends.
            Ok(None) => return,
            Ok(Some(request)) => {
                served += 1;
                if served > 1 {
                    // Count the reuse before routing: by the time the
                    // client holds response #2, /metrics includes it.
                    relock(&shared.registry).incr("serve.conn.reused");
                }
                let close = request.close || served >= max_requests;
                (route(&request, shared), close, request.method == "HEAD")
            }
            Err(HttpError::IdleTimeout) if served > 0 => {
                // A reused connection idled out with no request in
                // flight: typed 408, counted as an idle close — not as
                // a request, because the client never sent one.
                relock(&shared.registry).incr("serve.conn.idle_timeout");
                let mut writer = &conn;
                let _ = http_error_response(&HttpError::IdleTimeout).write_framed(
                    &mut writer,
                    true,
                    false,
                );
                return;
            }
            Err(e) => {
                let response = http_error_response(&e);
                {
                    let mut registry = relock(&shared.registry);
                    registry.incr("serve.requests");
                    if let Some(counter) = malformed_counter(response.status) {
                        registry.incr(counter);
                    }
                }
                // Framing is broken (or the very first read timed
                // out); the only safe move is answer-and-close.
                let mut writer = &conn;
                let _ = response.write_framed(&mut writer, true, false);
                return;
            }
        };
        // Count before writing: once the client holds the response, a
        // subsequent `/metrics` fetch must already include this request.
        {
            let mut registry = relock(&shared.registry);
            registry.incr("serve.requests");
            if let Some(counter) = malformed_counter(response.status) {
                registry.incr(counter);
            }
        }
        // A write error means the client went away; the connection
        // closes when it drops, so there is nothing to clean up.
        let mut writer = &conn;
        if response
            .write_framed(&mut writer, close, head_only)
            .is_err()
            || close
        {
            return;
        }
        if served == 1 {
            // Between requests the idle window applies, not the
            // per-frame read timeout.
            let _ = conn.set_read_timeout(Some(config.idle_timeout));
        }
    }
}

fn http_error_response(e: &HttpError) -> Response {
    Response::error(e.status(), &e.to_string())
}

fn job_error_response(e: &JobError) -> Response {
    Response::error(e.status(), &e.to_string())
}

/// One job's fate after execution under panic isolation.
enum ExecOutcome {
    /// The run completed and rendered a report.
    Done(JobOutput),
    /// The run was cancelled by its `deadline_cycles` budget.
    Deadline { deadline_cycles: u64, cycle: u64 },
    /// The workload did not resolve at execution time — a trace id with
    /// no stored trace behind it (never uploaded, or evicted).
    Unresolved(String),
    /// The run panicked; the worker caught it and carries the message.
    Panicked(String),
}

impl ExecOutcome {
    /// The HTTP status for this outcome: 200 report, 504 deadline kill,
    /// 422 unresolved workload, 500 caught panic.
    fn status(&self) -> u16 {
        match self {
            Self::Done(_) => 200,
            Self::Deadline { .. } => 504,
            Self::Unresolved(_) => 422,
            Self::Panicked(_) => 500,
        }
    }

    /// The response body for this outcome — also the element rendered
    /// into a `/v1/batch` array, so batch ≡ concatenated singles holds
    /// for failed jobs too.
    fn body(&self) -> String {
        match self {
            Self::Done(output) => output.body.clone(),
            Self::Deadline {
                deadline_cycles,
                cycle,
            } => format!(
                "{{\"error\":\"job exceeded its cycle deadline\",\"kind\":\"deadline\",\
                 \"deadline_cycles\":{deadline_cycles},\"cycles\":{cycle}}}"
            ),
            Self::Unresolved(msg) => format!(
                "{{\"error\":{},\"kind\":\"unresolved_workload\"}}",
                json::escape(msg)
            ),
            Self::Panicked(msg) => format!(
                "{{\"error\":{},\"kind\":\"panic\"}}",
                json::escape(&format!("job panicked: {msg}"))
            ),
        }
    }
}

/// Folds one job into the service registry by its response `status`
/// (see [`ExecOutcome::status`]): a report counts `serve.jobs`, its
/// trace counter when `spec` is trace-backed, and merges the job's own
/// registry; a deadline kill counts `serve.deadline_killed`. A cache
/// hit folds through here too, so it accounts exactly as a fresh run.
fn count_job(
    registry: &mut MetricsRegistry,
    spec: &JobSpec,
    status: u16,
    job_registry: Option<&MetricsRegistry>,
) {
    match status {
        200 => {
            registry.incr("serve.jobs");
            match &spec.workload {
                WorkloadSource::Trace(_) => registry.incr("trace.replayed"),
                WorkloadSource::Fitted(_) => registry.incr("trace.fitted"),
                _ => {}
            }
            if let Some(job_registry) = job_registry {
                registry.merge(job_registry);
            }
        }
        504 => registry.incr("serve.deadline_killed"),
        422 => registry.incr("trace.unresolved"),
        _ => registry.incr("serve.panicked"),
    }
}

/// Best-effort text from a caught panic payload (`panic!` carries
/// `&str` or `String`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one spec under `catch_unwind`, profiling through `pass` (see
/// [`JobSpec::profile_key`]): the thread that runs it — a connection
/// worker, or a `/v1/batch` fan-out thread — survives any panic inside
/// the harness or a `chaos_panic` hook, and a deadline cancellation
/// comes back as data. `AssertUnwindSafe` is sound here
/// because the closure owns everything it touches — the spec is read
/// only, the resolver only clones `Arc`s out of the trace table, all
/// run state is constructed, used, and dropped inside, and a pass that
/// panics leaves `pass` empty (`OnceLock` is only ever written whole).
fn execute_spec(spec: &JobSpec, shared: &Shared, pass: &OnceLock<ProfilePass>) -> ExecOutcome {
    let traces = SharedTraces(shared);
    match catch_unwind(AssertUnwindSafe(|| spec.run_sharing(&traces, pass))) {
        Ok(Ok(output)) => ExecOutcome::Done(output),
        Ok(Err(JobRunError::Run(RunError::DeadlineExceeded {
            deadline_cycles,
            cycle,
        }))) => ExecOutcome::Deadline {
            deadline_cycles,
            cycle,
        },
        Ok(Err(JobRunError::Source(e))) => ExecOutcome::Unresolved(e.to_string()),
        Ok(Err(e)) => ExecOutcome::Panicked(format!("unexpected run error: {e}")),
        Err(payload) => ExecOutcome::Panicked(panic_message(payload.as_ref())),
    }
}

/// Runs one spec through the result cache, with full accounting, and
/// returns the `(status, body)` every caller — `/v1/run` or a
/// `/v1/batch` element — answers with.
///
/// A hit replays the stored result: same status, same body bytes, and
/// the same registry accounting a fresh run would have performed
/// ([`count_job`]), plus `serve.cache.hit`. The determinism
/// contract is what makes this sound — the stored bytes *are* the bytes
/// a fresh run would produce. A miss counts `serve.cache.miss`, runs,
/// and caches a report or a deadline kill; panics are never cached
/// (there is no deterministic result to replay), nor are unresolved
/// workloads, and `chaos_panic` specs bypass the cache entirely. A hit never touches `pass`; a miss profiles
/// through it.
fn run_cached(spec: &JobSpec, shared: &Shared, pass: &OnceLock<ProfilePass>) -> (u16, String) {
    let key = spec.cacheable().then(|| CacheKey::of(&spec.canonical()));
    if let Some(key) = key {
        if let Some(hit) = relock(&shared.cache).get(key) {
            let mut registry = relock(&shared.registry);
            registry.incr("serve.cache.hit");
            count_job(&mut registry, spec, hit.status, hit.registry.as_ref());
            return (hit.status, hit.body);
        }
        relock(&shared.registry).incr("serve.cache.miss");
    }
    let outcome = execute_spec(spec, shared, pass);
    let status = outcome.status();
    let job_registry = match &outcome {
        ExecOutcome::Done(output) => output.registry.as_ref(),
        _ => None,
    };
    count_job(&mut relock(&shared.registry), spec, status, job_registry);
    let body = outcome.body();
    if let Some(key) = key {
        // An unresolved workload is never cached: the trace table is
        // mutable (uploads and evictions), so "unknown trace" today can
        // be a real report tomorrow. Done outcomes of trace-backed
        // specs ARE cacheable — the id is content-addressed, so the
        // same id always names the same bytes.
        let store = match &outcome {
            ExecOutcome::Done(output) => Some(output.registry.clone()),
            ExecOutcome::Deadline { .. } => Some(None),
            ExecOutcome::Unresolved(_) | ExecOutcome::Panicked(_) => None,
        };
        if let Some(registry) = store {
            let evicted = relock(&shared.cache).insert(
                key,
                CachedResult {
                    status,
                    body: body.clone(),
                    registry,
                },
            );
            if evicted {
                relock(&shared.registry).incr("serve.cache.evict");
            }
        }
    }
    (status, body)
}

fn route(request: &Request, shared: &Shared) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        // HEAD gets the GET headers (content-length included) with the
        // body suppressed at write time — liveness probes over
        // keep-alive use it.
        ("GET" | "HEAD", "/healthz") => Response::json("{\"status\":\"ok\"}".to_string()),
        ("GET" | "HEAD", "/metrics") => {
            let snapshot = relock(&shared.registry).snapshot();
            Response::csv(snapshot.to_csv())
        }
        ("POST", "/v1/run") => run_one(&request.body, shared),
        ("POST", "/v1/batch") => run_batch(&request.body, shared),
        ("POST", "/v1/traces") => upload_trace(&request.body, shared),
        (_, "/healthz" | "/metrics") => Response::method_not_allowed("GET, HEAD"),
        (_, "/v1/run" | "/v1/batch" | "/v1/traces") => Response::method_not_allowed("POST"),
        _ => Response::error(404, "unknown path"),
    }
}

fn run_one(body: &[u8], shared: &Shared) -> Response {
    let spec = match JobSpec::parse(body) {
        Ok(spec) => spec,
        Err(e) => return job_error_response(&e),
    };
    let (status, body) = run_cached(&spec, shared, &OnceLock::new());
    Response::json_status(status, body)
}

/// `POST /v1/traces`: ingest a binary `FTSPMTRC` trace. The body is
/// decoded up front (a malformed upload is rejected now, not at run
/// time), addressed by content (`TraceId::of` over the raw bytes, so
/// re-uploads are idempotent), and stored in the bounded trace table.
/// Torn or incomplete traces are rejected too: replay determinism
/// demands the full op stream, and the recorded checksum covers it.
/// The HTTP layer's body cap (1 MiB) bounds upload size with a 413.
fn upload_trace(body: &[u8], shared: &Shared) -> Response {
    let reject = |msg: &str, shared: &Shared| {
        relock(&shared.registry).incr("trace.rejected");
        Response {
            body: format!("{{\"error\":{},\"kind\":\"bad_trace\"}}", json::escape(msg))
                .into_bytes(),
            ..Response::error(400, msg)
        }
    };
    let (trace, tail) = match Trace::decode(body) {
        Ok(decoded) => decoded,
        Err(e) => return reject(&format!("trace rejected: {e}"), shared),
    };
    if tail == Tail::Torn || !trace.complete() {
        return reject(
            "trace rejected: torn tail (incomplete op stream; re-record and re-upload)",
            shared,
        );
    }
    let id = TraceId::of(body);
    let name = trace.name.clone();
    let ops = trace.op_count;
    let stored = relock(&shared.traces).insert(id, Arc::new(trace));
    let state = {
        let mut registry = relock(&shared.registry);
        match stored {
            Stored::Added { evicted } => {
                registry.incr("trace.uploaded");
                if evicted {
                    registry.incr("trace.evicted");
                }
                "stored"
            }
            Stored::Existing => "exists",
        }
    };
    Response::json_status(
        200,
        format!(
            "{{\"trace\":\"{id}\",\"name\":{},\"ops\":{ops},\"state\":\"{state}\"}}",
            json::escape(&name)
        ),
    )
}

fn run_batch(body: &[u8], shared: &Shared) -> Response {
    let doc = match json::parse(body) {
        Ok(doc) => doc,
        Err(e) => return job_error_response(&e.into()),
    };
    let Json::Arr(items) = doc else {
        return Response::error(400, "batch body must be a JSON array of job specs");
    };
    if items.len() > MAX_BATCH_JOBS {
        return Response::error(
            400,
            &format!(
                "batch of {} exceeds the {MAX_BATCH_JOBS}-job cap",
                items.len()
            ),
        );
    }
    let mut specs = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match JobSpec::from_json(item) {
            Ok(spec) => specs.push(spec),
            Err(e) => return Response::error(400, &format!("job {i}: {e}")),
        }
    }
    // Fan out over the deterministic executor: results come back in
    // input order at any worker count, so the concatenated body is a
    // pure function of the request. Each element runs under its own
    // panic isolation and through the result cache — a panicking or
    // deadline-killed job renders its typed error object in place
    // while its neighbours report normally, and a cached element
    // replays bytes identical to a fresh run. Elements that share a
    // profile key share one profiling pass: the pass reads only the
    // workload and its core count, so the bytes cannot tell. Each
    // element owns a handle on its cell and drops it when done, so a
    // pass is freed once the last element that needs it has run.
    let cells = profile_cells(&specs);
    let elements = specs.into_iter().zip(cells).collect();
    let results = par::par_map_threads(shared.config.workers, elements, |(spec, cell)| {
        run_cached(&spec, shared, &cell).1
    });
    let mut merged = String::from("[");
    for (i, body) in results.iter().enumerate() {
        if i > 0 {
            merged.push(',');
        }
        merged.push_str(body);
    }
    merged.push(']');
    Response::json(merged)
}

/// Single-flight profiling for one batch: each spec's handle on its
/// profiling cell. Specs with one [`JobSpec::profile_key`] share a cell;
/// a keyless spec gets a private one. A cell — and the pass in it —
/// lives as long as the last handle on it.
fn profile_cells<T>(specs: &[JobSpec]) -> Vec<Arc<OnceLock<T>>> {
    let mut by_key: HashMap<String, Arc<OnceLock<T>>> = HashMap::new();
    specs
        .iter()
        .map(|spec| match spec.profile_key() {
            Some(key) => Arc::clone(by_key.entry(key).or_default()),
            None => Arc::default(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspm_testkit::{ephemeral_listener, http_request};

    fn boot(workers: usize) -> Server {
        let (listener, _) = ephemeral_listener();
        Server::start(
            listener,
            ServeConfig {
                workers: NonZeroUsize::new(workers).expect("nonzero workers"),
                ..ServeConfig::default()
            },
        )
        .expect("boot")
    }

    /// Runs `f` with the default panic hook silenced: these tests
    /// deliberately panic inside worker threads, and the isolation
    /// under test catches every one, so the default hook's backtrace
    /// spew is pure noise. The hook is process-global, so tests using
    /// this helper serialise on a lock.
    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        static HOOK: Mutex<()> = Mutex::new(());
        let _guard = relock(&HOOK);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(AssertUnwindSafe(f));
        std::panic::set_hook(previous);
        result.unwrap_or_else(|p| std::panic::resume_unwind(p))
    }

    /// Single-flight: elements that share a profile key run one pass
    /// between them at any thread count, keyless elements each run
    /// their own, and the cells group elements as `profile_key` says.
    #[test]
    fn a_batch_profiles_each_distinct_key_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let specs: Vec<JobSpec> = [
            r#"{"workload": "crc32"}"#,
            r#"{"workload": "crc32", "optimize": "power"}"#,
            r#"{"workload": "crc32", "structure": "pure_stt", "cores": 1}"#,
            r#"{"workload": "crc32", "deadline_cycles": 100}"#,
            r#"{"workload": "sha"}"#,
            r#"{"workload": "reduction", "cores": 2}"#,
            r#"{"workload": "reduction", "cores": 2, "metrics": true}"#,
            r#"{"workload": "reduction", "cores": 4}"#,
            r#"{"workload": "crc32", "chaos_panic": true}"#,
            r#"{"workload": "sha", "faults": {"seed": 1, "mean_cycles_between_strikes": 9.0}}"#,
        ]
        .iter()
        .map(|body| JobSpec::parse(body.as_bytes()).expect("decodes"))
        .collect();
        // Elements 0-2 share a cell, 4 and 9, 5 and 6; the rest are alone.
        let groups = [0, 0, 0, 1, 2, 3, 3, 4, 5, 2];
        let cells = profile_cells::<usize>(&specs);
        for (i, a) in cells.iter().enumerate() {
            for (j, b) in cells.iter().enumerate() {
                assert_eq!(Arc::ptr_eq(a, b), groups[i] == groups[j], "{i} vs {j}");
            }
        }
        for threads in [1, 2, 8] {
            let passes = AtomicUsize::new(0);
            let seen = par::par_map_threads(
                NonZeroUsize::new(threads).expect("nonzero"),
                profile_cells::<usize>(&specs),
                |cell| *cell.get_or_init(|| passes.fetch_add(1, Ordering::SeqCst)),
            );
            // 4 distinct keys + 2 keyless specs.
            assert_eq!(passes.load(Ordering::SeqCst), 6, "threads={threads}");
            for (i, pass) in seen.iter().enumerate() {
                let first = groups
                    .iter()
                    .position(|g| *g == groups[i])
                    .expect("own group");
                assert_eq!(*pass, seen[first], "element {i}, threads={threads}");
            }
        }
        // Forced contention: one element per thread, all on one key, and
        // the pass does not finish until every element has arrived, so
        // the others meet it running rather than finished.
        for threads in [2, 8] {
            let specs: Vec<JobSpec> = (0..threads)
                .map(|i| {
                    let body = format!(r#"{{"workload": "crc32", "metrics": {}}}"#, i % 2 == 0);
                    JobSpec::parse(body.as_bytes()).expect("decodes")
                })
                .collect();
            let (arrived, passes) = (AtomicUsize::new(0), AtomicUsize::new(0));
            par::par_map_threads(
                NonZeroUsize::new(threads).expect("nonzero"),
                profile_cells::<()>(&specs),
                |cell| {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    cell.get_or_init(|| {
                        let start = std::time::Instant::now();
                        while arrived.load(Ordering::SeqCst) < threads {
                            assert!(start.elapsed() < Duration::from_secs(30), "stuck");
                            std::thread::yield_now();
                        }
                        passes.fetch_add(1, Ordering::SeqCst);
                    });
                },
            );
            assert_eq!(passes.load(Ordering::SeqCst), 1, "threads={threads}");
        }
    }

    /// A pass is freed as soon as the last element of its key has run,
    /// not when the batch ends: a batch over many workloads holds only
    /// the passes its unfinished elements still need.
    #[test]
    fn a_pass_is_freed_after_the_last_element_of_its_key() {
        let specs: Vec<JobSpec> = [
            r#"{"workload": "crc32"}"#,
            r#"{"workload": "crc32", "structure": "pure_sram"}"#,
            r#"{"workload": "sha"}"#,
            r#"{"workload": "sha", "optimize": "power"}"#,
            r#"{"workload": "qsort"}"#,
        ]
        .iter()
        .map(|body| JobSpec::parse(body.as_bytes()).expect("decodes"))
        .collect();
        let cells = profile_cells::<Vec<u8>>(&specs);
        let weak: Vec<_> = cells.iter().map(Arc::downgrade).collect();
        let last_of = [1, 1, 3, 3, 4];
        let elements: Vec<_> = cells.into_iter().enumerate().collect();
        par::par_map_threads(NonZeroUsize::MIN, elements, |(i, cell)| {
            cell.get_or_init(|| vec![0; 1 << 20]);
            for (j, w) in weak.iter().enumerate() {
                assert_eq!(
                    w.upgrade().is_none(),
                    last_of[j] < i,
                    "cell {j} at element {i}"
                );
            }
        });
        assert!(weak.iter().all(|w| w.upgrade().is_none()));
    }

    /// A pass that panics leaves its cell empty: the panicking element
    /// answers its typed 500, and the next element with the key
    /// profiles afresh — and reports exactly what `run_with` does —
    /// instead of finding a half-written pass.
    #[test]
    fn a_panicking_pass_leaves_the_cell_for_the_next_element() {
        with_quiet_panics(|| {
            let server = boot(1);
            let cell: OnceLock<ProfilePass> = OnceLock::new();
            let first = catch_unwind(AssertUnwindSafe(|| {
                cell.get_or_init(|| panic!("profiling pass panicked"));
            }));
            assert!(first.is_err());
            assert!(cell.get().is_none(), "a panicked pass stores nothing");
            let spec = JobSpec::parse(br#"{"workload": "crc32"}"#).expect("decodes");
            let ExecOutcome::Done(output) = execute_spec(&spec, &server.shared, &cell) else {
                panic!("the next element runs normally");
            };
            assert!(
                cell.get().is_some(),
                "the next element profiled into the cell"
            );
            assert_eq!(output.body, spec.run().expect("runs").body);
        });
    }

    #[test]
    fn healthz_and_unknown_paths_route() {
        let server = boot(2);
        let ok = http_request(server.addr(), "GET", "/healthz", b"").expect("healthz");
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body_str(), "{\"status\":\"ok\"}");
        let missing = http_request(server.addr(), "GET", "/nope", b"").expect("404");
        assert_eq!(missing.status, 404);
        let wrong_method = http_request(server.addr(), "POST", "/healthz", b"{}").expect("405");
        assert_eq!(wrong_method.status, 405);
        let wrong_method = http_request(server.addr(), "GET", "/v1/run", b"").expect("405");
        assert_eq!(wrong_method.status, 405);
        // A path no route serves is a 404 whatever the method; the
        // removed job-API paths included.
        for (method, path) in [
            ("POST", "/v1/jobs"),
            ("GET", "/v1/jobs/abc123"),
            ("DELETE", "/v1/jobs/abc123"),
        ] {
            let gone = http_request(server.addr(), method, path, b"").expect("404");
            assert_eq!(gone.status, 404, "{method} {path}");
        }
    }

    #[test]
    fn malformed_bodies_get_typed_4xx() {
        let server = boot(2);
        let bad_json = http_request(server.addr(), "POST", "/v1/run", b"{not json").expect("reply");
        assert_eq!(bad_json.status, 400);
        assert!(bad_json.body_str().contains("error"));
        // An unknown kernel name is semantically valid JSON with an
        // unprocessable value: 422, and the body lists the real names.
        let bad_spec = http_request(server.addr(), "POST", "/v1/run", br#"{"workload": "nope"}"#)
            .expect("reply");
        assert_eq!(bad_spec.status, 422, "{}", bad_spec.body_str());
        assert!(
            bad_spec.body_str().contains("crc32"),
            "{}",
            bad_spec.body_str()
        );
        let bad_batch = http_request(
            server.addr(),
            "POST",
            "/v1/batch",
            br#"[{"workload": "crc32"}, {"workload": 42}]"#,
        )
        .expect("reply");
        assert_eq!(bad_batch.status, 400);
        assert!(
            bad_batch.body_str().contains("job 1"),
            "{}",
            bad_batch.body_str()
        );
    }

    #[test]
    fn run_serves_a_job_and_metrics_accumulate() {
        let mut server = boot(2);
        let body = br#"{"workload": {"synthetic": {"buffer_words": 32, "accesses": 200}},
                        "metrics": true}"#;
        let reply = http_request(server.addr(), "POST", "/v1/run", body).expect("run");
        assert_eq!(reply.status, 200, "{}", reply.body_str());
        assert_eq!(reply.header("content-type"), Some("application/json"));
        let report = json::parse(&reply.body).expect("valid report JSON");
        assert_eq!(
            report.get("workload").and_then(Json::as_str),
            Some("synthetic")
        );
        let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
        assert_eq!(metrics.status, 200);
        assert_eq!(metrics.header("content-type"), Some("text/csv"));
        assert!(metrics.body_str().contains("serve.jobs,counter,,1"));
        server.shutdown();
    }

    #[test]
    fn a_panicking_job_gets_a_typed_500_and_the_pool_keeps_serving() {
        with_quiet_panics(|| {
            let mut server = boot(1);
            let chaos = br#"{"workload": "crc32", "chaos_panic": true}"#;
            let reply = http_request(server.addr(), "POST", "/v1/run", chaos).expect("reply");
            assert_eq!(reply.status, 500, "{}", reply.body_str());
            let body = json::parse(&reply.body).expect("typed error body");
            assert_eq!(body.get("kind").and_then(Json::as_str), Some("panic"));
            assert!(body
                .get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("chaos_panic")));
            // The sole worker survived: the next job on the same pool
            // is served normally, and /metrics kept working throughout.
            let ok = http_request(
                server.addr(),
                "POST",
                "/v1/run",
                br#"{"workload": "crc32"}"#,
            )
            .expect("reply");
            assert_eq!(ok.status, 200, "{}", ok.body_str());
            let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
            assert!(metrics.body_str().contains("serve.panicked,counter,,1"));
            assert!(metrics.body_str().contains("serve.jobs,counter,,1"));
            server.shutdown();
        });
    }

    #[test]
    fn a_deadline_killed_job_gets_a_typed_504() {
        let server = boot(2);
        let body = br#"{"workload": "crc32", "deadline_cycles": 100}"#;
        let reply = http_request(server.addr(), "POST", "/v1/run", body).expect("reply");
        assert_eq!(reply.status, 504, "{}", reply.body_str());
        let parsed = json::parse(&reply.body).expect("typed error body");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("deadline"));
        assert_eq!(
            parsed.get("deadline_cycles").and_then(Json::as_u64),
            Some(100)
        );
        assert!(parsed.get("cycles").and_then(Json::as_u64).is_some());
        let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
        assert!(metrics
            .body_str()
            .contains("serve.deadline_killed,counter,,1"));
    }

    #[test]
    fn batch_elements_fail_independently() {
        with_quiet_panics(|| {
            let server = boot(2);
            let batch = br#"[{"workload": "crc32"},
                            {"workload": "crc32", "chaos_panic": true},
                            {"workload": "crc32", "deadline_cycles": 100}]"#;
            let reply = http_request(server.addr(), "POST", "/v1/batch", batch).expect("reply");
            assert_eq!(reply.status, 200, "{}", reply.body_str());
            let Json::Arr(items) = json::parse(&reply.body).expect("array body") else {
                panic!("batch body must be an array");
            };
            assert_eq!(items.len(), 3);
            assert!(items[0].get("cycles").is_some(), "healthy job reported");
            assert_eq!(items[1].get("kind").and_then(Json::as_str), Some("panic"));
            assert_eq!(
                items[2].get("kind").and_then(Json::as_str),
                Some("deadline")
            );
        });
    }

    #[test]
    fn malformed_requests_count_by_status_class() {
        let server = boot(1);
        let _ = http_request(server.addr(), "POST", "/v1/run", b"{not json").expect("400");
        let _ = http_request(server.addr(), "GET", "/nope", b"").expect("404");
        let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
        let body = metrics.body_str();
        assert!(body.contains("serve.malformed.400,counter,,1"), "{body}");
        assert!(body.contains("serve.malformed.404,counter,,1"), "{body}");
    }

    #[test]
    fn binding_a_busy_port_is_a_typed_error() {
        let (listener, addr) = ephemeral_listener();
        let err = Server::bind(&addr.to_string(), ServeConfig::default())
            .err()
            .expect("port is held by `listener`");
        assert!(matches!(err, ServeError::Bind { .. }), "{err}");
        assert!(err.to_string().contains("cannot bind"), "{err}");
        drop(listener);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut server = boot(1);
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        drop(server);
        // The port is released: a fresh bind to the same addr works.
        assert!(TcpListener::bind(addr).is_ok());
    }
}
