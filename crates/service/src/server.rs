//! The long-running compile→plan→execute daemon.
//!
//! [`PlanService::start`] binds a localhost TCP listener and serves the
//! newline-delimited JSON protocol of [`crate::proto`]. The moving parts:
//!
//! * an **accept thread** that registers connections and spawns one
//!   reader thread per client;
//! * **reader threads** that parse request lines and enqueue them into a
//!   **bounded** [`Channel`] (backpressure: a flood of requests blocks
//!   the flooding client's reader, not the server);
//! * **handler threads** ([`ServiceConfig::handlers`] of them) that take
//!   requests off the queue. A cold build's per-function `par_map`s (PDG
//!   build, planning) fan out over the process-global analysis pool. An
//!   `execute` runs its chunked loops on the handler thread and on that
//!   same pool: the handler claims chunks alongside whichever pool threads
//!   are free. Every handler goes through the one shared [`PlanStore`], so
//!   concurrent clients asking for the same program share a single build;
//! * the store's **reaper** thread, spawned at its first eviction, which
//!   frees the sessions a handler's build or hit evicted, so the handler
//!   replies without paying for another program's graphs.
//!
//! Responses are written line-by-line under a per-connection mutex, each
//! tagged with the request's echoed `id`, so clients may pipeline. A
//! request line longer than [`MAX_REQUEST_BYTES`] gets
//! `{"ok":false,"error":"request too large"}` and its connection closed.
//!
//! ## Per-op response payloads
//!
//! | op | extra members on success |
//! |----|--------------------------|
//! | `ping` | — |
//! | `plan` | `key`, `abstraction`, `loops`, `techniques`, `mutexes`, `parallel_spawns` |
//! | `execute` | `key`, `abstraction`, `workers`, `ret`, `output`, `steps`, `parallel_ns`, `matches_baseline`, `globals_mismatch`, `chunked_loops`, `sequential_fallbacks` |
//! | `report` | everything `execute` carries plus `predicted_parallelism`, `sequential_ns` (the untraced `ir::interp` baseline run), `measured_speedup` (`sequential_ns / parallel_ns`), `efficiency`, `fallback_reasons` |
//! | `metrics` | `uptime_ns`, `requests`, `queue_depth`, `cache` (hits/misses/evictions/builds/bytes/entries/budget); with `record` on, also the recorder's totals: `counters` (the fallback causes of executed requests among them), `spans` (exact per-name count/total_ns/max_ns), `queue_depth_mean`, `queue_depth_samples` |
//! | `shutdown` | `draining` |
//!
//! ## Graceful shutdown
//!
//! A `shutdown` request (or [`PlanService::shutdown`]) stops the accept
//! loop, half-closes every client socket's read side, joins the readers,
//! then closes the queue — the [`Channel`] **drains after close**, so
//! every request already enqueued is handled and answered before the
//! handler threads exit and are joined. Nothing in flight is dropped.
//! The store drops with the daemon's last handle on it, and dropping the
//! store joins its reaper once every queued eviction is freed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use pspdg_emulator::PredictedVsMeasured;
use pspdg_ir::interp::RtVal;
use pspdg_obs::Recorder;
use pspdg_pool::Channel;

use crate::hash::key_hex;
use crate::proto::{abstraction_name, parse_request, Envelope, Input, JsonObj, Request};
use crate::session::{Execution, Session, SessionError};
use crate::store::{PlanStore, DEFAULT_BUDGET_BYTES};

/// Longest request line a reader thread will buffer, newline included:
/// two orders of magnitude above the largest source the benchmark sends
/// (`module_cold`, 120 KB). A longer line is answered with an error and
/// its connection closed, so no client can grow a daemon thread's buffer
/// without bound. [`Client`](crate::Client) bounds each response line it
/// reads by the same constant.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Bounded request-queue capacity: a reader blocks once this many parsed
/// requests wait for a handler (backpressure depth).
const QUEUE_CAPACITY: usize = 64;

/// Recorder counters behind the `metrics` op's `queue_depth_mean`: each
/// enqueued request adds the queue's length to the sum and one sample.
const QUEUE_DEPTH_SUM: &str = "service/queue_depth_sum";
const QUEUE_DEPTH_SAMPLES: &str = "service/queue_depth_samples";

/// Daemon knobs; `Default` is what `pspdg_serve` runs with.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address. Default `127.0.0.1:0` — loopback only, ephemeral
    /// port (read it back from [`PlanService::addr`]).
    pub addr: String,
    /// Concurrent request handlers: plain threads, each fanning a cold
    /// build's per-function work out over the process-global analysis pool
    /// ([`pspdg_pool::par_map`]).
    pub handlers: usize,
    /// Default chunks per chunked activation for `execute`/`report`
    /// requests that do not pick their own: the handler thread runs some
    /// of them, the global pool's free threads the rest.
    pub exec_workers: usize,
    /// [`PlanStore`] LRU byte budget.
    pub budget_bytes: usize,
    /// Attach a recorder (queue-depth and fallback-cause counters,
    /// pipeline span totals — everything the `metrics` op reports past
    /// the store's stats, which count the cache's traffic). Off is no
    /// recorder at all.
    pub record: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            handlers: 4,
            exec_workers: 4,
            budget_bytes: DEFAULT_BUDGET_BYTES,
            record: true,
        }
    }
}

/// One queued request: the parsed envelope plus the connection to answer
/// on (writes serialized by the mutex so pipelined responses interleave
/// whole lines, never bytes).
struct Job {
    env: Envelope,
    out: Arc<Mutex<TcpStream>>,
}

struct SharedState {
    store: PlanStore,
    rec: Option<Arc<Recorder>>,
    exec_workers: usize,
    queue: Channel<Job>,
    stopping: AtomicBool,
    requests: AtomicU64,
    conns: Mutex<Vec<TcpStream>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
    started: Instant,
}

impl SharedState {
    /// Flip the stopping flag and wake everything that blocks on it: the
    /// accept loop (via a self-connection) and any [`PlanService::wait`].
    fn request_shutdown(&self, addr: SocketAddr) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in `accept`; a throwaway connection is
        // the portable way to make it re-check the flag.
        let _ = TcpStream::connect(addr);
        let mut flag = self.shutdown_flag.lock().expect("shutdown lock");
        *flag = true;
        self.shutdown_cv.notify_all();
    }
}

/// A running daemon: bound address plus the thread handles needed to
/// tear it down in order.
pub struct PlanService {
    addr: SocketAddr,
    shared: Arc<SharedState>,
    accept_thread: Option<JoinHandle<()>>,
    handler_threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for PlanService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanService")
            .field("addr", &self.addr)
            .field("store", &self.shared.store)
            .finish()
    }
}

impl PlanService {
    /// Bind, spawn the accept and handler threads, and start serving.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServiceConfig) -> std::io::Result<PlanService> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let rec = config.record.then(|| Arc::new(Recorder::new()));
        let mut store = PlanStore::with_budget(config.budget_bytes);
        if let Some(r) = &rec {
            store = store.with_recorder(Arc::clone(r));
        }
        let shared = Arc::new(SharedState {
            store,
            rec,
            exec_workers: config.exec_workers.max(1),
            queue: Channel::bounded(QUEUE_CAPACITY),
            stopping: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            started: Instant::now(),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("pspdg-accept".to_string())
            .spawn(move || accept_loop(listener, addr, accept_shared))
            .expect("spawn accept thread");

        let handler_threads = (0..config.handlers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pspdg-handler-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.queue.recv() {
                            let line = handle(&shared, &job.env);
                            write_line(&job.out, line);
                        }
                    })
                    .expect("spawn handler thread")
            })
            .collect();

        Ok(PlanService {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            handler_threads,
        })
    }

    /// The bound address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's shared plan store (for tests and embedding).
    pub fn store(&self) -> &PlanStore {
        &self.shared.store
    }

    /// The daemon's recorder, if `record` was on.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.shared.rec.as_ref()
    }

    /// Block until some client sends `{"op":"shutdown"}` (or another
    /// thread calls [`PlanService::shutdown`]), then drain and join.
    pub fn wait(mut self) {
        {
            let mut flag = self.shared.shutdown_flag.lock().expect("shutdown lock");
            while !*flag {
                flag = self.shared.shutdown_cv.wait(flag).expect("shutdown lock");
            }
        }
        self.teardown();
    }

    /// Request shutdown and drain: stop accepting, finish every request
    /// already read or queued, answer it, then join all threads.
    pub fn shutdown(mut self) {
        self.shared.request_shutdown(self.addr);
        self.teardown();
    }

    fn teardown(&mut self) {
        self.shared.request_shutdown(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Half-close every client's read side: readers see EOF after the
        // line they are currently processing and exit; write sides stay
        // open so drained responses still reach their clients.
        for conn in self.shared.conns.lock().expect("conn registry").drain(..) {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let readers: Vec<JoinHandle<()>> = self
            .shared
            .readers
            .lock()
            .expect("reader registry")
            .drain(..)
            .collect();
        for r in readers {
            let _ = r.join();
        }
        // No reader can enqueue anymore; close the queue. Channel::recv
        // drains remaining items after close, so every queued request is
        // still handled before its handler thread exits.
        self.shared.queue.close();
        for t in self.handler_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        if self.accept_thread.is_some() || !self.handler_threads.is_empty() {
            self.teardown();
        }
    }
}

fn accept_loop(listener: TcpListener, addr: SocketAddr, shared: Arc<SharedState>) {
    for conn in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Responses are one small line each; without TCP_NODELAY, Nagle
        // plus delayed ACKs turns every round-trip into tens of ms.
        let _ = stream.set_nodelay(true);
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        shared.conns.lock().expect("conn registry").push(registered);
        let reader_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("pspdg-conn".to_string())
            .spawn(move || reader_loop(stream, addr, reader_shared))
            .expect("spawn reader thread");
        shared.readers.lock().expect("reader registry").push(handle);
    }
}

fn reader_loop(stream: TcpStream, addr: SocketAddr, shared: Arc<SharedState>) {
    let out = Arc::new(Mutex::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    }));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match (&mut reader)
            .take(MAX_REQUEST_BYTES as u64)
            .read_line(&mut line)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.len() == MAX_REQUEST_BYTES && !line.ends_with('\n') {
            // The rest of the line is unread, so the stream cannot be
            // resynchronised: refuse and hang up.
            write_error(&out, "request too large");
            let _ = out
                .lock()
                .expect("response writer")
                .shutdown(Shutdown::Both);
            return;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let env = match parse_request(trimmed) {
            Ok(env) => env,
            Err(e) => {
                write_error(&out, &e);
                continue;
            }
        };
        if matches!(env.request, Request::Shutdown) {
            let mut o = response_head(&env, "shutdown");
            o.bool("draining", true);
            write_line(&out, o.finish());
            shared.request_shutdown(addr);
            return;
        }
        if let Some(r) = shared.rec.as_deref() {
            r.add(QUEUE_DEPTH_SUM, shared.queue.len() as u64);
            r.add(QUEUE_DEPTH_SAMPLES, 1);
        }
        if shared
            .queue
            .send(Job {
                env,
                out: Arc::clone(&out),
            })
            .is_err()
        {
            // Queue closed: the daemon is past its drain point.
            write_error(&out, "server shutting down");
            return;
        }
    }
}

/// Answer a line that never became a request (no `id` to echo).
fn write_error(out: &Arc<Mutex<TcpStream>>, error: &str) {
    let mut o = JsonObj::new();
    o.bool("ok", false);
    o.str("error", error);
    write_line(out, o.finish());
}

/// Write one response line and its newline in a single `write_all`.
fn write_line(out: &Arc<Mutex<TcpStream>>, mut line: String) {
    line.push('\n');
    let mut stream = out.lock().expect("response writer");
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.flush();
}

fn response_head(env: &Envelope, op: &str) -> JsonObj {
    let mut o = JsonObj::new();
    if let Some(id) = &env.id {
        o.str("id", id);
    }
    o.bool("ok", true);
    o.str("op", op);
    o
}

fn error_response(env: &Envelope, op: &str, err: &str) -> String {
    let mut o = JsonObj::new();
    if let Some(id) = &env.id {
        o.str("id", id);
    }
    o.bool("ok", false);
    o.str("op", op);
    o.str("error", err);
    o.finish()
}

fn session_for(
    shared: &SharedState,
    Input::Source(src): &Input,
) -> Result<Arc<Session>, SessionError> {
    shared.store.get_source(src)
}

/// Handle one request, producing the response line.
fn handle(shared: &SharedState, env: &Envelope) -> String {
    match &env.request {
        Request::Ping => response_head(env, "ping").finish(),
        Request::Metrics => metrics_response(shared, env),
        Request::Shutdown => response_head(env, "shutdown").finish(),
        Request::Plan { input, abstraction } => {
            let session = match session_for(shared, input) {
                Ok(s) => s,
                Err(e) => return error_response(env, "plan", &e.to_string()),
            };
            let bundle = session.plan(*abstraction);
            let mut o = response_head(env, "plan");
            o.str("key", &key_hex(session.key()));
            o.str("abstraction", abstraction_name(*abstraction));
            o.num("loops", bundle.plan.loops.len() as f64);
            let mut techniques: Vec<&'static str> = bundle
                .plan
                .loops
                .values()
                .map(|spec| spec.technique.name())
                .collect();
            techniques.sort_unstable();
            let arr: Vec<String> = techniques.iter().map(|t| format!("\"{t}\"")).collect();
            o.raw("techniques", &format!("[{}]", arr.join(",")));
            o.num("mutexes", bundle.plan.mutexes.len() as f64);
            o.bool("parallel_spawns", bundle.plan.parallel_spawns);
            o.finish()
        }
        Request::Execute {
            input,
            abstraction,
            workers,
        } => {
            let session = match session_for(shared, input) {
                Ok(s) => s,
                Err(e) => return error_response(env, "execute", &e.to_string()),
            };
            let workers = workers.unwrap_or(shared.exec_workers);
            match session.execute(*abstraction, workers) {
                Ok(exec) => {
                    let mut o = response_head(env, "execute");
                    execution_body(&mut o, &session, &exec);
                    o.finish()
                }
                Err(e) => error_response(env, "execute", &format!("execution faulted: {e}")),
            }
        }
        Request::Report {
            input,
            abstraction,
            workers,
        } => {
            let session = match session_for(shared, input) {
                Ok(s) => s,
                Err(e) => return error_response(env, "report", &e.to_string()),
            };
            let workers = workers.unwrap_or(shared.exec_workers);
            let exec = match session.execute(*abstraction, workers) {
                Ok(exec) => exec,
                Err(e) => return error_response(env, "report", &format!("execution faulted: {e}")),
            };
            let bundle = session.plan(*abstraction);
            let predicted = match bundle.predicted_parallelism(session.program()) {
                Ok(p) => p,
                Err(e) => return error_response(env, "report", &format!("emulation faulted: {e}")),
            };
            let report = PredictedVsMeasured {
                name: key_hex(session.key()),
                predicted_parallelism: predicted,
                sequential_ns: session.baseline().sequential_ns,
                parallel_ns: exec.parallel_ns,
                fallback_reasons: exec
                    .stats
                    .fallbacks
                    .nonzero()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            };
            let mut o = response_head(env, "report");
            execution_body(&mut o, &session, &exec);
            o.num("predicted_parallelism", report.predicted_parallelism);
            o.num("sequential_ns", report.sequential_ns as f64);
            o.num("measured_speedup", report.measured_speedup());
            o.num("efficiency", report.efficiency());
            let mut fr = JsonObj::new();
            for (k, v) in &report.fallback_reasons {
                fr.num(k, *v as f64);
            }
            o.raw("fallback_reasons", &fr.finish());
            o.finish()
        }
    }
}

fn execution_body(o: &mut JsonObj, session: &Session, exec: &Execution) {
    o.str("key", &key_hex(session.key()));
    o.str("abstraction", abstraction_name(exec.abstraction));
    o.num("workers", exec.workers as f64);
    match &exec.ret {
        // Exact decimal: an `i64` past 2^53 does not survive `f64`.
        Some(RtVal::Int(n)) => o.raw("ret", &n.to_string()),
        Some(RtVal::Float(x)) if x.is_finite() => o.num("ret", *x),
        // `NaN`, `inf` or `-inf`: the text `print_f64` prints.
        Some(RtVal::Float(x)) => o.str("ret", &x.to_string()),
        Some(RtVal::Bool(b)) => o.bool("ret", *b),
        Some(other) => o.str("ret", &format!("{other:?}")),
        None => o.null("ret"),
    }
    let lines: Vec<String> = exec
        .output
        .iter()
        .map(|l| format!("\"{}\"", pspdg_obs::export::esc(l)))
        .collect();
    o.raw("output", &format!("[{}]", lines.join(",")));
    o.num("steps", exec.steps as f64);
    o.num("parallel_ns", exec.parallel_ns as f64);
    o.num("chunked_loops", exec.stats.chunked_loops as f64);
    o.num(
        "sequential_fallbacks",
        exec.stats.sequential_fallbacks as f64,
    );
    match &exec.globals_mismatch {
        None => o.null("globals_mismatch"),
        Some((name, idx)) => {
            let mut m = JsonObj::new();
            m.str("global", name);
            m.num("index", *idx as f64);
            o.raw("globals_mismatch", &m.finish());
        }
    }
    o.bool(
        "matches_baseline",
        exec.matches_baseline(session.baseline()),
    );
}

fn metrics_response(shared: &SharedState, env: &Envelope) -> String {
    let stats = shared.store.stats();
    let mut o = response_head(env, "metrics");
    o.num("uptime_ns", shared.started.elapsed().as_nanos() as f64);
    o.num("requests", shared.requests.load(Ordering::Relaxed) as f64);
    o.num("queue_depth", shared.queue.len() as f64);
    let mut cache = JsonObj::new();
    cache.num("hits", stats.hits as f64);
    cache.num("misses", stats.misses as f64);
    cache.num("evictions", stats.evictions as f64);
    cache.num("builds", stats.builds as f64);
    cache.num("bytes", stats.bytes as f64);
    cache.num("entries", stats.entries as f64);
    cache.num("budget", shared.store.budget_bytes() as f64);
    o.raw("cache", &cache.finish());
    if let Some(r) = shared.rec.as_deref() {
        let snap = r.totals();
        let mut counters = JsonObj::new();
        let (mut depth_sum, mut depth_samples) = (0, 0);
        for (name, v) in &snap.counters {
            counters.num(name, *v as f64);
            match name.as_str() {
                QUEUE_DEPTH_SUM => depth_sum = *v,
                QUEUE_DEPTH_SAMPLES => depth_samples = *v,
                _ => {}
            }
        }
        o.raw("counters", &counters.finish());
        let spans: Vec<String> = snap
            .span_summary()
            .iter()
            .map(|(name, count, total_ns, max_ns)| {
                let mut s = JsonObj::new();
                s.str("name", name);
                s.num("count", *count as f64);
                s.num("total_ns", *total_ns as f64);
                s.num("max_ns", *max_ns as f64);
                s.finish()
            })
            .collect();
        o.raw("spans", &format!("[{}]", spans.join(",")));
        if depth_samples > 0 {
            o.num("queue_depth_mean", depth_sum as f64 / depth_samples as f64);
            o.num("queue_depth_samples", depth_samples as f64);
        }
    }
    o.finish()
}
