//! The end-to-end pass: an in-process `PlanService` (the code
//! `pspdg_serve` wraps, `record: false`) driven over loopback TCP by the
//! crate's own `Client`, closed-loop, with every answer checked.

use std::sync::{Barrier, OnceLock};
use std::time::Instant;

use pspdg_obs::json::Value;
use pspdg_runtime::Rng64;
use pspdg_service::{Client, ClientError, PlanService, ServiceConfig};

use crate::calib::{Calibrator, Log};
use crate::stats;
use crate::workloads::{cores, workload, Op, Workload};

/// Times the whole set-up is repeated in one run; `setup_s` is the
/// median. Smoke runs set up once.
const SETUPS: usize = 3;
/// A timed phase never ends before this many rounds, so every row has a
/// median worth the name even on a host far slower than the reference.
/// `peak_rss_mb` is read when client 0 has done exactly this many: on the
/// salted workloads the store grows with every request, and a peak read
/// at the end would charge a faster build for the extra requests it
/// completes.
const MIN_ROUNDS: usize = 5;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Drives salts and shuffle order, nothing the program can observe.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Reduced counts, same checks.
    pub smoke: bool,
}

/// Requests sent and requests that failed any check, with the first few
/// reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed transport, `ok`, the daemon's own baseline
    /// diff, or the golden.
    pub failed: u64,
    /// First few failure reasons, for the log.
    pub problems: Vec<String>,
}

impl Tally {
    /// Record a failed check.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            self.problem(p);
        }
    }
}

/// Checks responses. Holds, per row, the first `plan` payload seen
/// (minus `id`, and minus `key` on salted rows): every later payload of
/// that row — from another cold build in a later set-up, or a cache hit
/// — must be identical, which is the determinism check.
pub struct Checker {
    plan_refs: Vec<OnceLock<Value>>,
}

impl Checker {
    /// A checker for a workload of `rows` rows.
    pub fn new(rows: usize) -> Checker {
        Checker {
            plan_refs: (0..rows).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `Err(reason)` if `resp` is not the correct answer for `row`.
    pub fn check(
        &self,
        w: &Workload,
        row: usize,
        resp: &Result<Value, ClientError>,
    ) -> Result<(), String> {
        let r = &w.rows[row];
        let v = resp.as_ref().map_err(|e| e.to_string())?;
        if r.op == Op::Plan {
            let Value::Obj(members) = v else {
                return Err("plan response is not an object".to_string());
            };
            if v.get("key").and_then(Value::as_str).is_none() {
                return Err("plan response without key".to_string());
            }
            let stripped = Value::Obj(
                members
                    .iter()
                    .filter(|(k, _)| k != "id" && !(w.salted && k == "key"))
                    .cloned()
                    .collect(),
            );
            if self.plan_refs[row].get_or_init(|| stripped.clone()) != &stripped {
                return Err("plan payload differs from the first build's".to_string());
            }
            return Ok(());
        }
        let golden = &w.programs[r.program].golden;
        if v.get("matches_baseline") != Some(&Value::Bool(true)) {
            return Err("matches_baseline is not true".to_string());
        }
        if v.get("globals_mismatch") != Some(&Value::Null) {
            return Err("globals_mismatch is not null".to_string());
        }
        if v.get("ret") != Some(&golden.ret) {
            return Err(format!("ret {:?} differs from the golden", v.get("ret")));
        }
        if v.get("output") != Some(&golden.output) {
            return Err("output differs from the golden".to_string());
        }
        Ok(())
    }
}

/// One round: every group once, in seeded shuffled order; every request
/// goes into `log`, which takes its calibration samples in between.
pub fn round(
    w: &Workload,
    checker: &Checker,
    client: &mut Client,
    rng: &mut Rng64,
    seed: u64,
    tally: &mut Tally,
    log: &mut Log<'_>,
) {
    for g in w.shuffled(rng) {
        let source = w.source_for(g, seed);
        for &row in &w.groups[g] {
            log.before_request();
            let t0 = Instant::now();
            let resp = client.call(w.request(&w.rows[row], &source));
            let ns = t0.elapsed().as_nanos() as f64;
            tally.attempted += 1;
            let ok = match checker.check(w, row, &resp) {
                Ok(()) => true,
                Err(e) => {
                    tally.failed += 1;
                    tally.problem(format!("{}: {e}", w.rows[row].name));
                    false
                }
            };
            log.request(row, ns, ok);
        }
    }
}

/// The store counters of the `metrics` op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cache {
    /// Lookups answered from the store.
    pub hits: f64,
    /// Lookups that triggered a build.
    pub misses: f64,
    /// Sessions built.
    pub builds: f64,
    /// Entries evicted.
    pub evictions: f64,
    /// Bytes charged.
    pub bytes: f64,
}

/// Read the daemon's store counters.
pub fn cache_counters(client: &mut Client) -> Cache {
    let m = client.metrics().expect("metrics op");
    let c = m.get("cache").expect("cache block");
    let n = |k: &str| c.get(k).and_then(Value::as_f64).expect("cache counter");
    Cache {
        hits: n("hits"),
        misses: n("misses"),
        builds: n("builds"),
        evictions: n("evictions"),
        bytes: n("bytes"),
    }
}

/// A daemon with its clients connected, pre-warmed and warmed up.
pub struct Ready {
    /// The workload (sources generated and goldens read during set-up).
    pub w: Workload,
    /// The daemon.
    pub service: PlanService,
    /// `w.clients` connections.
    pub clients: Vec<Client>,
}

/// Everything before the first timed request: source generation, golden
/// load, service start, connect, pre-warm and the untimed warm-up rounds.
pub fn set_up(
    name: &str,
    opts: &Options,
    record: bool,
    checker: &OnceLock<Checker>,
    tally: &mut Tally,
    log: &mut Log<'_>,
) -> Ready {
    let w = workload(name, opts.smoke).expect("known workload");
    let checker = checker.get_or_init(|| Checker::new(w.rows.len()));
    let (_, c) = cores();
    let service = PlanService::start(ServiceConfig {
        handlers: c,
        exec_workers: c,
        record,
        ..ServiceConfig::default()
    })
    .expect("bind loopback");
    let mut clients: Vec<Client> = (0..w.clients)
        .map(|_| {
            let mut c = Client::connect(service.addr()).expect("connect");
            c.ping().expect("ping");
            c
        })
        .collect();
    // Set-up traffic is in fixed order from a fixed stream: the seed
    // drives only what the timed phase sends.
    let mut rng = Rng64::new(0);
    // One untimed warm-up round; on the unsalted workloads a pre-warm
    // round (every row built and planned once) comes before it.
    let rounds = if opts.smoke || w.salted { 1 } else { 2 };
    for _ in 0..rounds {
        round(
            &w,
            checker,
            &mut clients[0],
            &mut rng,
            opts.seed,
            tally,
            log,
        );
    }
    log.finish();
    Ready {
        w,
        service,
        clients,
    }
}

/// What one end-to-end run measured. Times are calibrated (see
/// [`crate::calib`]) unless the name says raw.
pub struct E2e {
    /// The workload that ran.
    pub w: Workload,
    /// Requests sent / failed over the whole run (set-up included).
    pub tally: Tally,
    /// Traffic self-checks that did not hold.
    pub traffic_problems: Vec<String>,
    /// Latencies of the timed phase's OK requests, per row, in ms.
    pub row_ms: Vec<Vec<f64>>,
    /// OK requests per second of busy time, summed over the clients.
    pub throughput_rps: f64,
    /// Process CPU seconds over the timed phase, less the sampling.
    pub cpu_s: f64,
    /// Each set-up's duration in seconds, less the sampling.
    pub setups_s: Vec<f64>,
    /// `VmHWM` after `MIN_ROUNDS` timed rounds, MiB.
    pub peak_rss_mib: f64,
    /// Store counters before and after the timed phase.
    pub cache: (Cache, Cache),
    /// Wall seconds of the timed phase, raw, sampling included.
    pub raw_wall_s: f64,
    /// Mean of `raw latency ÷ calibrated latency` over the timed requests:
    /// how much slower than the reference the host ran.
    pub host_slowdown: f64,
}

impl E2e {
    /// OK requests of the timed phase.
    pub fn timed_ok(&self) -> usize {
        self.row_ms.iter().map(Vec::len).sum()
    }
}

/// What one client connection did in the timed phase.
struct ClientRun<'a> {
    start: Instant,
    end: Instant,
    log: Log<'a>,
    tally: Tally,
}

/// Run workload `name` end to end.
pub fn run(name: &str, opts: &Options) -> E2e {
    let calibrator = Calibrator::new();
    let checker = OnceLock::new();
    let mut tally = Tally::default();
    let mut setups_s = Vec::new();
    let mut ready = None;
    for _ in 0..if opts.smoke { 1 } else { SETUPS } {
        // The previous set-up's daemon is drained and joined first, so
        // set-ups neither overlap nor add up in memory.
        if let Some(Ready { service, .. }) = ready.take() {
            service.shutdown();
        }
        let mut log = Log::new(&calibrator);
        let t0 = Instant::now();
        ready = Some(set_up(name, opts, false, &checker, &mut tally, &mut log));
        let raw_s = t0.elapsed().as_secs_f64();
        setups_s.push((raw_s - log.cal_ns() / 1e9) * log.mean_scale());
    }
    let Ready {
        w,
        service,
        mut clients,
    } = ready.expect("at least one set-up");
    let checker = checker.get().expect("set by set_up");

    let before = cache_counters(&mut clients[0]);
    let min_rounds = if opts.smoke { 1 } else { MIN_ROUNDS };
    let barrier = Barrier::new(w.clients);
    let cpu0 = stats::process_cpu_s();
    let rss_at_min_rounds = OnceLock::new();
    let per_client: Vec<ClientRun<'_>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(ci, client)| {
                let (w, barrier, rss, calibrator) = (&w, &barrier, &rss_at_min_rounds, &calibrator);
                s.spawn(move || {
                    let mut rng = Rng64::new(opts.seed ^ (ci as u64 + 1).wrapping_mul(0x9E37));
                    let mut tally = Tally::default();
                    let mut log = Log::new(calibrator);
                    barrier.wait();
                    let start = Instant::now();
                    let mut rounds = 0;
                    while rounds < min_rounds || start.elapsed().as_secs_f64() < opts.seconds {
                        round(
                            w, checker, client, &mut rng, opts.seed, &mut tally, &mut log,
                        );
                        rounds += 1;
                        if ci == 0 && rounds == min_rounds {
                            rss.get_or_init(stats::peak_rss_mib);
                        }
                    }
                    log.finish();
                    ClientRun {
                        start,
                        end: Instant::now(),
                        log,
                        tally,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let cpu_raw_s = stats::process_cpu_s() - cpu0;
    let after = cache_counters(&mut clients[0]);
    let peak_rss_mib = *rss_at_min_rounds.get().expect("client 0 ran its rounds");

    let start = per_client.iter().map(|c| c.start).min().expect("a client");
    let end = per_client.iter().map(|c| c.end).max().expect("a client");
    let mut row_ms = vec![Vec::new(); w.rows.len()];
    let (mut timed, mut first_kind) = (0u64, 0u64);
    let mut throughput_rps = 0.0;
    let (mut raw_ns, mut calibrated_ns) = (0.0, 0.0);
    let cal_s = per_client.iter().map(|c| c.log.cal_ns()).sum::<f64>() / 1e9;
    let mean_scale = stats::mean(
        &per_client
            .iter()
            .map(|c| c.log.mean_scale())
            .collect::<Vec<_>>(),
    );
    for c in per_client {
        let (mut ok, mut busy_ns) = (0u64, 0.0);
        for t in c.log.requests() {
            let ns = t.raw_ns * t.scale;
            busy_ns += ns;
            raw_ns += t.raw_ns;
            calibrated_ns += ns;
            first_kind += u64::from(w.first_kind[t.row]);
            if t.ok {
                ok += 1;
                row_ms[t.row].push(ns / 1e6);
            }
        }
        throughput_rps += ok as f64 / (busy_ns / 1e9);
        timed += c.tally.attempted;
        tally.merge(c.tally);
    }

    // Did the daemon see the traffic this workload is meant to be?
    let mut traffic_problems = Vec::new();
    let (hits, misses, builds) = (
        after.hits - before.hits,
        after.misses - before.misses,
        after.builds - before.builds,
    );
    let (want_misses, want_hits) = if w.salted {
        (first_kind, timed - first_kind)
    } else {
        (0, timed)
    };
    if misses != want_misses as f64 || builds != want_misses as f64 || hits != want_hits as f64 {
        traffic_problems.push(format!(
            "store saw {hits} hits / {misses} misses / {builds} builds in the timed phase, \
             expected {want_hits} / {want_misses} / {want_misses}"
        ));
    }

    drop(clients);
    service.shutdown();
    E2e {
        w,
        tally,
        traffic_problems,
        row_ms,
        throughput_rps,
        cpu_s: (cpu_raw_s - cal_s) * mean_scale,
        setups_s,
        peak_rss_mib,
        cache: (before, after),
        raw_wall_s: (end - start).as_secs_f64(),
        host_slowdown: raw_ns / calibrated_ns,
    }
}
