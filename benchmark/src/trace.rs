//! The traced pass: per-layer numbers from the outside in.
//!
//! Nothing inside the crates is instrumented here. For every row the
//! bench re-walks the request's pipeline in-process — calling each
//! layer's public functions in the order `Session` and the daemon's
//! `handle` do — and wraps every call in a bench-owned [`Span`]. The same
//! request also goes through a `record: false` daemon (its wall time is
//! what the stage spans must add up to) and through a `record: true`
//! daemon (the recorder's cost). Spans stay in memory and are written to
//! `benchmark/out/trace_<workload>.json` at exit.
//!
//! Stages on the request's own path run every round. In round 0 the walk
//! runs the *whole* pipeline once per program, so every per-layer metric
//! has a value on every workload; stages off the path are sampled that
//! once and never count toward coverage or layer shares.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pspdg_core::{build_pspdg_module, build_pspdg_with_refs, FeatureSet, FunctionPsPdg};
use pspdg_emulator::emulate;
use pspdg_frontend::compile;
use pspdg_ir::interp::{Interpreter, NullSink, Profile, RtVal};
use pspdg_ir::FuncId;
use pspdg_parallel::ParallelProgram;
use pspdg_parallelizer::{plan_built, realize_executable, ExecutablePlan, ProgramPlan};
use pspdg_pdg::{FunctionAnalyses, Pdg};
use pspdg_pool::{par_map, WorkerPool};
use pspdg_runtime::{globals_mismatch, observable_globals, Rng64, Runtime};
use pspdg_service::proto::{encode_request, parse_request, Envelope, Input, JsonObj, Request};
use pspdg_service::{content_key, PlanStore, Session, DEFAULT_THRESHOLD};

use crate::calib::{Calibrator, Log, Scale, CAL_REF_NS};
use crate::e2e::{cache_counters, round, set_up, Cache, Checker, Options, Ready, Tally};
use crate::stats::{geomean, mean, median};
use crate::workloads::{cores, workload, Golden, Op, Workload};
use crate::Metric;

/// Every per-layer metric, with its unit, in reporting order. The names
/// are `BENCHMARK.json`'s `per_layer` list; `--suite` checks they agree.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("service.request_wall_ms", "ms"),
    ("service.unattributed_ms", "ms"),
    ("service.unattributed_share", "ratio"),
    ("service.parse_request_us", "us"),
    ("service.content_key_us", "us"),
    ("service.store_hit_us", "us"),
    ("service.ping_roundtrip_us", "us"),
    ("service.cache_hit_share", "ratio"),
    ("service.cache_builds", "count"),
    ("service.cache_evictions", "count"),
    ("service.cache_bytes", "bytes"),
    ("frontend.compile_us", "us"),
    ("frontend.source_bytes", "bytes"),
    ("frontend.mb_per_s", "MB/s"),
    ("parallel.validate_us", "us"),
    ("parallel.directives", "count"),
    ("ir.static_insts", "count"),
    ("ir.functions", "count"),
    ("ir.interp_baseline_ms", "ms"),
    ("ir.interp_steps", "count"),
    ("ir.interp_msteps_per_s", "Msteps/s"),
    ("pdg.analyses_us", "us"),
    ("pdg.build_us", "us"),
    ("pdg.mem_refs", "count"),
    ("pdg.edges", "count"),
    ("pdg.edges_per_ms", "1/ms"),
    ("core.assemble_us", "us"),
    ("core.build_module_wall_us", "us"),
    ("core.module_parallel_ratio", "ratio"),
    ("core.pspdg_nodes", "count"),
    ("core.pspdg_edges", "count"),
    ("core.overlay_rewrites", "count"),
    ("parallelizer.enumerate_us", "us"),
    ("parallelizer.schedule_us", "us"),
    ("parallelizer.loops_planned", "count"),
    ("parallelizer.loops_chunked", "count"),
    ("parallelizer.loops_pipelined", "count"),
    ("parallelizer.loops_sequential", "count"),
    ("emulator.emulate_ms", "ms"),
    ("emulator.predicted_parallelism", "ratio"),
    ("emulator.msteps_per_s", "Msteps/s"),
    ("runtime.construct_us", "us"),
    ("runtime.run_main_ms", "ms"),
    ("runtime.run_main_1worker_ms", "ms"),
    ("runtime.speedup_over_1worker", "ratio"),
    ("runtime.steps", "count"),
    ("runtime.msteps_per_s", "Msteps/s"),
    ("runtime.parallel_activations", "count"),
    ("runtime.fallbacks", "count"),
    ("runtime.parallel_activation_share", "ratio"),
    ("runtime.pool_dispatches", "count"),
    ("runtime.fork_bytes", "bytes"),
    ("runtime.compiled_blocks", "count"),
    ("runtime.diff_us", "us"),
    ("pool.scope_dispatch_us", "us"),
    ("pool.par_map_empty_us", "us"),
    ("obs.enabled_over_disabled", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.samples_per_row", "count"),
    ("trace.dominant_as_predicted", "count"),
    ("share.service", "ratio"),
    ("share.frontend", "ratio"),
    ("share.parallel", "ratio"),
    ("share.ir", "ratio"),
    ("share.pdg", "ratio"),
    ("share.core", "ratio"),
    ("share.parallelizer", "ratio"),
    ("share.emulator", "ratio"),
    ("share.runtime", "ratio"),
];

/// The layers a request's time is split over (`share.<layer>`).
const LAYERS: [&str; 9] = [
    "service",
    "frontend",
    "parallel",
    "ir",
    "pdg",
    "core",
    "parallelizer",
    "emulator",
    "runtime",
];

/// Repetitions of the pool and ping micro-measurements.
const MICRO_REPS: usize = 200;

/// A bench-owned span around one call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one.
    parent: Option<u32>,
    /// Shared by all spans of one walked request.
    request: u32,
    /// The calibration scale of the walk: reported times are the span's
    /// raw duration times this.
    scale: f64,
}

/// What the analysis stages leave behind for the planning stages.
struct Artifacts {
    built: Vec<FunctionPsPdg>,
    profile: Profile,
    globals: Vec<(String, Vec<RtVal>)>,
}

/// Per-row samples: metric or stage name → one value per round.
type Samples = BTreeMap<&'static str, Vec<f64>>;

struct Tracer<'a> {
    w: &'a Workload,
    t0: Instant,
    spans: Vec<Span>,
    rows: Vec<Samples>,
    requests: u32,
    /// The bench-owned store the `service.store_hit` stage reads; round 0
    /// puts every walked program in it.
    store: &'a PlanStore,
    /// The cold walk's artifacts, for a session-hit row of the same
    /// group in the same round.
    group_art: Option<(ParallelProgram, Artifacts)>,
    /// Walks made, and walk results that differed from the golden.
    tally: Tally,
    scale: Scale<'a>,
    /// The calibration scale of the walk in progress.
    k: f64,
}

impl Tracer<'_> {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.requests,
            scale: self.k,
        });
        self.spans.len() as u32 - 1
    }

    /// Close span `id`; its calibrated duration in ns.
    fn close(&mut self, id: u32) -> f64 {
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        (end - s.start_ns) as f64 * s.scale
    }

    /// Run `f` under a span named `name` (`<layer>.<stage>`), record its
    /// duration for `row` in microseconds, and — when the stage is on
    /// the request's own path — add it to the row's path and layer sums.
    fn stage<T>(
        &mut self,
        row: usize,
        root: u32,
        name: &'static str,
        on_path: bool,
        sums: &mut BTreeMap<&'static str, f64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(root));
        let out = f();
        let ns = self.close(id);
        self.rows[row].entry(name).or_default().push(ns / 1e3);
        if on_path {
            let layer = name.split('.').next().expect("layer prefix");
            *sums.entry(layer).or_default() += ns / 1e6;
        }
        out
    }

    fn put(&mut self, row: usize, name: &'static str, v: f64) {
        self.rows[row].entry(name).or_default().push(v);
    }

    fn check(&mut self, row: usize, what: &str, ret: Option<RtVal>, output: &[String]) {
        let r = &self.w.rows[row];
        if Golden::of(ret, output) != self.w.programs[r.program].golden {
            self.tally.failed += 1;
            self.tally
                .problem(format!("{}: {what} differs from the golden", r.name));
        }
    }

    /// Walk `row`'s request over `source` layer by layer. `full` runs the
    /// stages off the request's path too.
    fn walk(&mut self, row: usize, source: &str, full: bool) {
        let w = self.w;
        let r = &w.rows[row];
        let c = cores().1;
        // Where the request goes inside the daemon. Cold: a store miss —
        // validate, baseline run, module build, plan. Warm: store hit and
        // plan-cache hit. Neither (a later row of a salted group): store
        // hit on a session whose abstraction is not planned yet.
        let cold = w.salted && w.first_kind[row];
        let warm = !w.salted;
        let executes = r.op != Op::Plan;
        self.requests += 1;
        self.tally.attempted += 1;
        self.k = self.scale.current();
        let line = encode_request(&Envelope {
            request: w.request(r, source),
            id: Some(format!("t{}", self.requests)),
        });
        let mut sums = BTreeMap::new();
        let sums = &mut sums;
        let root = self.open("walk", None);

        let env = self.stage(row, root, "service.parse_request", true, sums, || {
            parse_request(&line).expect("own request parses")
        });
        let (Request::Plan { input, .. }
        | Request::Execute { input, .. }
        | Request::Report { input, .. }) = &env.request
        else {
            unreachable!("rows are plan, execute or report")
        };
        let Input::Source(src) = input else {
            unreachable!("rows carry ParC source")
        };
        let program = self.stage(row, root, "frontend.compile", true, sums, || {
            compile(src).expect("bundled source compiles")
        });
        self.put(row, "frontend.source_bytes", src.len() as f64);
        let m = &program.module;
        self.put(row, "ir.functions", m.functions.len() as f64);
        let insts: usize = m.functions.iter().map(|f| f.insts.len()).sum();
        self.put(row, "ir.static_insts", insts as f64);
        self.put(row, "parallel.directives", program.len() as f64);

        if cold || full {
            self.stage(row, root, "parallel.validate", cold, sums, || {
                program.validate().expect("bundled program validates")
            });
        }
        if !warm || full {
            self.stage(row, root, "service.content_key", !warm, sums, || {
                content_key(&program)
            });
        }
        if cold {
            // A miss hashes twice: `PlanStore::get_or_build` for the
            // lookup, then `Session::from_program` for the session's key.
            self.stage(row, root, "service.content_key", true, sums, || {
                content_key(&program)
            });
        }
        // Warm path: the store answers (it computes the key itself), then
        // the session's plan cache does.
        let store = self.store;
        if full {
            store.get_or_build(program.clone()).expect("session builds");
        }
        let session = (warm || full).then(|| {
            self.stage(row, root, "service.store_hit", warm, sums, || {
                store.get_or_build(program.clone()).expect("session cached")
            })
        });
        let bundle = session
            .as_ref()
            .filter(|_| warm)
            .map(|s| s.plan(r.abstraction));

        // Baseline run and module build: the session-creation stages.
        let mut own_art = None;
        if cold || full {
            let (ret, output, art, steps) =
                self.stage(row, root, "ir.interp_baseline", cold, sums, || {
                    let mut interp = Interpreter::new(&program.module);
                    let ret = interp.run_main(&mut NullSink).expect("sequential run");
                    let globals = observable_globals(&program.module, interp.mem());
                    let profile = interp.profile().clone();
                    (
                        ret,
                        interp.output().to_vec(),
                        (profile, globals),
                        interp.steps(),
                    )
                });
            self.check(row, "ir::interp result", ret, &output);
            self.put(row, "ir.interp_steps", steps as f64);
            // What `Session` pays: the module driver.
            let built = self.stage(row, root, "core.build_module_wall", cold, sums, || {
                build_pspdg_module(&program, FeatureSet::all())
            });
            // What the driver does per function, one function at a time:
            // the split of its wall between `pdg` and `core`, and the busy
            // time its parallelism is measured against.
            let funcs: Vec<FuncId> = built.iter().map(|f| f.func).collect();
            let (mut analyses_us, mut build_us, mut assemble_us) = (0.0, 0.0, 0.0);
            let mut counts = [0usize; 5];
            let detail = self.open("core.per_function", Some(root));
            for func in funcs {
                let t = Instant::now();
                let analyses = FunctionAnalyses::compute(&program.module, func);
                analyses_us += t.elapsed().as_nanos() as f64 / 1e3 * self.k;
                let t = Instant::now();
                let (pdg, refs) = Pdg::build_with_refs(&program.module, func, &analyses);
                build_us += t.elapsed().as_nanos() as f64 / 1e3 * self.k;
                let t = Instant::now();
                let pspdg = build_pspdg_with_refs(
                    &program,
                    func,
                    &analyses,
                    &pdg,
                    &refs,
                    FeatureSet::all(),
                );
                assemble_us += t.elapsed().as_nanos() as f64 / 1e3 * self.k;
                counts[0] += refs.len();
                counts[1] += pdg.edges.len();
                counts[2] += pspdg.nodes.len();
                counts[3] += pspdg.edge_count();
                counts[4] += pspdg.effective.rewrite_count();
            }
            self.close(detail);
            for (name, v) in [
                ("pdg.analyses", analyses_us),
                ("pdg.build", build_us),
                ("core.assemble", assemble_us),
            ] {
                self.put(row, name, v);
            }
            for (name, v) in [
                "pdg.mem_refs",
                "pdg.edges",
                "core.pspdg_nodes",
                "core.pspdg_edges",
                "core.overlay_rewrites",
            ]
            .into_iter()
            .zip(counts)
            {
                self.put(row, name, v as f64);
            }
            // The driver's wall is `core`'s span; hand `pdg` its part.
            if cold {
                let wall_ms = sums.remove("core").expect("driver span");
                let busy = analyses_us + build_us + assemble_us;
                sums.insert("pdg", wall_ms * (analyses_us + build_us) / busy);
                sums.insert("core", wall_ms * assemble_us / busy);
            }
            own_art = Some(Artifacts {
                built,
                profile: art.0,
                globals: art.1,
            });
        }

        // Planning: enumerate + schedule from the analysis artifacts.
        let mut own_plan: Option<(ProgramPlan, Arc<ExecutablePlan>)> = None;
        if !warm || full {
            let held;
            let (prog, art): (&ParallelProgram, &Artifacts) = match &own_art {
                Some(a) => (&program, a),
                None => {
                    held = self.group_art.take().expect("cold row walked first");
                    (&held.0, &held.1)
                }
            };
            let plan = self.stage(row, root, "parallelizer.enumerate", !warm, sums, || {
                plan_built(
                    prog,
                    &art.built,
                    &art.profile,
                    r.abstraction,
                    DEFAULT_THRESHOLD,
                )
            });
            let exec = self.stage(row, root, "parallelizer.schedule", !warm, sums, || {
                realize_executable(prog, &plan)
            });
            let s = exec.stats();
            for (name, v) in [
                ("parallelizer.loops_planned", plan.loops.len()),
                ("parallelizer.loops_chunked", s.chunked),
                ("parallelizer.loops_pipelined", s.pipeline),
                ("parallelizer.loops_sequential", s.sequential),
            ] {
                self.put(row, name, v as f64);
            }
            own_plan = Some((plan, Arc::new(exec)));
        }
        let (plan, exec): (&ProgramPlan, &Arc<ExecutablePlan>) = match (&own_plan, &bundle) {
            (Some((p, e)), _) => (p, e),
            (None, Some(b)) => (&b.plan, &b.exec),
            (None, None) => unreachable!("a warm row has its bundle"),
        };

        // Execution: construct, run, diff against the baseline.
        let program = Arc::new(program);
        if executes || full {
            let rt = self.stage(row, root, "runtime.construct", executes, sums, || {
                Runtime::from_shared(Arc::clone(&program), Arc::clone(exec)).workers(c)
            });
            let out = self.stage(row, root, "runtime.run_main", executes, sums, || {
                rt.run_main().expect("parallel run")
            });
            let baseline = match (&own_art, &session) {
                (Some(a), _) => &a.globals,
                (None, Some(s)) => &s.baseline().globals,
                (None, None) => unreachable!("a warm row has its session"),
            };
            let mismatch = self.stage(row, root, "runtime.diff", executes, sums, || {
                globals_mismatch(baseline, &observable_globals(&program.module, &out.mem))
            });
            self.check(row, "Runtime::run_main result", out.ret, &out.output);
            if mismatch.is_some() {
                self.tally.failed += 1;
                self.tally
                    .problem(format!("{}: globals differ from the baseline", r.name));
            }
            let st = out.stats;
            let useful = st.chunked_loops + st.pipelined_loops;
            for (name, v) in [
                ("runtime.steps", out.steps),
                ("runtime.parallel_activations", useful),
                ("runtime.fallbacks", st.sequential_fallbacks),
                ("runtime.pool_dispatches", st.pool_dispatches),
                ("runtime.fork_bytes", st.fork_bytes()),
                ("runtime.compiled_blocks", st.compiled_blocks),
            ] {
                self.put(row, name, v as f64);
            }
            if full {
                let rt1 = Runtime::from_shared(Arc::clone(&program), Arc::clone(exec)).workers(1);
                let t = Instant::now();
                let out1 = rt1.run_main().expect("one-worker run");
                self.put(
                    row,
                    "runtime.run_main_1worker",
                    t.elapsed().as_nanos() as f64 / 1e3 * self.k,
                );
                self.check(row, "one-worker result", out1.ret, &out1.output);
            }
        }
        if r.op == Op::Report || full {
            let e = self.stage(
                row,
                root,
                "emulator.emulate",
                r.op == Op::Report,
                sums,
                || emulate(&program, plan).expect("emulation"),
            );
            self.put(row, "emulator.predicted_parallelism", e.parallelism());
            self.put(row, "emulator.steps", e.total_steps as f64);
        }
        self.close(root);

        self.put(row, "path_ms", sums.values().sum());
        for layer in LAYERS {
            self.put(row, layer, sums.get(layer).copied().unwrap_or(0.0));
        }
        // Hand the artifacts to a session-hit row of the same group.
        if let (true, Some(art)) = (cold, own_art) {
            let program = Arc::try_unwrap(program).unwrap_or_else(|p| (*p).clone());
            self.group_art = Some((program, art));
        }
    }
}

/// The same request through the library's own facade, unstaged: what the
/// staged walk's path sum is compared with (`trace.overhead_ratio`).
fn plain_walk(
    w: &Workload,
    row: usize,
    source: &str,
    store: &PlanStore,
    held: &mut Option<Arc<Session>>,
) -> f64 {
    let r = &w.rows[row];
    let t = Instant::now();
    let session = if !w.salted {
        store.get_source(source).expect("session")
    } else if w.first_kind[row] {
        Arc::new(Session::compile(source).expect("session"))
    } else {
        // A session hit still compiles and hashes the source.
        content_key(&compile(source).expect("compiles"));
        held.take().expect("cold row walked first")
    };
    let bundle = session.plan(r.abstraction);
    if r.op != Op::Plan {
        session
            .execute(r.abstraction, cores().1)
            .expect("plain execute");
    }
    if r.op == Op::Report {
        bundle
            .predicted_parallelism(session.program())
            .expect("emulation");
    }
    let ms = t.elapsed().as_nanos() as f64 / 1e6;
    *held = Some(session);
    ms
}

/// Median of `MICRO_REPS` timings of `f`, in calibrated microseconds.
fn micro(calibrator: &Calibrator, mut f: impl FnMut()) -> f64 {
    let us: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&us) * CAL_REF_NS / calibrator.sample()
}

/// One daemon, alone in the process as in the end-to-end pass, serving
/// rounds of the workload's traffic from one client.
struct DaemonPass {
    rounds: usize,
    cache: (Cache, Cache),
    ping_us: f64,
}

/// Set a daemon up, send `rounds` rounds (or as many as fit in
/// `budget_s`), record each request's latency under `series`, and shut
/// the daemon down.
#[allow(clippy::too_many_arguments)]
fn daemon_pass(
    calibrator: &Calibrator,
    name: &str,
    opts: &Options,
    record: bool,
    rounds: Option<usize>,
    budget_s: f64,
    checker: &OnceLock<Checker>,
    tally: &mut Tally,
    series: &'static str,
    rows: &mut [Samples],
) -> DaemonPass {
    let Ready {
        w,
        service,
        mut clients,
    } = set_up(
        name,
        opts,
        record,
        checker,
        tally,
        &mut Log::new(calibrator),
    );
    let checker = checker.get().expect("set by set_up");
    let client = &mut clients[0];
    let before = cache_counters(client);
    let mut rng = Rng64::new(opts.seed);
    let mut log = Log::new(calibrator);
    let start = Instant::now();
    let mut done = 0;
    while match rounds {
        Some(n) => done < n,
        None => done < 1 || (!opts.smoke && start.elapsed().as_secs_f64() < budget_s),
    } {
        round(&w, checker, client, &mut rng, opts.seed, tally, &mut log);
        done += 1;
    }
    for t in log.requests() {
        rows[t.row].entry(series).or_default().push(t.raw_ns / 1e6);
    }
    let after = cache_counters(client);
    let ping_us = micro(calibrator, || client.ping().expect("ping"));
    drop(clients);
    service.shutdown();
    DaemonPass {
        rounds: done,
        cache: (before, after),
        ping_us,
    }
}

/// Run the traced pass over workload `name` and return the result line's
/// parts. Three phases, each alone in the process: the in-process walks
/// for half of `--seconds` (they also leave the process's heap as warm as
/// the end-to-end pass's repeated set-ups leave it), the `record: false`
/// daemon for a quarter, and the `record: true` daemon for the same
/// number of rounds.
pub fn report(name: &str, opts: &Options) -> (bool, u64, u64, Vec<Metric>) {
    let (host_cores, c) = cores();
    let calibrator = Calibrator::new();
    let mut tally = Tally::default();
    let checker = OnceLock::new();
    let w = workload(name, opts.smoke).expect("known workload");

    let walk_store = PlanStore::new();
    let plain_store = PlanStore::new();
    let mut tr = Tracer {
        w: &w,
        t0: Instant::now(),
        spans: Vec::new(),
        rows: vec![Samples::new(); w.rows.len()],
        requests: 0,
        store: &walk_store,
        group_art: None,
        tally: Tally::default(),
        scale: Scale::new(&calibrator),
        k: 1.0,
    };
    let mut rounds = 0;
    // The daemon runs every handler on a worker of its pool, where the
    // crates' `par_map` sweeps degrade to inline loops; the walks run on
    // a pool worker too, so they see the pipeline the daemon sees.
    WorkerPool::new(1).scope(|s| {
        s.spawn(|| {
            let mut rng = Rng64::new(opts.seed);
            let start = Instant::now();
            while rounds < 1 || (!opts.smoke && start.elapsed().as_secs_f64() < opts.seconds / 2.0)
            {
                for g in w.shuffled(&mut rng) {
                    let group = &w.groups[g];
                    let source = w.source_for(g, opts.seed);
                    for &row in group {
                        // Rows are program-major: the whole pipeline is
                        // walked once per program, under its first row's
                        // abstraction.
                        let first_of_program =
                            row == 0 || w.rows[row - 1].program != w.rows[row].program;
                        tr.walk(row, &source, rounds == 0 && first_of_program);
                    }
                    let mut held = None;
                    for &row in group {
                        let k = tr.scale.current();
                        let ms = plain_walk(&w, row, &source, &plain_store, &mut held);
                        tr.put(row, "plain_ms", ms * k);
                    }
                }
                rounds += 1;
            }
        });
    });
    let DaemonPass {
        rounds: daemon_rounds,
        cache: (before, after),
        ping_us,
    } = daemon_pass(
        &calibrator,
        name,
        opts,
        false,
        None,
        opts.seconds / 4.0,
        &checker,
        &mut tally,
        "wall_ms",
        &mut tr.rows,
    );
    daemon_pass(
        &calibrator,
        name,
        opts,
        true,
        Some(daemon_rounds),
        0.0,
        &checker,
        &mut tally,
        "recorded_wall_ms",
        &mut tr.rows,
    );
    let pool = WorkerPool::new(c);
    let scope_us = micro(&calibrator, || {
        pool.scope(|s| {
            for _ in 0..c {
                s.spawn(|| {});
            }
        })
    });
    let par_map_us = micro(&calibrator, || {
        std::hint::black_box(par_map((0..c).collect(), |x| x));
    });

    // Per row: the median over rounds of every sample series.
    let med: Vec<BTreeMap<&'static str, f64>> = tr
        .rows
        .iter()
        .map(|s| s.iter().map(|(k, v)| (*k, median(v))).collect())
        .collect();
    // Across rows: the mean of the row medians (rows weigh in by their
    // time, as they do in throughput).
    let agg = |k: &str| {
        let v: Vec<f64> = med.iter().filter_map(|m| m.get(k).copied()).collect();
        if v.is_empty() {
            0.0
        } else {
            mean(&v)
        }
    };
    let wall = agg("wall_ms");
    let path = agg("path_ms");
    let unattributed = (wall - path).max(0.0);
    let mut layer_ms: Vec<(&str, f64)> = LAYERS.iter().map(|l| (*l, agg(l))).collect();
    layer_ms[0].1 += unattributed;
    let total: f64 = layer_ms.iter().map(|l| l.1).sum();
    let top = layer_ms
        .iter()
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .expect("layers");
    let predicted: f64 = layer_ms
        .iter()
        .filter(|l| w.dominant.contains(&l.0))
        .map(|l| l.1)
        .sum();
    // The layers ISSUE 11 named own the majority of a request.
    let as_predicted = predicted / total > 0.5;
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let row_geo = |k: &str| geomean(&med.iter().map(|m| m[k]).collect::<Vec<_>>());
    let activations = agg("runtime.parallel_activations");

    let value = |name: &str| -> f64 {
        match name {
            "service.request_wall_ms" => wall,
            "service.unattributed_ms" => unattributed,
            "service.unattributed_share" => ratio(unattributed, wall),
            "service.ping_roundtrip_us" => ping_us,
            "service.cache_hit_share" => ratio(
                after.hits - before.hits,
                after.hits - before.hits + after.misses - before.misses,
            ),
            "service.cache_builds" => after.builds - before.builds,
            "service.cache_evictions" => after.evictions - before.evictions,
            "service.cache_bytes" => after.bytes,
            "frontend.mb_per_s" => ratio(agg("frontend.source_bytes"), agg("frontend.compile")),
            "ir.interp_baseline_ms" => agg("ir.interp_baseline") / 1e3,
            "ir.interp_msteps_per_s" => ratio(agg("ir.interp_steps"), agg("ir.interp_baseline")),
            "pdg.edges_per_ms" => ratio(agg("pdg.edges"), agg("pdg.build") / 1e3),
            "core.module_parallel_ratio" => ratio(
                agg("pdg.analyses") + agg("pdg.build") + agg("core.assemble"),
                agg("core.build_module_wall"),
            ),
            "emulator.emulate_ms" => agg("emulator.emulate") / 1e3,
            "emulator.msteps_per_s" => ratio(agg("emulator.steps"), agg("emulator.emulate")),
            "runtime.run_main_ms" => agg("runtime.run_main") / 1e3,
            "runtime.run_main_1worker_ms" => agg("runtime.run_main_1worker") / 1e3,
            "runtime.speedup_over_1worker" => {
                ratio(agg("runtime.run_main_1worker"), agg("runtime.run_main"))
            }
            "runtime.msteps_per_s" => ratio(agg("runtime.steps"), agg("runtime.run_main")),
            "runtime.parallel_activation_share" => {
                ratio(activations, activations + agg("runtime.fallbacks"))
            }
            "pool.scope_dispatch_us" => scope_us,
            "pool.par_map_empty_us" => par_map_us,
            "obs.enabled_over_disabled" => ratio(row_geo("recorded_wall_ms"), row_geo("wall_ms")),
            "trace.coverage" => ratio(path, wall),
            "trace.overhead_ratio" => ratio(path, agg("plain_ms")),
            "trace.samples_per_row" => rounds.min(daemon_rounds) as f64,
            "trace.dominant_as_predicted" => f64::from(u8::from(as_predicted)),
            _ => match name.strip_prefix("share.") {
                Some(layer) => layer_ms
                    .iter()
                    .find(|l| l.0 == layer)
                    .map_or(0.0, |l| ratio(l.1, total)),
                // `<layer>.<stage>_us` is the stage's span; counts keep
                // their own name.
                None => agg(name.strip_suffix("_us").unwrap_or(name)),
            },
        }
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, value(name), *unit))
        .collect();

    println!(
        "traced {} rows: {daemon_rounds} daemon round(s), {rounds} walk round(s); largest layer {} ({:.1}% of a request); predicted {:?} own {:.1}%{}",
        w.rows.len(),
        top.0,
        100.0 * top.1 / total,
        w.dominant,
        100.0 * predicted / total,
        if as_predicted { "" } else { "  ** NOT THE MAJORITY **" }
    );
    let coverage = ratio(path, wall);
    if w.clients == 1 && !(0.90..=1.10).contains(&coverage) {
        println!("** trace.coverage {coverage:.3} is outside [0.90, 1.10] **");
    }
    write_trace(&w, opts, host_cores, rounds, &tr, &med);
    tally.merge(tr.tally);
    for p in &tally.problems {
        println!("FAILED CHECK: {p}");
    }
    (tally.failed == 0, tally.attempted, tally.failed, metrics)
}

/// `benchmark/out/trace_<workload>.json`: every span, and per row the
/// median of every stage and count.
fn write_trace(
    w: &Workload,
    opts: &Options,
    host_cores: usize,
    rounds: usize,
    tr: &Tracer<'_>,
    med: &[BTreeMap<&'static str, f64>],
) {
    let rows: Vec<String> = w
        .rows
        .iter()
        .zip(med)
        .map(|(r, m)| {
            let mut o = JsonObj::new();
            o.str("row", &r.name);
            for (k, v) in m {
                o.raw(k, &format!("{v}"));
            }
            o.finish()
        })
        .collect();
    let spans: Vec<String> = tr
        .spans
        .iter()
        .map(|s| {
            let mut o = JsonObj::new();
            o.str("name", s.name);
            o.num("start_ns", s.start_ns as f64);
            o.num("end_ns", s.end_ns as f64);
            match s.parent {
                Some(p) => o.num("parent", f64::from(p)),
                None => o.null("parent"),
            }
            o.num("request", f64::from(s.request));
            o.raw("scale", &format!("{}", s.scale));
            o.finish()
        })
        .collect();
    let mut o = JsonObj::new();
    o.str("workload", w.name);
    o.num("seed", opts.seed as f64);
    o.num("host_cores", host_cores as f64);
    o.num("cores_used", cores().1 as f64);
    o.num("rounds", rounds as f64);
    o.str(
        "units",
        "calibrated: <layer>.<stage> in us; wall_ms, recorded_wall_ms, plain_ms, path_ms and bare layer names in ms; span start_ns/end_ns are raw, times `scale` to calibrate",
    );
    o.raw("rows", &format!("[\n{}\n]", rows.join(",\n")));
    o.raw("spans", &format!("[\n{}\n]", spans.join(",\n")));
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).expect("create benchmark/out");
    let path = dir.join(format!("trace_{}.json", w.name));
    std::fs::write(&path, o.finish() + "\n").expect("write trace file");
    println!("wrote {} ({} spans)", path.display(), tr.spans.len());
}
