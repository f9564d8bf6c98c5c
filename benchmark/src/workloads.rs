//! The five workloads: which programs, which requests, in which groups.
//!
//! A **row** is one program shape × request kind × abstraction; every
//! latency is reported per row. A **group** is the list of rows that
//! share one source text within a round — on the salted workloads the
//! group gets a fresh salt each round, so its first row is a store miss
//! (a "first-kind" request) and any further row a session hit.

use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use pspdg_ir::interp::{Interpreter, NullSink, RtVal};
use pspdg_nas::{fault_suite, synth, Class};
use pspdg_obs::json::{parse, Value};
use pspdg_parallelizer::Abstraction;
use pspdg_runtime::Rng64;
use pspdg_service::proto::{Input, JsonObj, Request};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "nas_cold",
    "nas_warm",
    "plan_hot",
    "module_cold",
    "nas_report",
];

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20260927;

/// Where the committed goldens live, relative to the repo root (the
/// directory `run.sh` and the driver run the benchmark from).
pub const EXPECTED_DIR: &str = "benchmark/expected";

/// Host parallelism and the `C = min(nproc, 4)` the daemon, its
/// runtimes and the client count are sized to.
pub fn cores() -> (usize, usize) {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    (host, host.min(4))
}

/// Request kind of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `plan`
    Plan,
    /// `execute`
    Execute,
    /// `report`
    Report,
}

impl Op {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Plan => "plan",
            Op::Execute => "execute",
            Op::Report => "report",
        }
    }
}

/// The reviewed sequential result of a program: what `ir::interp`
/// returned and printed when the golden was generated.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    /// `main`'s return value, encoded as the daemon encodes `ret`.
    pub ret: Value,
    /// Printed lines.
    pub output: Value,
}

/// One input program.
#[derive(Debug, Clone)]
pub struct Program {
    /// `<kernel>.<class>`, also the golden's file stem.
    pub name: String,
    /// ParC source, unsalted.
    pub source: String,
    /// Expected sequential result.
    pub golden: Golden,
}

/// One program shape × request kind × abstraction.
#[derive(Debug, Clone)]
pub struct Row {
    /// `<program>/<op>/<abstraction>`.
    pub name: String,
    /// Index into [`Workload::programs`].
    pub program: usize,
    /// Request kind.
    pub op: Op,
    /// Planning abstraction.
    pub abstraction: Abstraction,
}

/// A traffic mix.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Whether every group gets a never-repeating salt each round.
    pub salted: bool,
    /// Input programs.
    pub programs: Vec<Program>,
    /// All rows.
    pub rows: Vec<Row>,
    /// Row indices sharing one source text within a round.
    pub groups: Vec<Vec<usize>>,
    /// Per row: whether it is the first of its group (on a salted
    /// workload, the request that must miss the store).
    pub first_kind: Vec<bool>,
    /// Layers predicted (in ISSUE 11, before measuring) to own the
    /// largest share of a request.
    pub dominant: &'static [&'static str],
}

impl Golden {
    /// The golden of a sequential result, through the same encoding the
    /// committed files and the daemon's `execute` response use.
    pub fn of(ret: Option<RtVal>, output: &[String]) -> Golden {
        Golden::parse(&golden_json("", ret, output))
    }

    fn parse(text: &str) -> Golden {
        let v = parse(text).unwrap_or_else(|e| panic!("golden unparseable: {e}"));
        Golden {
            ret: v.get("ret").expect("golden ret").clone(),
            output: v.get("output").expect("golden output").clone(),
        }
    }

    fn load(name: &str) -> Golden {
        let path = Path::new(EXPECTED_DIR).join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("golden {} unreadable: {e}", path.display()));
        Golden::parse(&text)
    }
}

fn golden_json(name: &str, ret: Option<RtVal>, output: &[String]) -> String {
    let mut o = JsonObj::new();
    o.str("program", name);
    match ret {
        Some(RtVal::Int(n)) => o.num("ret", n as f64),
        Some(RtVal::Float(x)) => o.num("ret", x),
        Some(RtVal::Bool(b)) => o.bool("ret", b),
        Some(other) => o.str("ret", &format!("{other:?}")),
        None => o.null("ret"),
    }
    let lines: Vec<String> = output
        .iter()
        .map(|l| format!("\"{}\"", pspdg_obs::export::esc(l)))
        .collect();
    o.raw("output", &format!("[{}]", lines.join(",")));
    o.finish()
}

/// The SYNTH shapes of `module_cold`: function count and static
/// reference count are the axes the analysis layers scale with.
fn synth_shapes() -> Vec<(String, String)> {
    let mut v = Vec::new();
    for n in [100, 200, 400] {
        v.push((format!("module{n}.synth"), synth::module(n, 32).source));
    }
    for b in [16, 32, 64] {
        v.push((format!("wide{b}.synth"), synth::wide(b).source));
    }
    v
}

fn nas_sources(class: Class) -> Vec<(String, String)> {
    let tag = match class {
        Class::Test => "test",
        Class::Mini => "mini",
    };
    fault_suite(class)
        .into_iter()
        .map(|b| (format!("{}.{tag}", b.name), b.source))
        .collect()
}

/// Every (name, source) a golden is committed for.
pub fn all_sources() -> Vec<(String, String)> {
    let mut v = nas_sources(Class::Mini);
    v.extend(nas_sources(Class::Test));
    v.extend(synth_shapes());
    v
}

/// A workload's recipe: clients, salted, sources, request kinds per
/// program, predicted dominant layers.
struct Mix(
    usize,
    bool,
    Vec<(String, String)>,
    Vec<(Op, Abstraction)>,
    &'static [&'static str],
);

/// Build workload `name` (sources generated here, goldens read from
/// disk — both are part of the measured set-up). A smoke run keeps the
/// first three programs only.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let (_, c) = cores();
    let nas = |class| nas_sources(class);
    let each = |op| Abstraction::ALL.iter().map(|a| (op, *a)).collect();
    let pspdg = |op| vec![(op, Abstraction::PsPdg)];
    let m = match name {
        "nas_cold" => Mix(1, true, nas(Class::Mini), pspdg(Op::Execute), &["ir"]),
        "nas_warm" => Mix(1, false, nas(Class::Mini), pspdg(Op::Execute), &["runtime"]),
        "plan_hot" => Mix(
            c,
            false,
            nas(Class::Mini),
            each(Op::Plan),
            &["frontend", "service"],
        ),
        "module_cold" => Mix(
            1,
            true,
            synth_shapes(),
            vec![(Op::Plan, Abstraction::PsPdg), (Op::Plan, Abstraction::Jk)],
            &["pdg", "core", "parallelizer", "frontend"],
        ),
        "nas_report" => Mix(1, true, nas(Class::Test), each(Op::Report), &["emulator"]),
        _ => return None,
    };
    let Mix(clients, salted, sources, kinds, dominant) = m;
    let programs: Vec<Program> = sources
        .into_iter()
        .take(if smoke { 3 } else { usize::MAX })
        .map(|(name, source)| Program {
            golden: Golden::load(&name),
            name,
            source,
        })
        .collect();
    let mut rows = Vec::new();
    let mut groups = Vec::new();
    for (pi, p) in programs.iter().enumerate() {
        let mut group = Vec::new();
        for (op, abstraction) in &kinds {
            group.push(rows.len());
            rows.push(Row {
                name: format!(
                    "{}/{}/{}",
                    p.name,
                    op.name(),
                    pspdg_service::proto::abstraction_name(*abstraction)
                ),
                program: pi,
                op: *op,
                abstraction: *abstraction,
            });
        }
        // `module_cold` keeps a shape's two plans on one salted source
        // (cold build, then session hit + plan miss); everywhere else
        // each row is its own group.
        if name == "module_cold" {
            groups.push(group);
        } else {
            groups.extend(group.into_iter().map(|r| vec![r]));
        }
    }
    let mut first_kind = vec![false; rows.len()];
    for g in &groups {
        first_kind[g[0]] = true;
    }
    Some(Workload {
        name: WORKLOADS.iter().find(|w| **w == name)?,
        clients,
        salted,
        programs,
        rows,
        groups,
        first_kind,
        dominant,
    })
}

static SALT: AtomicU64 = AtomicU64::new(0);

/// `source` with a never-repeating dead global prepended: compiles,
/// changes the content key (so the `PlanStore` misses), and leaves the
/// program's return value, output and every other global untouched.
fn salt(seed: u64, source: &str) -> String {
    let n = SALT.fetch_add(1, Ordering::Relaxed);
    format!("int zz_salt_{seed}_{n};\n{source}")
}

impl Workload {
    /// The group indices in an order shuffled from `rng` (one round's
    /// sending order).
    pub fn shuffled(&self, rng: &mut Rng64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.groups.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        order
    }

    /// The source `group`'s rows share this round: its program's, freshly
    /// salted on a salted workload.
    pub fn source_for(&self, group: usize, seed: u64) -> Cow<'_, str> {
        let base = &self.programs[self.rows[self.groups[group][0]].program].source;
        if self.salted {
            Cow::Owned(salt(seed, base))
        } else {
            Cow::Borrowed(base)
        }
    }

    /// The request for `row` over `source` (salted or not), with the
    /// runtime worker count pinned to `C`.
    pub fn request(&self, row: &Row, source: &str) -> Request {
        let input = Input::Source(source.to_string());
        let workers = Some(cores().1);
        match row.op {
            Op::Plan => Request::Plan {
                input,
                abstraction: row.abstraction,
            },
            Op::Execute => Request::Execute {
                input,
                abstraction: row.abstraction,
                workers,
            },
            Op::Report => Request::Report {
                input,
                abstraction: row.abstraction,
                workers,
            },
        }
    }
}

/// Regenerate every golden from the sequential interpreter (`--goldens`;
/// the committed files were produced this way once and reviewed).
pub fn write_goldens() {
    std::fs::create_dir_all(EXPECTED_DIR).expect("create expected dir");
    for (name, source) in all_sources() {
        let program = pspdg_frontend::compile(&source).expect("bundled source compiles");
        let mut interp = Interpreter::new(&program.module);
        let ret = interp.run_main(&mut NullSink).expect("sequential run");
        let path = Path::new(EXPECTED_DIR).join(format!("{name}.json"));
        std::fs::write(&path, golden_json(&name, ret, interp.output()) + "\n")
            .expect("write golden");
        println!("wrote {}", path.display());
    }
}
