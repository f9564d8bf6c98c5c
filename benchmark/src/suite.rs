//! Whole-suite runs and their comparison.
//!
//! `--suite OUT.json` runs every workload in a process of its own (so
//! peaks in memory do not accumulate), untraced and traced, for each
//! seed, checks the reported metric names against `BENCHMARK.json`, and
//! collects the result lines with the host's particulars. `--compare`
//! reads two such files and judges every workload × end-to-end metric
//! against the bound `BENCHMARK.json` fixes for it.

use std::process::Command;
use std::time::Instant;

use pspdg_obs::json::{parse, Value};
use pspdg_service::proto::JsonObj;

use crate::stats::{median, spread};
use crate::workloads::cores;

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct E2eSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<E2eSpec>,
    per_layer: Vec<String>,
}

fn names(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
        .iter()
        .map(|m| text(m, "name"))
        .collect()
}

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?}"))
        .to_string()
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing number {key:?}"))
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path} unreadable: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path} unparseable: {e}"))
}

/// `BENCHMARK.json`, from the repo root the benchmark runs in.
fn spec() -> Spec {
    let v = load("BENCHMARK.json");
    Spec {
        run_seconds: num(&v, "run_seconds"),
        workloads: names(&v, "workloads"),
        end_to_end: v
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json: no end_to_end")
            .iter()
            .map(|m| E2eSpec {
                name: text(m, "name"),
                unit: text(m, "unit"),
                lower_is_better: text(m, "better") == "lower",
                bound: num(m, "bound"),
            })
            .collect(),
        per_layer: names(&v, "per_layer"),
    }
}

/// The `run_seconds` of `BENCHMARK.json`: the default `--seconds`.
pub fn run_seconds() -> f64 {
    spec().run_seconds
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run the suite and write `out`. Returns the process exit code: 0 only
/// if every run was correct and reported exactly the declared metrics.
pub fn run(
    out: &str,
    seeds: &[u64],
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
) -> i32 {
    let spec = spec();
    let exe = std::env::current_exe().expect("own path");
    let (host_cores, cores_used) = cores();
    let mut runs = Vec::new();
    let mut bad = 0;
    for &seed in seeds {
        for workload in &spec.workloads {
            for traced in [false, true] {
                if trace.is_some_and(|t| t != traced) {
                    continue;
                }
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }]);
                if let Some(s) = seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if smoke {
                    cmd.arg("--smoke");
                }
                let t0 = Instant::now();
                let output = cmd.output().expect("spawn workload run");
                let wall_s = t0.elapsed().as_secs_f64();
                let stdout = String::from_utf8_lossy(&output.stdout);
                let last = stdout.lines().last().unwrap_or("");
                let result = parse(last).ok().filter(|_| output.status.success());
                let declared: Vec<&str> = if traced {
                    spec.per_layer.iter().map(String::as_str).collect()
                } else {
                    spec.end_to_end.iter().map(|m| m.name.as_str()).collect()
                };
                let reported: Vec<&str> = result
                    .as_ref()
                    .and_then(|r| r.get("metrics"))
                    .and_then(Value::as_object)
                    .map(|m| m.iter().map(|(k, _)| k.as_str()).collect())
                    .unwrap_or_default();
                let correct =
                    result.as_ref().and_then(|r| r.get("correct")) == Some(&Value::Bool(true));
                let verdict = if !correct {
                    "INCORRECT"
                } else if reported != declared {
                    "METRICS DIFFER FROM BENCHMARK.json"
                } else {
                    "ok"
                };
                println!(
                    "{workload:<12} seed {seed:<10} trace {} {wall_s:>6.1} s  {verdict}",
                    u8::from(traced)
                );
                if verdict != "ok" {
                    bad += 1;
                    // The run's own report says which check failed.
                    print!("{stdout}{}", String::from_utf8_lossy(&output.stderr));
                }
                let mut o = JsonObj::new();
                o.str("workload", workload);
                o.num("seed", seed as f64);
                o.num("trace", f64::from(u8::from(traced)));
                o.raw("wall_s", &format!("{wall_s}"));
                o.raw("result", if result.is_some() { last } else { "null" });
                runs.push(o.finish());
            }
        }
    }
    let mut o = JsonObj::new();
    let seed_list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    o.raw("seeds", &format!("[{}]", seed_list.join(",")));
    o.raw(
        "seconds",
        &format!("{}", seconds.unwrap_or(spec.run_seconds)),
    );
    o.bool("smoke", smoke);
    o.num("host_cores", host_cores as f64);
    o.num("cores_used", cores_used as f64);
    o.str("git_revision", &tool_line("git", &["rev-parse", "HEAD"]));
    o.str("rustc", &tool_line("rustc", &["-V"]));
    o.raw("runs", &format!("[\n{}\n]", runs.join(",\n")));
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(out, o.finish() + "\n").expect("write suite file");
    println!("wrote {out}: {} run(s), {bad} not ok", runs.len());
    i32::from(bad > 0)
}

/// The values of end-to-end `metric` on `workload` over a suite file's
/// untraced runs.
fn values(suite: &Value, workload: &str, metric: &str) -> Vec<f64> {
    suite
        .get("runs")
        .and_then(Value::as_array)
        .expect("suite file: no runs")
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Value::as_str) == Some(workload)
                && r.get("trace").and_then(Value::as_f64) == Some(0.0)
        })
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Print one row per workload × end-to-end metric: both medians, each
/// side's spread (interquartile range ÷ median), the ratio with its
/// base, and the verdict against the metric's bound. Returns 1 if any
/// row is `worse`.
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let spec = spec();
    let (a, b) = (load(a_path), load(b_path));
    println!("A = {a_path}\nB = {b_path}\nratio = median B / median A (base: A); spread = (q3 - q1) / median");
    println!(
        "{:<12} {:<20} {:<6} {:>3} {:>12} {:>8} {:>3} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "nA",
        "median A",
        "spread A",
        "nB",
        "median B",
        "spread B",
        "B/A",
        "bound"
    );
    let mut worse = 0;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(&a, workload, &m.name), values(&b, workload, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<12} {:<20} missing on one side", m.name);
                worse += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let (sa, sb) = (spread(&va), spread(&vb));
            let worse_by = if m.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
            let b_always_better = vb.iter().all(|x| va.iter().all(|y| better(*x, *y)));
            let verdict = if worse_by > m.bound {
                worse += 1;
                "worse"
            } else if sa.max(sb) > m.bound && !b_always_better {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<12} {:<20} {:<6} {:>3} {ma:>12.4} {:>7.2}% {:>3} {mb:>12.4} {:>7.2}% {:>8.4} {:>5.0}%  {verdict}",
                m.name,
                m.unit,
                va.len(),
                100.0 * sa,
                vb.len(),
                100.0 * sb,
                mb / ma,
                100.0 * m.bound
            );
        }
    }
    i32::from(worse > 0)
}
