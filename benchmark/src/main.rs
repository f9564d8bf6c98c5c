//! `pspdg_benchmark` — one request through the plan daemon, five
//! workloads, and an outside-in per-layer trace. See `benchmark/README.md`
//! for the glossary and `BENCHMARK.json` for the contract.
//!
//! ```text
//! pspdg_benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! pspdg_benchmark --suite OUT.json [--seeds A,B,..] [--seconds S] [--trace 0|1] [--smoke]
//! pspdg_benchmark --compare A.json B.json
//! pspdg_benchmark --goldens
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: it prints a
//! readable report and, as the last line of stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod e2e;
mod stats;
mod suite;
mod trace;
mod workloads;

use pspdg_service::proto::JsonObj;

use e2e::Options;
use workloads::{cores, DEFAULT_SEED, WORKLOADS};

/// A reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn usage() -> ! {
    eprintln!(
        "usage: pspdg_benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      pspdg_benchmark --suite OUT.json [--seeds A,B,..] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      pspdg_benchmark --compare A.json B.json\n\
         \x20      pspdg_benchmark --goldens",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut suite_out = None;
    let mut seeds = vec![DEFAULT_SEED];
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload = Some(value(&mut i)),
            "--seed" | "--seeds" => {
                seeds = value(&mut i)
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--seconds" => seconds = Some(value(&mut i).parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => trace = Some(value(&mut i) == "1"),
            "--smoke" => smoke = true,
            "--suite" => suite_out = Some(value(&mut i)),
            "--compare" => {
                let (a, b) = (value(&mut i), value(&mut i));
                std::process::exit(suite::compare(&a, &b));
            }
            "--goldens" => return workloads::write_goldens(),
            _ => usage(),
        }
        i += 1;
    }
    if let Some(out) = suite_out {
        std::process::exit(suite::run(&out, &seeds, seconds, trace, smoke));
    }
    let Some(name) = workload else { usage() };
    if !WORKLOADS.contains(&name.as_str()) {
        usage();
    }
    let opts = Options {
        seed: seeds[0],
        seconds: seconds.unwrap_or(if smoke { 0.0 } else { suite::run_seconds() }),
        smoke,
    };
    let trace = trace.unwrap_or(false);
    let (host_cores, cores_used) = cores();
    println!(
        "workload {name}  seed {}  seconds {}  trace {}  host_cores {host_cores}  cores_used {cores_used}",
        opts.seed,
        opts.seconds,
        u8::from(trace)
    );

    let (correct, attempted, failed, metrics) = if trace {
        trace::report(&name, &opts)
    } else {
        report_e2e(&name, &opts)
    };
    let mut m = JsonObj::new();
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.6} {unit}");
        let mut o = JsonObj::new();
        o.raw("value", &format!("{value}"));
        o.str("unit", unit);
        m.raw(name, &o.finish());
    }
    let mut o = JsonObj::new();
    o.bool("correct", correct);
    o.num("attempted", attempted as f64);
    o.num("failed", failed as f64);
    o.raw("metrics", &m.finish());
    println!("{}", o.finish());
}

/// Run the end-to-end pass, print the per-row lines, and return the
/// result line's parts.
fn report_e2e(name: &str, opts: &Options) -> (bool, u64, u64, Vec<Metric>) {
    let r = e2e::run(name, opts);
    let ok = r.timed_ok();
    println!(
        "timed phase: {ok} OK requests in {:.3} s raw over {} client(s); {} set-up(s)",
        r.raw_wall_s,
        r.w.clients,
        r.setups_s.len()
    );
    println!(
        "times below are calibrated (benchmark/src/calib.rs): this run's host took {:.3}x the reference",
        r.host_slowdown
    );
    let mut row_medians = Vec::new();
    let mut all = Vec::new();
    for (row, ms) in r.w.rows.iter().zip(&r.row_ms) {
        if ms.is_empty() {
            continue;
        }
        let med = stats::median(ms);
        println!(
            "  row {:<34} n {:>6}  median {:>10.4} ms  max {:>10.4} ms",
            row.name,
            ms.len(),
            med,
            ms.iter().copied().fold(0.0, f64::max)
        );
        row_medians.push(med);
        all.extend_from_slice(ms);
    }
    for p in r.tally.problems.iter().chain(&r.traffic_problems) {
        println!("FAILED CHECK: {p}");
    }
    let correct = r.tally.failed == 0 && r.traffic_problems.is_empty() && ok > 0;
    println!(
        "failed_share {} / {} ; store before {:?} after {:?}",
        r.tally.failed, r.tally.attempted, r.cache.0, r.cache.1
    );
    let metrics = if ok == 0 {
        Vec::new()
    } else {
        println!(
            "latency_p95_ms over {} samples ({} beyond it)",
            all.len(),
            all.len() - (0.95 * all.len() as f64).ceil() as usize
        );
        vec![
            ("setup_s", stats::median(&r.setups_s), "s"),
            ("throughput_rps", r.throughput_rps, "req/s"),
            ("latency_geomean_ms", stats::geomean(&row_medians), "ms"),
            ("latency_p95_ms", stats::percentile(&all, 95.0), "ms"),
            ("cpu_ms_per_request", r.cpu_s * 1e3 / ok as f64, "ms"),
            ("peak_rss_mb", r.peak_rss_mib, "MiB"),
        ]
    };
    (correct, r.tally.attempted, r.tally.failed, metrics)
}
