//! Explore the parallelization-plan space of each NAS kernel: how many
//! options each abstraction gives the compiler (the per-benchmark Fig. 13
//! data), with the per-loop breakdown.
//!
//! ```sh
//! cargo run --release --example plan_explorer [BENCH]
//! ```

use pspdg::nas::{benchmark, suite, Class};
use pspdg::parallelizer::{enumerate_program, Abstraction, MachineModel};
use pspdg::Session;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "MG".to_string());
    let Some(b) = benchmark(&which, Class::Test) else {
        eprintln!(
            "unknown benchmark '{which}'; available: {}",
            suite(Class::Test)
                .iter()
                .map(|b| b.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    };
    println!("{} — {}", b.name, b.description);
    println!("{}", "-".repeat(72));

    // Compile + profile + analyze once; plans and runtimes come off the
    // cached session.
    let session = Session::from_program(b.program()).expect("runs");
    let program = session.program();
    let machine = MachineModel::paper();

    let options = enumerate_program(program, session.profile(), &machine, 0.01);
    for opts in &options.functions {
        if opts.per_loop.is_empty() {
            continue;
        }
        println!("function @{}:", program.module.function(opts.func).name);
        let mut loops: Vec<_> = opts.per_loop.iter().map(|(l, _, _)| *l).collect();
        loops.sort();
        loops.dedup();
        for l in loops {
            print!("    loop{:<3}", l.0);
            for a in Abstraction::ALL {
                let n = opts
                    .per_loop
                    .iter()
                    .find(|(ll, aa, _)| *ll == l && *aa == a)
                    .map(|(_, _, n)| *n)
                    .unwrap_or(0);
                print!(" {a}={n:<5}");
            }
            println!();
        }
        print!("    total  ");
        for a in Abstraction::ALL {
            print!(" {a}={:<5}", opts.totals.get(&a).copied().unwrap_or(0));
        }
        println!();
    }
    println!();
    println!("DOALL loops offer cores x chunk-sizes options; non-DOALL loops offer");
    println!("HELIX (sequential segments x cores) + DSWP (pipeline stages) options.");

    // Run the PS-PDG best plan on the parallel runtime and report what
    // the activations actually did (chunked / fallbacks by cause and
    // the pool, replay, and copy-on-write volume behind them). The
    // session checks the run against its sequential baseline.
    let out = session
        .execute(Abstraction::PsPdg, 4)
        .expect("runtime executes the plan");
    assert!(out.matches_baseline(session.baseline()));
    println!();
    println!("executed under the PS-PDG plan (4 workers):");
    println!("{}", out.stats);
}
