//! The paper's Fig. 3 walk-through: the IS kernel, the plan the programmer
//! encoded, and the better plan the compiler can select once it sees the
//! precise parallel constraints through the PS-PDG.
//!
//! Planning goes through the [`pspdg::PlanStore`] cache: the session is
//! built once (profile, PDGs, overlay-assembled `EffectiveView` PS-PDGs)
//! and every abstraction's plan — plus every *re*-plan — is enumerated
//! from those cached artifacts. The end of the example times that: a
//! replan re-runs only enumeration + lowering, so it must be cheaper
//! than building the session from scratch.
//!
//! ```sh
//! cargo run --release --example is_replanning
//! ```

use std::time::{Duration, Instant};

use pspdg::emulator::compare_plans;
use pspdg::nas::{benchmark, Class};
use pspdg::parallelizer::{Abstraction, Discharge};
use pspdg::{PlanStore, Session};

fn main() {
    let is = benchmark("IS", Class::Test).expect("IS exists");
    println!("IS — the paper's running example (Fig. 3)");
    println!("{}", "-".repeat(64));
    println!("{}", is.description);
    println!();

    // One cached session: profiling run, PDG build, and EffectiveView
    // assembly happen here, exactly once.
    let store = PlanStore::new();
    let session = store.get_or_build(is.program()).expect("IS runs");
    let program = session.program();

    // What each abstraction plans for the kernel's loops — each plan is
    // enumerated from the session's cached analysis artifacts.
    for a in Abstraction::ALL {
        let bundle = session.plan(a);
        println!(
            "{a} plan: {} parallel loops, {} mutex groups",
            bundle.plan.loops.len(),
            bundle.plan.mutexes.len()
        );
        let mut specs: Vec<_> = bundle.plan.loops.values().collect();
        specs.sort_by_key(|s| (s.func.0, s.loop_id.0));
        for spec in specs {
            let fname = &program.module.function(spec.func).name;
            let mut kinds = [0; 3];
            for d in spec.discharged.values() {
                kinds[match d {
                    Discharge::Private => 0,
                    Discharge::Reduction(_) => 1,
                    Discharge::Accumulator(_) => 2,
                }] += 1;
            }
            let [private, reduction, accumulator] = kinds;
            println!(
                "    {}::loop{} -> {} (discharges {private} private, {reduction} reduction, \
                 {accumulator} accumulator objects)",
                fname,
                spec.loop_id.0,
                spec.technique.name(),
            );
        }
    }
    println!();

    // The resulting critical paths on the ideal machine (Fig. 14 row).
    let row = compare_plans("IS", program).expect("emulates");
    println!("ideal-machine critical paths:");
    for (a, r) in &row.results {
        println!(
            "    {:<7} CP = {:>8}   ({:.2}x over OpenMP, parallelism {:.1})",
            a.to_string(),
            r.critical_path,
            row.reduction_over_openmp(*a),
            r.parallelism()
        );
    }
    println!();

    // Replanning cost: a second request for the same session hits the
    // store, and re-enumerating a plan reuses the assembled PS-PDGs.
    // Both must beat rebuilding the whole pipeline from source.
    let fresh = min_time(3, || {
        let s = Session::from_program(is.program()).expect("IS runs");
        s.plan(Abstraction::PsPdg);
    });
    let replan = min_time(3, || {
        session.replan(Abstraction::PsPdg);
    });
    assert_eq!(store.stats().builds, 1, "replanning must not rebuild");
    assert!(
        replan < fresh,
        "replan ({replan:?}) must be cheaper than a fresh build ({fresh:?})"
    );
    println!("replanning from the cached EffectiveView PS-PDGs: {replan:?}");
    println!("building profile + PDG + PS-PDG + plan from scratch: {fresh:?}");
    println!();
    println!("The PS-PDG plan keeps the programmer's loop-2 parallelism, adds the");
    println!("loops the programmer left sequential, and drops the critical-section");
    println!("serialization where the protected accesses are provably disjoint —");
    println!("exactly the compiler-selected plan of Fig. 3 (right).");
}

fn min_time(samples: usize, mut f: impl FnMut()) -> Duration {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("at least one sample")
}
