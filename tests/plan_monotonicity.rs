//! A planned loop never lengthens the emulated critical path.
//!
//! The planner trusts the ideal machine to say what a loop is worth, so
//! adding a loop to a plan must never predict worse than leaving it out:
//! for every planned loop of every `fault_suite` plan (Test and Mini, all
//! four abstractions), the plan without that loop emulates a critical
//! path at least as long as the whole plan's.

use pspdg::emulator::emulate;
use pspdg::ir::interp::{Interpreter, NullSink};
use pspdg::nas::{fault_suite, Class};
use pspdg::parallelizer::{build_plan, Abstraction};

#[test]
fn dropping_a_planned_loop_never_shortens_the_critical_path() {
    let mut removals = 0;
    let mut shorter = Vec::new();
    for class in [Class::Test, Class::Mini] {
        for b in fault_suite(class) {
            let p = b.program();
            let mut interp = Interpreter::new(&p.module);
            interp.run_main(&mut NullSink).expect("profile run");
            for a in Abstraction::ALL {
                let plan = build_plan(&p, interp.profile(), a, 0.01);
                let whole = emulate(&p, &plan).expect("emulates").critical_path;
                let mut keys: Vec<_> = plan.loops.keys().copied().collect();
                keys.sort();
                for key in keys {
                    let mut without = plan.clone();
                    without.loops.remove(&key);
                    let cp = emulate(&p, &without).expect("emulates").critical_path;
                    removals += 1;
                    if cp < whole {
                        shorter.push(format!(
                            "{} {class:?} {a:?} without {key:?}: {whole} -> {cp}",
                            b.name
                        ));
                    }
                }
            }
        }
    }
    assert!(removals > 200, "only {removals} loop removals checked");
    assert!(
        shorter.is_empty(),
        "{} of {removals} removals shorten the critical path:\n{}",
        shorter.len(),
        shorter.join("\n")
    );
}
