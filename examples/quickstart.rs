//! Quickstart: compile a ParC kernel, build its PDG and PS-PDG, and see the
//! dependence the programmer's pragma discharges.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pspdg::core::{build_pspdg, query, FeatureSet};
use pspdg::parallelizer::Abstraction;
use pspdg::pdg::{FunctionAnalyses, Pdg};
use pspdg::Session;

fn main() {
    // A histogram with an indirect subscript: no sequential compiler can
    // prove the iterations independent, but the programmer declared it.
    let source = r#"
        int key[256];
        int hist[256];
        void kernel() {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 256; i++) { hist[key[i]] += 1; }
        }
        int main() {
            int i;
            for (i = 0; i < 256; i++) { key[i] = (i * 37 + 11) % 256; }
            kernel();
            print_i64(hist[0] + hist[128]);
            return 0;
        }
    "#;

    // One call compiles, profiles sequentially (the baseline oracle),
    // and builds the per-function PDG/PS-PDG artifacts.
    let session = Session::compile(source).expect("ParC compiles and runs");
    let program = session.program();
    println!(
        "compiled: {} IR instructions, {} directives",
        program.module.size(),
        program.len()
    );
    println!(
        "executed {} dynamic instructions, printed: {:?}",
        session.baseline().steps,
        session.baseline().output
    );

    // Build the PDG and the PS-PDG for the kernel.
    let f = program.module.function_by_name("kernel").unwrap();
    let analyses = FunctionAnalyses::compute(&program.module, f);
    let pdg = Pdg::build(&program.module, f, &analyses);
    let pspdg = build_pspdg(program, f, &analyses, &pdg, FeatureSet::all());

    let l = analyses.forest.loop_ids().next().unwrap();
    let pdg_carried = pdg.carried_edges(l).filter(|e| e.kind.is_memory()).count();
    let ps_blocking = query::blocking_carried_edges(&pspdg, &analyses, l).len();
    println!();
    println!("histogram loop, memory dependences carried across iterations:");
    println!("  PDG    : {pdg_carried:>3}   (the indirect subscript is opaque to analysis)");
    println!("  PS-PDG : {ps_blocking:>3}   (the `omp parallel for` declaration discharges them)");
    println!();
    println!(
        "PS-PDG structure: {} nodes, {} edges, {} contexts, {} variables",
        pspdg.nodes.len(),
        pspdg.edge_count(),
        pspdg.contexts.len(),
        pspdg.variables.len()
    );

    // Execute the PS-PDG plan on the parallel runtime and show what
    // actually happened: how many activations chunked or fell back, and
    // what the pool / critical-replay / CoW machinery did. The
    // session caches the plan and checks the run against its baseline.
    let rt = session
        .runtime(Abstraction::PsPdg)
        .workers(4)
        .cost_threshold(0);
    let out = session
        .run_configured(Abstraction::PsPdg, &rt)
        .expect("parallel run succeeds");
    assert!(
        out.matches_baseline(session.baseline()),
        "runtime matches the interpreter"
    );
    println!();
    println!("parallel execution (4 workers):");
    println!("{}", out.stats);
}
