//! # pspdg-nas — the miniature NAS Parallel Benchmark suite
//!
//! Faithful ParC ports of the eight NAS kernels' hot computational
//! patterns (paper §6: "We utilize the entire NAS Benchmark Suite"),
//! preserving what drives the paper's experiments:
//!
//! * which loops the programmer parallelized (`omp parallel for`);
//! * which variables are `private` / `reduction` / protected by
//!   `critical` / `atomic`;
//! * the dependence structure of the loops the programmer did *not*
//!   parallelize (recurrences, indirect subscripts, private work arrays).
//!
//! | Kernel | Pattern preserved |
//! |---|---|
//! | BT | per-line block solves with private work arrays + rhs stencil |
//! | CG | sparse mat-vec with row pointers + dot-product reductions |
//! | EP | pseudo-random pair acceptance with reductions and atomic bins |
//! | FT | batched mini-DFT + element-wise evolve |
//! | IS | the paper's running example: bucket counting with a private histogram, prefix sum, critical merge |
//! | LU | SSOR-style wavefront sweep (sequential outer, parallel inner) |
//! | MG | stencil smooth/residual + norm reductions with a critical max |
//! | SP | pentadiagonal line solves with private forward/backward sweeps |
//!
//! Problem sizes are scaled ("class Test/Mini" instead of B/C) so dynamic
//! traces stay small enough for the ideal-machine emulator while preserving
//! who-wins/by-what-factor shapes (see DESIGN.md).

#![warn(missing_docs)]

pub mod kernels;
pub mod synth;

use pspdg_frontend::compile;
use pspdg_parallel::ParallelProgram;

/// Problem-size class (the mini analogue of NAS classes S/W/A/B/C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Small: traces of a few tens of thousands of instructions (unit and
    /// integration tests).
    Test,
    /// Medium: traces of a few hundred thousand instructions (benchmark
    /// harness).
    Mini,
}

/// One benchmark: its name and ParC source.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Uppercase NAS name (`"IS"`, `"CG"`, …).
    pub name: &'static str,
    /// One-line description of the preserved pattern.
    pub description: &'static str,
    /// The ParC program (self-contained: globals + kernel + `main`).
    pub source: String,
}

impl Benchmark {
    /// Compile to a validated [`ParallelProgram`].
    ///
    /// # Panics
    ///
    /// Panics if the bundled source fails to compile — that is a bug in
    /// this crate, covered by its tests.
    pub fn program(&self) -> ParallelProgram {
        match compile(&self.source) {
            Ok(p) => p,
            Err(e) => panic!("bundled NAS kernel {} failed to compile: {e}", self.name),
        }
    }
}

/// The eight benchmarks in the paper's figure order (BT CG EP FT IS LU MG
/// SP).
pub fn suite(class: Class) -> Vec<Benchmark> {
    vec![
        kernels::bt::benchmark(class),
        kernels::cg::benchmark(class),
        kernels::ep::benchmark(class),
        kernels::ft::benchmark(class),
        kernels::is::benchmark(class),
        kernels::lu::benchmark(class),
        kernels::mg::benchmark(class),
        kernels::sp::benchmark(class),
    ]
}

/// The kernel set the *runtime* bench measures: the eight NAS kernels
/// plus the SYNTH-family GMAX kernel, whose guarded argmax/argmin
/// criticals are parallel only through the runtime's commit-time critical
/// replay (see [`synth::gmax`]).
pub fn runtime_suite(class: Class) -> Vec<Benchmark> {
    let mut v = suite(class);
    v.push(synth::gmax(class));
    v
}

/// The runtime suite plus the SYNTH-family PIPE kernel, whose hot loop is
/// a carried recurrence no strategy splits — so the runtime's differential
/// pins cover a kernel where the `scheduled_sequential` path is the whole
/// run (see [`synth::pipe`]).
pub fn fault_suite(class: Class) -> Vec<Benchmark> {
    let mut v = runtime_suite(class);
    v.push(synth::pipe(class));
    v
}

/// Look a benchmark up by (case-insensitive) name, searching the fault
/// suite (the eight NAS kernels plus GMAX and PIPE).
pub fn benchmark(name: &str, class: Class) -> Option<Benchmark> {
    fault_suite(class)
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete_and_ordered() {
        let names: Vec<&str> = suite(Class::Test).iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"]);
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("is", Class::Test).is_some());
        assert!(benchmark("IS", Class::Test).is_some());
        assert!(benchmark("XX", Class::Test).is_none());
    }
}
