//! Concrete parallel execution plans for the ideal-machine emulator
//! (paper §6.3 methodology).
//!
//! * **OpenMP** — "the parallelism expressed by programmers": exactly the
//!   worksharing loops, with `critical`/`atomic` serialization and
//!   reduction merges;
//! * **PDG** — "every outermost loop is parallelized using DOALL, HELIX, or
//!   DSWP using the SCCs generated from the PDG" over the sequential
//!   program;
//! * **J&K** — "the SCCs from the PDG along with inner developer-expressed
//!   loops";
//! * **PS-PDG** — "the SCCs from the PS-PDG, as well as inner
//!   developer-expressed loops".

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pspdg_core::query::{self, LoopDeps};
use pspdg_core::{build_pspdg_module_recorded, FeatureSet, FunctionPsPdg, PsPdg};
use pspdg_ir::interp::Profile;
use pspdg_ir::{FuncId, InstId, LoopId};
use pspdg_parallel::{DirectiveKind, ParallelProgram};
use pspdg_pdg::MemBase;

use crate::assess::assess_loop;
use crate::hotloops::hot_loops;
use crate::views::{Abstraction, AbstractionView};

/// How a planned loop is parallelized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannedTechnique {
    /// Iterations are fully independent (one lane per iteration).
    Doall,
    /// Iterations overlap, but the sequential segments (instructions of
    /// sequential SCCs) execute in iteration order.
    Helix {
        /// Instructions belonging to sequential SCCs.
        sequential_insts: BTreeSet<InstId>,
    },
    /// The SCC DAG is pipelined; each instruction is assigned a stage.
    Dswp {
        /// Stage of each loop instruction.
        stage_of: BTreeMap<InstId, u32>,
        /// Total number of stages.
        stages: u32,
    },
}

impl PlannedTechnique {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            PlannedTechnique::Doall => "DOALL",
            PlannedTechnique::Helix { .. } => "HELIX",
            PlannedTechnique::Dswp { .. } => "DSWP",
        }
    }
}

/// One parallelized loop in a program plan.
#[derive(Debug, Clone)]
pub struct LoopPlanSpec {
    /// Enclosing function.
    pub func: FuncId,
    /// The loop.
    pub loop_id: LoopId,
    /// Chosen technique.
    pub technique: PlannedTechnique,
    /// Base objects through which cross-iteration flow dependences are
    /// discharged by the plan (privatized copies, reductions, declared
    /// independence, the induction variable).
    pub ignored_bases: BTreeSet<MemBase>,
    /// Subset of `ignored_bases` merged by a reduction at loop end (adds a
    /// log₂(iterations) merge chain on the ideal machine).
    pub reduction_bases: BTreeSet<MemBase>,
    /// Whether the continuation joins all iterations at loop exit. True for
    /// every compiler-generated fork-join loop and for OpenMP worksharing
    /// without `nowait`.
    pub end_barrier: bool,
}

/// A mutual-exclusion group the plan must serialize (instances may not
/// overlap; order free).
#[derive(Debug, Clone)]
pub struct MutexSpec {
    /// Function containing the region(s).
    pub func: FuncId,
    /// Instructions covered by the lock.
    pub insts: BTreeSet<InstId>,
    /// Lock identity (shared by same-named criticals).
    pub lock: String,
}

/// A complete parallel execution plan for a program under one abstraction.
#[derive(Debug, Clone)]
pub struct ProgramPlan {
    /// The abstraction that produced the plan.
    pub abstraction: Abstraction,
    /// Parallelized loops, keyed by `(function, loop)`.
    pub loops: HashMap<(FuncId, LoopId), LoopPlanSpec>,
    /// Serialized critical/atomic groups.
    pub mutexes: Vec<MutexSpec>,
    /// Whether `cilk_spawn`ed calls run in their own strand (true for the
    /// plans that understand the spawn semantics).
    pub parallel_spawns: bool,
}

impl ProgramPlan {
    /// Number of parallelized loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether the plan parallelizes nothing (fully sequential execution).
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }
}

/// Build the execution plan of `program` under `abstraction`.
///
/// `profile` drives hot-loop selection for the compiler-driven plans; the
/// OpenMP plan follows the annotations regardless of coverage.
pub fn build_plan(
    program: &ParallelProgram,
    profile: &Profile,
    abstraction: Abstraction,
    threshold: f64,
) -> ProgramPlan {
    build_plan_recorded(program, profile, abstraction, threshold, None)
}

/// [`build_plan`] with optional pipeline tracing: the PS-PDG module
/// build records its per-function `pspdg/*` spans, and each function's
/// planning pass lands under a `plan/enumerate` span on whichever pool
/// worker ran it.
pub fn build_plan_recorded(
    program: &ParallelProgram,
    profile: &Profile,
    abstraction: Abstraction,
    threshold: f64,
    rec: Option<&pspdg_obs::Recorder>,
) -> ProgramPlan {
    // Per-function planning is independent: build every function's
    // analyses/PDG/PS-PDG through the parallel module driver, plan each
    // function concurrently, and merge in module function order so the
    // plan is deterministic.
    let built = build_pspdg_module_recorded(program, FeatureSet::all(), rec);
    plan_built_recorded(program, &built, profile, abstraction, threshold, rec)
}

/// Build the execution plan from **already-built** per-function analysis
/// artifacts (the `Vec<FunctionPsPdg>` a [`pspdg_core::build_pspdg_module`] produced
/// earlier — analyses, PDG, and the overlay-assembled PS-PDG).
///
/// This is the replanning / plan-cache entry point: a plan service keeps
/// the built module keyed by content hash and re-enumerates per
/// abstraction (or after a profile change) through this function, paying
/// only the enumeration cost — the PDG build and the `EffectiveView`
/// overlay assemble are never repeated.
pub fn plan_built(
    program: &ParallelProgram,
    built: &[FunctionPsPdg],
    profile: &Profile,
    abstraction: Abstraction,
    threshold: f64,
) -> ProgramPlan {
    plan_built_recorded(program, built, profile, abstraction, threshold, None)
}

/// [`plan_built`] with optional tracing (each function's enumeration
/// lands under a `plan/enumerate` span).
pub fn plan_built_recorded(
    program: &ParallelProgram,
    built: &[FunctionPsPdg],
    profile: &Profile,
    abstraction: Abstraction,
    threshold: f64,
    rec: Option<&pspdg_obs::Recorder>,
) -> ProgramPlan {
    let parallel_spawns = matches!(abstraction, Abstraction::OpenMp | Abstraction::PsPdg);
    let mut plan = ProgramPlan {
        abstraction,
        loops: HashMap::new(),
        mutexes: Vec::new(),
        parallel_spawns,
    };
    let parts: Vec<FunctionPlanParts> = pspdg_pool::par_map(built.iter().collect(), |prepared| {
        let _s = rec.map(|r| {
            let mut s = r.span("plan/enumerate", "pipeline");
            s.arg("func", program.module.function(prepared.func).name.as_str());
            s
        });
        plan_function(program, prepared, profile, abstraction, threshold)
    });
    for part in parts {
        plan.loops.extend(part.loops);
        plan.mutexes.extend(part.mutexes);
    }
    plan
}

/// One function's contribution to a [`ProgramPlan`].
#[derive(Debug, Default)]
struct FunctionPlanParts {
    loops: Vec<((FuncId, LoopId), LoopPlanSpec)>,
    mutexes: Vec<MutexSpec>,
}

fn plan_function(
    program: &ParallelProgram,
    prepared: &FunctionPsPdg,
    profile: &Profile,
    abstraction: Abstraction,
    threshold: f64,
) -> FunctionPlanParts {
    let mut plan = FunctionPlanParts::default();
    let FunctionPsPdg {
        func,
        analyses,
        pspdg,
        ..
    } = prepared;
    let func = *func;

    // --- developer-expressed loops (OpenMP plan; also nested into J&K and
    //     PS-PDG plans) -----------------------------------------------------
    if matches!(
        abstraction,
        Abstraction::OpenMp | Abstraction::Jk | Abstraction::PsPdg
    ) {
        for (_, d) in program.directives_in(func) {
            let is_ws = matches!(
                d.kind,
                DirectiveKind::For { .. } | DirectiveKind::CilkFor | DirectiveKind::Taskloop
            );
            if !is_ws {
                continue;
            }
            let Some(header) = d.loop_header else {
                continue;
            };
            let Some(l) = analyses
                .forest
                .loop_ids()
                .find(|l| analyses.forest.info(*l).header == header)
            else {
                continue;
            };
            let nowait = matches!(d.kind, DirectiveKind::For { nowait: true, .. });
            let deps = LoopDeps::of_pspdg(pspdg, analyses, l);
            let spec = developer_loop_spec(func, &deps, pspdg, nowait);
            plan.loops.push(((func, l), spec));
        }
    }

    // --- compiler-discovered loops ----------------------------------------
    let hot = match abstraction {
        Abstraction::OpenMp => Vec::new(),
        _ => hot_loops(&program.module, func, analyses, profile, threshold),
    };
    // A function without a hot loop never pays for its view.
    if !hot.is_empty() {
        let hot_set: BTreeSet<LoopId> = hot.iter().map(|h| h.loop_id).collect();
        let view = AbstractionView::select(abstraction, program, prepared);
        // Outermost-first: parallelize the outermost hot canonical loop of
        // each nest; descend only when a loop is not plannable.
        let mut stack: Vec<LoopId> = analyses.forest.top_level();
        while let Some(l) = stack.pop() {
            if !hot_set.contains(&l) {
                stack.extend(analyses.forest.info(l).children.iter().copied());
                continue;
            }
            if plan.loops.iter().any(|(k, _)| *k == (func, l)) {
                continue; // already planned as a developer loop
            }
            let deps = view.at(l);
            let assessment = assess_loop(&deps);
            let technique = if assessment.doall {
                PlannedTechnique::Doall
            } else if assessment.par_sccs > 0 {
                let mut sequential_insts = BTreeSet::new();
                for scc in assessment.dag.sccs.iter().filter(|s| s.sequential) {
                    sequential_insts.extend(scc.insts.iter().copied());
                }
                PlannedTechnique::Helix { sequential_insts }
            } else {
                // Entirely sequential: leave the loop alone, try children.
                stack.extend(analyses.forest.info(l).children.iter().copied());
                continue;
            };
            let ignored = removed_bases(&deps);
            let reductions = reduction_bases(pspdg, &deps, &ignored);
            plan.loops.push((
                (func, l),
                LoopPlanSpec {
                    func,
                    loop_id: l,
                    technique,
                    ignored_bases: ignored,
                    reduction_bases: reductions,
                    // Compiler-generated parallel loops are fork-join.
                    end_barrier: true,
                },
            ));
        }
    }

    // --- mutual exclusion ---------------------------------------------------
    match abstraction {
        Abstraction::OpenMp | Abstraction::Jk => {
            // Every critical/atomic region serializes, as written.
            for (_, d) in program.directives_in(func) {
                let lock = match &d.kind {
                    DirectiveKind::Critical { name } => {
                        format!("critical:{}", name.clone().unwrap_or_default())
                    }
                    DirectiveKind::Atomic => {
                        format!("atomic:{}", d.region.entry)
                    }
                    _ => continue,
                };
                let f = program.module.function(func);
                let mut insts = BTreeSet::new();
                for &bb in &d.region.blocks {
                    insts.extend(f.block(bb).insts.iter().copied());
                }
                plan.mutexes.push(MutexSpec { func, insts, lock });
            }
        }
        Abstraction::PsPdg => {
            // Only regions whose mutual exclusion survived (an undirected
            // edge exists) serialize; provably independent criticals don't.
            let mut groups: BTreeMap<String, BTreeSet<InstId>> = BTreeMap::new();
            for (_, a, b) in pspdg.undirected_edges() {
                let key = format!("mutex:{}:{}", a.index(), b.index());
                let mut insts: BTreeSet<InstId> = pspdg.node_insts(a).into_iter().collect();
                insts.extend(pspdg.node_insts(b));
                groups.entry(key).or_default().extend(insts);
            }
            for (lock, insts) in groups {
                plan.mutexes.push(MutexSpec { func, insts, lock });
            }
        }
        Abstraction::Pdg => {}
    }
    plan
}

/// Plan spec of a developer-annotated worksharing loop: DOALL with the
/// declaration's dependence discharges.
fn developer_loop_spec(
    func: FuncId,
    deps: &LoopDeps<'_>,
    pspdg: &PsPdg,
    nowait: bool,
) -> LoopPlanSpec {
    let ignored = removed_bases(deps);
    let reductions = reduction_bases(pspdg, deps, &ignored);
    LoopPlanSpec {
        func,
        loop_id: deps.loop_id,
        technique: PlannedTechnique::Doall,
        ignored_bases: ignored,
        reduction_bases: reductions,
        end_barrier: !nowait,
    }
}

/// Bases with a dependence carried at the loop in the base PDG that the
/// loop no longer sees as carried under its view (the dependences the plan
/// discharges), plus the canonical IV.
fn removed_bases(deps: &LoopDeps<'_>) -> BTreeSet<MemBase> {
    let l = deps.loop_id;
    let mut out: BTreeSet<MemBase> = deps
        .view
        .base()
        .carried_edges(l)
        .filter_map(|e| e.base)
        .collect();
    for base in deps.carried_edges().filter_map(|e| e.base) {
        out.remove(&base);
    }
    if let Some(c) = deps.analyses.canonical_of(l) {
        out.insert(MemBase::Alloca(c.iv_alloca));
    }
    out
}

/// The reducible bases applying to the loop (limited to bases the plan
/// actually discharges).
fn reduction_bases(
    pspdg: &PsPdg,
    deps: &LoopDeps<'_>,
    ignored: &BTreeSet<MemBase>,
) -> BTreeSet<MemBase> {
    let mut out = BTreeSet::new();
    for (i, v) in pspdg.variables.iter().enumerate() {
        if matches!(v.kind, pspdg_core::VariableKind::Reducible(_))
            && query::variable_applies_to_loop(pspdg, deps.analyses, i, deps.loop_id)
            && ignored.contains(&v.base)
        {
            out.insert(v.base);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;
    use pspdg_ir::interp::{Interpreter, NullSink};

    fn plans_for(src: &str) -> (pspdg_parallel::ParallelProgram, Vec<ProgramPlan>) {
        let p = compile(src).unwrap();
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut NullSink).unwrap();
        let plans = Abstraction::ALL
            .iter()
            .map(|a| build_plan(&p, interp.profile(), *a, 0.01))
            .collect();
        (p, plans)
    }

    const HIST: &str = r#"
        int key[256]; int hist[256];
        void k() {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 256; i++) { hist[key[i]] += 1; }
        }
        int main() { k(); return 0; }
    "#;

    #[test]
    fn openmp_plan_follows_annotations() {
        let (_, plans) = plans_for(HIST);
        let omp = &plans[0];
        assert_eq!(omp.abstraction, Abstraction::OpenMp);
        assert_eq!(omp.len(), 1);
        let spec = omp.loops.values().next().unwrap();
        assert_eq!(spec.technique, PlannedTechnique::Doall);
        assert!(spec.end_barrier);
        // The histogram base is discharged by the declaration.
        assert!(spec
            .ignored_bases
            .iter()
            .any(|b| matches!(b, MemBase::Global(g) if g.index() == 1)));
    }

    #[test]
    fn pdg_plan_falls_back_to_helix() {
        let (_, plans) = plans_for(HIST);
        let pdg_plan = &plans[1];
        assert_eq!(pdg_plan.abstraction, Abstraction::Pdg);
        assert_eq!(pdg_plan.len(), 1);
        let spec = pdg_plan.loops.values().next().unwrap();
        assert!(
            matches!(spec.technique, PlannedTechnique::Helix { .. }),
            "PDG can't DOALL the histogram: {:?}",
            spec.technique
        );
    }

    #[test]
    fn jk_and_pspdg_doall_the_histogram() {
        let (_, plans) = plans_for(HIST);
        for plan in &plans[2..] {
            let spec = plan.loops.values().next().unwrap();
            assert_eq!(
                spec.technique,
                PlannedTechnique::Doall,
                "{} should DOALL",
                plan.abstraction
            );
        }
    }

    #[test]
    fn unannotated_loops_only_in_compiler_plans() {
        let (_, plans) = plans_for(
            r#"
            int v[512];
            void k() { int i; for (i = 0; i < 512; i++) { v[i] = i; } }
            int main() { k(); return 0; }
            "#,
        );
        assert!(plans[0].is_empty(), "OpenMP has nothing to do");
        for plan in &plans[1..] {
            assert_eq!(plan.len(), 1, "{} plans the loop", plan.abstraction);
        }
    }

    #[test]
    fn critical_serializes_for_openmp_but_not_pspdg_when_disjoint() {
        // key_buff[i] += prv[i] under critical: accesses are provably
        // disjoint per iteration, so the PS-PDG drops the mutual exclusion.
        let (_, plans) = plans_for(
            r#"
            int key_buff[256]; int prv[256];
            void k() {
                int i;
                #pragma omp parallel
                {
                    #pragma omp critical
                    {
                        for (i = 0; i < 256; i++) { key_buff[i] += prv[i]; }
                    }
                }
            }
            int main() { k(); return 0; }
            "#,
        );
        let omp = &plans[0];
        assert_eq!(omp.mutexes.len(), 1, "OpenMP serializes the critical");
        let ps = &plans[3];
        assert!(
            ps.mutexes.is_empty(),
            "PS-PDG proves the protected accesses disjoint: {:?}",
            ps.mutexes
        );
    }

    #[test]
    fn atomic_histogram_keeps_mutex_under_pspdg() {
        let (_, plans) = plans_for(
            r#"
            int key[256]; int hist[256];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 256; i++) {
                    #pragma omp atomic
                    hist[key[i]] += 1;
                }
            }
            int main() { k(); return 0; }
            "#,
        );
        let ps = &plans[3];
        assert!(
            !ps.mutexes.is_empty(),
            "indirect updates may collide: mutual exclusion must survive"
        );
    }

    #[test]
    fn reduction_bases_recorded() {
        let (_, plans) = plans_for(
            r#"
            double s; double v[256];
            void k() {
                int i;
                #pragma omp parallel for reduction(+: s)
                for (i = 0; i < 256; i++) { s += v[i]; }
            }
            int main() { k(); return 0; }
            "#,
        );
        let omp = &plans[0];
        let spec = omp.loops.values().next().unwrap();
        assert_eq!(spec.reduction_bases.len(), 1);
        let ps = &plans[3];
        let spec = ps.loops.values().next().unwrap();
        assert_eq!(spec.reduction_bases.len(), 1);
    }
}
