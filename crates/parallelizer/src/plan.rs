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
//!
//! Apart from the OpenMP plan, which follows the annotations as written,
//! every decision reads the abstraction's graph — the base PDG or a point
//! of the §4 feature lattice (`Abstraction::graph`), so an ablated
//! PS-PDG plans by the same rules:
//!
//! * developer worksharing loops are nested in as DOALL when the graph has
//!   contexts (C), the feature that knows them;
//! * hot loops are assessed on the graph's dependence view;
//! * a graph without HN+UE serializes every `critical`/`atomic` region as
//!   written, one with them only the regions an undirected edge joins, and
//!   the base PDG knows no locks;
//! * spawned calls run in their own strand when the graph has HN+UE and NT.
//!
//! Of the paper's three techniques a plan uses two: DOALL where the loop
//! carries no dependence, HELIX where some SCC is parallel. DSWP is
//! counted among the options (`enumerate`) and never planned.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use pspdg_core::query::{self, LoopDeps};
use pspdg_core::{build_pspdg_module, Feature, FeatureSet, FunctionPsPdg, PsPdg, VariableKind};
use pspdg_ir::interp::Profile;
use pspdg_ir::{BinOp, FuncId, Function, Inst, InstId, LoopId, Value};
use pspdg_parallel::{DirectiveKind, ParallelProgram, ReductionOp};
use pspdg_pdg::{trace_base, DepKind, MemBase};

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
}

impl PlannedTechnique {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            PlannedTechnique::Doall => "DOALL",
            PlannedTechnique::Helix { .. } => "HELIX",
        }
    }
}

/// How a planned loop discharges the carried dependences on one base
/// object, which is also what a parallel run merges for it at loop exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discharge {
    /// Nothing to merge: the canonical IV, which the runtime writes before
    /// each iteration, or a base last-writer commit leaves sequential.
    Private,
    /// A declared reduction (a `Reducible(op)` PS-PDG variable): copies
    /// start at the operator's identity and merge with it.
    Reduction(ReductionOp),
    /// An undeclared base with a real carried flow whose every update is
    /// `*p = *p ⊕ e` (a region-private histogram): merged like a reduction.
    Accumulator(ReductionOp),
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
    /// The base objects whose cross-iteration dependences the plan
    /// discharges (privatized copies, reductions, declared independence,
    /// the induction variable), each with how. A `Reduction`, or an
    /// `Accumulator` no lock's stores write, adds a log₂(iterations) merge
    /// chain on the ideal machine.
    pub discharged: BTreeMap<MemBase, Discharge>,
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
    // Per-function planning is independent: build every function's
    // analyses/PDG/PS-PDG through the parallel module driver, plan each
    // function concurrently, and merge in module function order so the
    // plan is deterministic.
    let built = build_pspdg_module(program, FeatureSet::all());
    plan_built(program, &built, profile, abstraction, threshold)
}

/// Build the execution plan from **already-built** per-function analysis
/// artifacts (the `Vec<FunctionPsPdg>` a [`pspdg_core::build_pspdg_module`] produced
/// earlier — analyses, PDG, and the overlay-assembled PS-PDG).
///
/// This is the plan cache's entry point: a plan service keeps the built
/// module keyed by content hash and enumerates each abstraction through
/// this function, paying only the enumeration cost — the PDG build and
/// the `EffectiveView` overlay assemble are never repeated.
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
    // Spawned strands need the spawn's node (HN) and its orderless trait.
    let built_features = built
        .first()
        .map_or(FeatureSet::all(), |b| b.pspdg.features);
    let parallel_spawns = abstraction
        .graph(built_features)
        .is_some_and(|fs| fs.has(Feature::HierarchicalUndirected) && fs.has(Feature::NodeTraits));
    let mut plan = ProgramPlan {
        abstraction,
        loops: HashMap::new(),
        mutexes: Vec::new(),
        parallel_spawns,
    };
    let parts: Vec<FunctionPlanParts> = pspdg_pool::par_map(built.iter().collect(), |prepared| {
        let _s = rec.map(|r| r.span("plan/enumerate"));
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
    let f = program.module.function(func);
    let planned = |deps: &LoopDeps<'_>, technique, end_barrier| {
        let (loop_id, discharged) = (deps.loop_id, discharges(f, pspdg, deps));
        let spec = LoopPlanSpec {
            func,
            loop_id,
            technique,
            discharged,
            end_barrier,
        };
        ((func, loop_id), spec)
    };

    // The programmer's own plan follows the annotations as written; every
    // other decision reads the abstraction's graph (`None`: the base PDG).
    let openmp = abstraction == Abstraction::OpenMp;
    let graph = abstraction.graph(pspdg.features);
    let has = |feature| graph.is_some_and(|fs| fs.has(feature));
    let view = OnceCell::new();
    let view = || view.get_or_init(|| AbstractionView::select(graph, program, prepared));

    // --- developer-expressed loops: the OpenMP plan, and nested into every
    //     plan whose graph knows the worksharing loops (§6.3) --------------
    if openmp || has(Feature::Contexts) {
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
            plan.loops
                .push(planned(&deps, PlannedTechnique::Doall, !nowait));
        }
    }

    // --- compiler-discovered loops ----------------------------------------
    let hot = if openmp {
        Vec::new()
    } else {
        hot_loops(&program.module, func, analyses, profile, threshold)
    };
    // A function without a hot loop never pays for its view.
    if !hot.is_empty() {
        let hot_set: BTreeSet<LoopId> = hot.iter().map(|h| h.loop_id).collect();
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
            let deps = view().at(l);
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
            // Compiler-generated parallel loops are fork-join.
            plan.loops.push(planned(&deps, technique, true));
        }
    }

    // --- mutual exclusion ---------------------------------------------------
    // The base PDG knows no locks. Without HN+UE a graph cannot say which
    // regions exclude each other, so every critical/atomic region
    // serializes as written; with them, only the regions an undirected edge
    // joins do (provably independent criticals don't).
    match graph {
        None => {}
        Some(fs) if openmp || !fs.has(Feature::HierarchicalUndirected) => {
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
                let mut insts = BTreeSet::new();
                for &bb in &d.region.blocks {
                    insts.extend(f.block(bb).insts.iter().copied());
                }
                plan.mutexes.push(MutexSpec { func, insts, lock });
            }
        }
        Some(_) => {
            let ps = view().pspdg().expect("a feature set selects a PS-PDG");
            let mut groups: BTreeMap<String, BTreeSet<InstId>> = BTreeMap::new();
            for (_, a, b) in ps.undirected_edges() {
                let key = format!("mutex:{}:{}", a.index(), b.index());
                let mut insts: BTreeSet<InstId> = ps.node_insts(a).into_iter().collect();
                insts.extend(ps.node_insts(b));
                groups.entry(key).or_default().extend(insts);
            }
            for (lock, insts) in groups {
                plan.mutexes.push(MutexSpec { func, insts, lock });
            }
        }
    }
    plan
}

/// How the loop discharges its canonical IV and each base carried at it in
/// the base PDG but no longer under the view: `Reduction` where a reducible
/// PS-PDG variable applies, `Accumulator` where the base PDG carries a flow
/// whose updates [`accumulator_op`] recognizes, `Private` otherwise.
fn discharges(f: &Function, pspdg: &PsPdg, deps: &LoopDeps<'_>) -> BTreeMap<MemBase, Discharge> {
    let l = deps.loop_id;
    let base_pdg = deps.view.base();
    let mut out: BTreeMap<MemBase, Discharge> = base_pdg
        .carried_edges(l)
        .filter_map(|e| Some((e.base?, Discharge::Private)))
        .collect();
    for base in deps.carried_edges().filter_map(|e| e.base) {
        out.remove(&base);
    }
    let iv = deps
        .analyses
        .canonical_of(l)
        .map(|c| MemBase::Alloca(c.iv_alloca));
    out.extend(iv.map(|iv| (iv, Discharge::Private)));
    for (i, v) in pspdg.variables.iter().enumerate() {
        if let VariableKind::Reducible(op) = v.kind {
            if out.contains_key(&v.base)
                && query::variable_applies_to_loop(pspdg, deps.analyses, i, l)
            {
                out.insert(v.base, Discharge::Reduction(op));
            }
        }
    }
    // A carried flow on a base nothing merges would lose contributions
    // under last-writer commit unless every update accumulates.
    let carried_flow: BTreeSet<MemBase> = base_pdg
        .carried_edges(l)
        .filter(|e| matches!(e.kind, DepKind::Flow { .. }))
        .filter_map(|e| e.base)
        .filter(|b| Some(*b) != iv && out.get(b) == Some(&Discharge::Private))
        .collect();
    if !carried_flow.is_empty() {
        let loop_insts: BTreeSet<InstId> = deps.analyses.loop_insts(l).into_iter().collect();
        for base in carried_flow {
            if let Some(op) = accumulator_op(f, &loop_insts, base) {
                out.insert(base, Discharge::Accumulator(op));
            }
        }
    }
    out
}

/// Recognize a pure accumulator over `base` inside the loop: every
/// in-loop store to the base is `*p = *p ⊕ e` (the front-end computes
/// the lvalue once, so the feedback load shares the store's pointer
/// value), every in-loop load of the base is such a feedback load,
/// and the loaded value feeds nothing but its own update. The loop's
/// net effect on each cell is then `cell ⊕ C` for a chunk-independent
/// `C`, so identity-started forks merged with `⊕` reproduce the
/// sequential result (exactly for integers).
fn accumulator_op(
    f: &Function,
    loop_insts: &BTreeSet<InstId>,
    base: MemBase,
) -> Option<ReductionOp> {
    let is_base_load = |i: InstId| -> Option<Value> {
        match &f.inst(i).inst {
            Inst::Load { ptr, .. } if trace_base(f, *ptr) == base => Some(*ptr),
            _ => None,
        }
    };
    let mut op: Option<ReductionOp> = None;
    let mut feedback_loads: BTreeSet<InstId> = BTreeSet::new();
    let mut update_binops: BTreeSet<InstId> = BTreeSet::new();
    let mut update_stores: BTreeSet<InstId> = BTreeSet::new();
    for &i in loop_insts {
        let Inst::Store { ptr, value } = &f.inst(i).inst else {
            continue;
        };
        if trace_base(f, *ptr) != base {
            continue;
        }
        let vi = value.as_inst()?;
        let Inst::Binary { op: bop, lhs, rhs } = &f.inst(vi).inst else {
            return None;
        };
        let this_op = match bop {
            BinOp::Add | BinOp::Sub => ReductionOp::Add,
            BinOp::Mul => ReductionOp::Mul,
            _ => return None,
        };
        let feeds_back = |v: Value| -> Option<InstId> {
            let li = v.as_inst()?;
            (loop_insts.contains(&li) && is_base_load(li) == Some(*ptr)).then_some(li)
        };
        // Exactly one operand is the feedback load (both would make
        // the update non-affine in the old value); subtraction only
        // accumulates with the old value on the left.
        let (fb, other) = match (feeds_back(*lhs), feeds_back(*rhs)) {
            (Some(fl), None) => (fl, *rhs),
            (None, Some(fr)) if !matches!(bop, BinOp::Sub) => (fr, *lhs),
            _ => return None,
        };
        // The other operand must not observe the base at all.
        if other.as_inst().is_some_and(|oi| is_base_load(oi).is_some()) {
            return None;
        }
        match op {
            None => op = Some(this_op),
            Some(o) if o == this_op => {}
            _ => return None,
        }
        feedback_loads.insert(fb);
        update_binops.insert(vi);
        update_stores.insert(i);
    }
    op?;
    // Every in-loop load of the base is a feedback load, and feedback
    // values flow only into their updates.
    for &i in loop_insts {
        if is_base_load(i).is_some() && !feedback_loads.contains(&i) {
            return None;
        }
    }
    for i in f.inst_ids() {
        for v in f.inst(i).inst.operands() {
            let Value::Inst(d) = v else { continue };
            if feedback_loads.contains(&d) && !update_binops.contains(&i) {
                return None;
            }
            if update_binops.contains(&d) && !update_stores.contains(&i) {
                return None;
            }
        }
    }
    op
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
            .discharged
            .keys()
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

    /// The OpenMP and PS-PDG plans both discharge the global `name` in
    /// `k`'s loop as `want`.
    fn assert_discharge(src: &str, name: &str, want: Discharge) {
        let (p, plans) = plans_for(src);
        let m = &p.module;
        let g = m.global_ids().find(|g| m.global(*g).name == name).unwrap();
        let k = m.function_by_name("k").unwrap();
        for plan in [&plans[0], &plans[3]] {
            let spec = plan.loops.values().find(|s| s.func == k).unwrap();
            let got = spec.discharged.get(&MemBase::Global(g));
            assert_eq!(got, Some(&want), "{}", plan.abstraction);
        }
    }

    #[test]
    fn private_histogram_is_an_accumulator() {
        // IS's rank_keys in small: the histogram is private to the parallel
        // region, so only the shape of its updates makes chunks mergeable.
        let src = r#"
            int key[256]; int prv[16];
            void k() {
                int i;
                #pragma omp parallel private(prv)
                {
                    #pragma omp for
                    for (i = 0; i < 256; i++) { prv[key[i]] += 1; }
                }
            }
            int main() { k(); return 0; }
        "#;
        assert_discharge(src, "prv", Discharge::Accumulator(ReductionOp::Add));
    }

    #[test]
    fn reduction_bases_recorded() {
        let src = r#"
            double s; double v[256];
            void k() {
                int i;
                #pragma omp parallel for reduction(+: s)
                for (i = 0; i < 256; i++) { s += v[i]; }
            }
            int main() { k(); return 0; }
        "#;
        assert_discharge(src, "s", Discharge::Reduction(ReductionOp::Add));
    }

    #[test]
    fn private_clause_is_private() {
        let src = r#"
            int t; int v[256]; int w[256];
            void k() {
                int i;
                #pragma omp parallel for private(t)
                for (i = 0; i < 256; i++) { t = v[i] * 2; w[i] = t; }
            }
            int main() { k(); return 0; }
        "#;
        assert_discharge(src, "t", Discharge::Private);
    }
}
