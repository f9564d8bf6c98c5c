//! Data-dependence tests over affine subscript pairs.
//!
//! Given two accesses to may-aliasing bases, the tests decide (a) whether a
//! dependence can exist at all, (b) at which common enclosing loops it is
//! *loop-carried*, and (c) whether an *iteration-local* (equal iteration
//! vector) dependence is possible. The implementation covers ZIV and strong
//! SIV exactly and falls back to a GCD test (then to "assume dependent")
//! for harder cases, mirroring a production dependence analysis's
//! conservative ladder.

use pspdg_ir::{BlockId, InstId, LoopId};

use crate::affine::Affine;
use crate::alias::MemBase;
use crate::graph::CarriedSet;
use crate::FunctionAnalyses;

/// One memory access, ready for dependence testing.
#[derive(Debug, Clone)]
pub struct MemRef {
    /// The load/store/call instruction.
    pub inst: InstId,
    /// Base object accessed.
    pub base: MemBase,
    /// Whether the access writes.
    pub is_write: bool,
    /// Affine subscript (cell offset from base), when derivable.
    pub subscript: Option<Affine>,
    /// Block of the instruction.
    pub block: BlockId,
    /// The top-level loop used as the affine region, if any.
    pub region: Option<LoopId>,
}

/// Result of a dependence test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct DepTestResult {
    /// A dependence may exist.
    pub dependent: bool,
    /// Common loops at which the dependence is (possibly) loop-carried.
    pub carried: CarriedSet,
    /// An equal-iteration-vector dependence is possible.
    pub intra: bool,
}

impl DepTestResult {
    fn independent() -> DepTestResult {
        DepTestResult::default()
    }

    fn conservative(common: &[LoopId]) -> DepTestResult {
        DepTestResult {
            dependent: true,
            carried: common.into(),
            intra: true,
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Test the pair `(a, b)` for dependence. `common` is the list of loops
/// containing both accesses (any order). Trip counts, when statically
/// known, prune infeasible distances.
pub(crate) fn test_dependence(
    analyses: &FunctionAnalyses,
    a: &MemRef,
    b: &MemRef,
    common: &[LoopId],
) -> DepTestResult {
    let (Some(fa), Some(fb)) = (&a.subscript, &b.subscript) else {
        return DepTestResult::conservative(common);
    };
    // Subscripts are only comparable when computed against the same region.
    if a.region != b.region {
        return DepTestResult::conservative(common);
    }
    // Symbols must cancel exactly; otherwise we cannot bound the difference.
    if fa.sym_terms != fb.sym_terms {
        return DepTestResult::conservative(common);
    }
    // Σ aᵏ·dᵏ = c with d = i_a - i_b.
    let c = fb.constant - fa.constant;
    // Union of loops whose IVs appear: a sorted-merge walk over the two
    // (already ordered, inline-stored) coefficient vectors — no per-pair
    // allocation beyond the small union buffer.
    let mut coeffs: Vec<(LoopId, i64, i64)> =
        Vec::with_capacity(fa.iv_terms.len() + fb.iv_terms.len());
    {
        let mut ia = fa.iv_terms.iter().peekable();
        let mut ib = fb.iv_terms.iter().peekable();
        loop {
            match (ia.peek().copied(), ib.peek().copied()) {
                (Some((la, va)), Some((lb, vb))) => match la.cmp(&lb) {
                    std::cmp::Ordering::Less => {
                        coeffs.push((la, va, 0));
                        ia.next();
                    }
                    std::cmp::Ordering::Greater => {
                        coeffs.push((lb, 0, vb));
                        ib.next();
                    }
                    std::cmp::Ordering::Equal => {
                        coeffs.push((la, va, vb));
                        ia.next();
                        ib.next();
                    }
                },
                (Some((la, va)), None) => {
                    coeffs.push((la, va, 0));
                    ia.next();
                }
                (None, Some((lb, vb))) => {
                    coeffs.push((lb, 0, vb));
                    ib.next();
                }
                (None, None) => break,
            }
        }
    }
    // IVs of loops that do not enclose both accesses range independently on
    // each side; give up precision (their ranges are not coupled).
    if coeffs.iter().any(|(l, _, _)| !common.contains(l)) {
        return DepTestResult::conservative(common);
    }
    let aligned = coeffs.iter().all(|(_, x, y)| x == y);
    if !aligned {
        // General (weak/MIV) case: GCD feasibility test over all
        // coefficients; if gcd ∤ c there is no solution at all.
        let g = coeffs.iter().fold(0i64, |g, (_, x, y)| gcd(gcd(g, *x), *y));
        if g != 0 && c % g != 0 {
            return DepTestResult::independent();
        }
        return DepTestResult::conservative(common);
    }
    // Aligned: Σ a_K·d_K = c, |d_K| ≤ trip_K − 1.
    let nonzero: Vec<(LoopId, i64)> = coeffs
        .iter()
        .filter(|(_, x, _)| *x != 0)
        .map(|(l, x, _)| (*l, *x))
        .collect();
    let trip = |l: LoopId| -> Option<i64> { analyses.canonical_of(l).and_then(|c| c.trip_count()) };

    if nonzero.is_empty() {
        // ZIV: same cell every iteration.
        if c != 0 {
            return DepTestResult::independent();
        }
        let carried = common
            .iter()
            .copied()
            .filter(|l| trip(*l).is_none_or(|t| t >= 2))
            .collect();
        return DepTestResult {
            dependent: true,
            carried,
            intra: true,
        };
    }
    if nonzero.len() == 1 {
        // Strong SIV.
        let (lv, av) = nonzero[0];
        if c % av != 0 {
            return DepTestResult::independent();
        }
        let d = c / av;
        if let Some(t) = trip(lv) {
            if d.abs() >= t {
                return DepTestResult::independent();
            }
        }
        // d_M of any other loop M is free: carried whenever M runs ≥ 2
        // iterations.
        let free = |m: LoopId| m != lv && trip(m).is_none_or(|t| t >= 2);
        let carried = common
            .iter()
            .copied()
            .filter(|&m| (m == lv && d != 0) || free(m))
            .collect();
        return DepTestResult {
            dependent: true,
            carried,
            intra: d == 0,
        };
    }
    // Multiple coupled IVs: GCD feasibility, then conservative carried info.
    let g = nonzero.iter().fold(0i64, |g0, (_, a0)| gcd(g0, *a0));
    if g != 0 && c % g != 0 {
        return DepTestResult::independent();
    }
    DepTestResult::conservative(common)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;
    use pspdg_frontend::compile;

    fn fake_ref(sub: Option<Affine>, region: Option<LoopId>) -> MemRef {
        MemRef {
            inst: InstId(0),
            base: MemBase::Global(pspdg_ir::GlobalId(0)),
            is_write: true,
            subscript: sub,
            block: BlockId(0),
            region,
        }
    }

    /// Analyses for a canonical `for (i = 0; i < 16; i++)` to provide trip
    /// counts; loop id 0 has trip 16.
    fn toy_analyses() -> FunctionAnalyses {
        let p = compile(
            r#"
            int v[64];
            void k() { int i; for (i = 0; i < 16; i++) { v[i] = 0; } }
            int main() { k(); return 0; }
            "#,
        )
        .unwrap();
        let f = p.module.function_by_name("k").unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        // sanity: loop 0 trip count is 16
        assert_eq!(a.canonical_of(LoopId(0)).unwrap().trip_count(), Some(16));
        a
    }

    #[test]
    fn ziv_distinct_constants_are_independent() {
        let a = toy_analyses();
        let r1 = fake_ref(Some(Affine::constant(3)), Some(LoopId(0)));
        let r2 = fake_ref(Some(Affine::constant(7)), Some(LoopId(0)));
        let res = test_dependence(&a, &r1, &r2, &[LoopId(0)]);
        assert!(!res.dependent);
    }

    #[test]
    fn ziv_same_cell_is_carried() {
        let a = toy_analyses();
        let r1 = fake_ref(Some(Affine::constant(3)), Some(LoopId(0)));
        let r2 = fake_ref(Some(Affine::constant(3)), Some(LoopId(0)));
        let res = test_dependence(&a, &r1, &r2, &[LoopId(0)]);
        assert!(res.dependent);
        assert_eq!(*res.carried, [LoopId(0)]);
        assert!(res.intra);
    }

    #[test]
    fn strong_siv_zero_distance_is_intra_only() {
        let a = toy_analyses();
        let l = LoopId(0);
        let r1 = fake_ref(Some(Affine::iv(l)), Some(l));
        let r2 = fake_ref(Some(Affine::iv(l)), Some(l));
        let res = test_dependence(&a, &r1, &r2, &[l]);
        assert!(res.dependent);
        assert!(res.intra);
        assert!(res.carried.is_empty(), "v[i] vs v[i] is not loop-carried");
    }

    #[test]
    fn strong_siv_nonzero_distance_is_carried() {
        let a = toy_analyses();
        let l = LoopId(0);
        let r1 = fake_ref(Some(Affine::iv(l)), Some(l));
        let r2 = fake_ref(Some(Affine::iv(l).add(&Affine::constant(1))), Some(l));
        let res = test_dependence(&a, &r1, &r2, &[l]);
        assert!(res.dependent);
        assert!(!res.intra);
        assert_eq!(*res.carried, [l]);
    }

    #[test]
    fn strong_siv_distance_beyond_trip_count_is_independent() {
        let a = toy_analyses();
        let l = LoopId(0);
        let r1 = fake_ref(Some(Affine::iv(l)), Some(l));
        let r2 = fake_ref(Some(Affine::iv(l).add(&Affine::constant(40))), Some(l));
        // distance 40 ≥ trip 16 ⇒ never overlaps
        let res = test_dependence(&a, &r1, &r2, &[l]);
        assert!(!res.dependent);
    }

    #[test]
    fn strong_siv_fractional_distance_is_independent() {
        let a = toy_analyses();
        let l = LoopId(0);
        // 2i vs 2i+1: odd vs even cells.
        let r1 = fake_ref(Some(Affine::iv(l).scale(2)), Some(l));
        let r2 = fake_ref(
            Some(Affine::iv(l).scale(2).add(&Affine::constant(1))),
            Some(l),
        );
        let res = test_dependence(&a, &r1, &r2, &[l]);
        assert!(!res.dependent);
    }

    #[test]
    fn unknown_subscript_is_conservative() {
        let a = toy_analyses();
        let l = LoopId(0);
        let r1 = fake_ref(None, Some(l));
        let r2 = fake_ref(Some(Affine::iv(l)), Some(l));
        let res = test_dependence(&a, &r1, &r2, &[l]);
        assert!(res.dependent);
        assert_eq!(*res.carried, [l]);
        assert!(res.intra);
    }

    #[test]
    fn mismatched_symbols_are_conservative() {
        let a = toy_analyses();
        let l = LoopId(0);
        let s1 = crate::affine::SymBase::ParamVal(0);
        let s2 = crate::affine::SymBase::ParamVal(1);
        let r1 = fake_ref(Some(Affine::iv(l).add(&Affine::sym(s1))), Some(l));
        let r2 = fake_ref(Some(Affine::iv(l).add(&Affine::sym(s2))), Some(l));
        let res = test_dependence(&a, &r1, &r2, &[l]);
        assert!(res.dependent);
    }

    #[test]
    fn matching_symbols_cancel() {
        let a = toy_analyses();
        let l = LoopId(0);
        let s = crate::affine::SymBase::ParamVal(0);
        let r1 = fake_ref(Some(Affine::iv(l).add(&Affine::sym(s))), Some(l));
        let r2 = fake_ref(Some(Affine::iv(l).add(&Affine::sym(s))), Some(l));
        let res = test_dependence(&a, &r1, &r2, &[l]);
        assert!(res.dependent);
        assert!(res.intra);
        assert!(res.carried.is_empty());
    }

    #[test]
    fn gcd_test_disproves_misaligned() {
        let a = toy_analyses();
        let l = LoopId(0);
        // 2i vs 4i' + 1: gcd(2,4)=2 does not divide 1.
        let r1 = fake_ref(Some(Affine::iv(l).scale(2)), Some(l));
        let mut f2 = Affine::iv(l).scale(4);
        f2.constant = 1;
        // Force misalignment by changing one side's coefficient.
        let r2 = fake_ref(Some(f2), Some(l));
        // aligned? coeffs (2, 4) differ → weak case → gcd 2 ∤ 1 → independent
        let res = test_dependence(&a, &r1, &r2, &[l]);
        assert!(!res.dependent);
    }
}
