//! Affine subscript analysis (a miniature scalar evolution).
//!
//! A subscript expression is rewritten as
//! `c + Σ aₖ·ivₖ + Σ bⱼ·symⱼ`, where `ivₖ` is the value of the canonical
//! induction variable of enclosing loop `k` and `symⱼ` is a loop-invariant
//! symbol (a scalar slot never stored inside the analyzed region, or a
//! parameter value). Failing that, the subscript is *unknown* and dependence
//! tests fall back to worst-case answers.

use std::collections::BTreeMap;

use pspdg_ir::{BinOp, Function, Inst, InstId, LoopId, Value};

use crate::alias::MemBase;
use crate::FunctionAnalyses;

/// A loop-invariant symbol appearing in an affine form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SymBase {
    /// The value held by a scalar slot not written inside the region.
    Slot(MemBase),
    /// The value of a scalar parameter.
    ParamVal(usize),
}

/// Terms kept inline before spilling to the heap. Real subscripts almost
/// never involve more than a two-deep loop nest plus a symbol or two, so
/// four inline slots cover the hot path without any allocation.
const INLINE_TERMS: usize = 4;

/// A sorted coefficient map `K → i64` with inline storage for small forms.
///
/// Replaces the per-pair `BTreeMap`s the dependence tester used to build:
/// terms are kept sorted by key in a fixed inline array (spilling to a
/// `Vec` only past `INLINE_TERMS` (4) entries), so `test_dependence`'s
/// merge walks run over contiguous memory and constructing a form performs
/// no allocation at all in the common case.
#[derive(Debug, Clone)]
pub struct TermVec<K: Copy + Ord> {
    len: u32,
    inline: [Option<(K, i64)>; INLINE_TERMS],
    spill: Vec<(K, i64)>,
}

impl<K: Copy + Ord> Default for TermVec<K> {
    fn default() -> TermVec<K> {
        TermVec::new()
    }
}

impl<K: Copy + Ord> TermVec<K> {
    /// The empty form.
    pub fn new() -> TermVec<K> {
        TermVec {
            len: 0,
            inline: [None; INLINE_TERMS],
            spill: Vec::new(),
        }
    }

    /// The single-term form `coeff·k`.
    pub(crate) fn singleton(k: K, coeff: i64) -> TermVec<K> {
        let mut out = TermVec::new();
        if coeff != 0 {
            out.push(k, coeff);
        }
        out
    }

    /// Number of (non-zero) terms.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no terms are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a term; keys must arrive in strictly ascending order and
    /// coefficients must be non-zero (builder invariant).
    fn push(&mut self, k: K, v: i64) {
        debug_assert!(v != 0, "zero coefficients are never stored");
        let n = self.len as usize;
        if self.spill.is_empty() && n < INLINE_TERMS {
            debug_assert!(n == 0 || self.inline[n - 1].is_some_and(|(pk, _)| pk < k));
            self.inline[n] = Some((k, v));
        } else {
            if self.spill.is_empty() {
                self.spill = self.inline.iter_mut().map(|s| s.take().unwrap()).collect();
            }
            debug_assert!(self.spill.last().is_none_or(|(pk, _)| *pk < k));
            self.spill.push((k, v));
        }
        self.len += 1;
    }

    /// Iterate terms in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, i64)> + '_ {
        let (inline, spill) = if self.spill.is_empty() {
            (&self.inline[..self.len as usize], &self.spill[..])
        } else {
            (&self.inline[..0], &self.spill[..])
        };
        inline
            .iter()
            .map(|t| t.expect("inline prefix is populated"))
            .chain(spill.iter().copied())
    }

    /// Iterate coefficients in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = i64> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// The coefficient of `k` (0 when absent).
    pub fn get(&self, k: K) -> i64 {
        if self.spill.is_empty() {
            self.inline[..self.len as usize]
                .iter()
                .find_map(|t| t.and_then(|(tk, v)| (tk == k).then_some(v)))
                .unwrap_or(0)
        } else {
            match self.spill.binary_search_by_key(&k, |(tk, _)| *tk) {
                Ok(i) => self.spill[i].1,
                Err(_) => 0,
            }
        }
    }

    /// `self + scale·other`, dropping cancelled terms (a single sorted
    /// merge; no intermediate maps).
    pub(crate) fn merge_scaled(&self, other: &TermVec<K>, scale: i64) -> TermVec<K> {
        let mut out = TermVec::new();
        let mut ia = self.iter().peekable();
        let mut ib = other.iter().peekable();
        loop {
            match (ia.peek().copied(), ib.peek().copied()) {
                (Some((ka, va)), Some((kb, vb))) => match ka.cmp(&kb) {
                    std::cmp::Ordering::Less => {
                        out.push(ka, va);
                        ia.next();
                    }
                    std::cmp::Ordering::Greater => {
                        let v = vb * scale;
                        if v != 0 {
                            out.push(kb, v);
                        }
                        ib.next();
                    }
                    std::cmp::Ordering::Equal => {
                        let v = va + vb * scale;
                        if v != 0 {
                            out.push(ka, v);
                        }
                        ia.next();
                        ib.next();
                    }
                },
                (Some((ka, va)), None) => {
                    out.push(ka, va);
                    ia.next();
                }
                (None, Some((kb, vb))) => {
                    let v = vb * scale;
                    if v != 0 {
                        out.push(kb, v);
                    }
                    ib.next();
                }
                (None, None) => break,
            }
        }
        out
    }

    /// `scale·self`.
    pub fn scaled(&self, scale: i64) -> TermVec<K> {
        let mut out = TermVec::new();
        if scale != 0 {
            for (k, v) in self.iter() {
                out.push(k, v * scale);
            }
        }
        out
    }
}

impl<K: Copy + Ord> PartialEq for TermVec<K> {
    fn eq(&self, other: &TermVec<K>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<K: Copy + Ord> Eq for TermVec<K> {}

/// An affine expression over induction variables and invariant symbols.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Affine {
    /// Constant term.
    pub constant: i64,
    /// Per-loop induction-variable coefficients (absent = 0), sorted by
    /// loop id.
    pub iv_terms: TermVec<LoopId>,
    /// Invariant-symbol coefficients (absent = 0), sorted by symbol.
    pub sym_terms: TermVec<SymBase>,
}

impl Affine {
    /// The constant `c`.
    pub fn constant(c: i64) -> Affine {
        Affine {
            constant: c,
            ..Default::default()
        }
    }

    /// The single IV term `iv(l)`.
    pub fn iv(l: LoopId) -> Affine {
        Affine {
            constant: 0,
            iv_terms: TermVec::singleton(l, 1),
            sym_terms: TermVec::new(),
        }
    }

    /// The single symbol term `sym`.
    pub fn sym(s: SymBase) -> Affine {
        Affine {
            constant: 0,
            iv_terms: TermVec::new(),
            sym_terms: TermVec::singleton(s, 1),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Affine) -> Affine {
        Affine {
            constant: self.constant + other.constant,
            iv_terms: self.iv_terms.merge_scaled(&other.iv_terms, 1),
            sym_terms: self.sym_terms.merge_scaled(&other.sym_terms, 1),
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &Affine) -> Affine {
        Affine {
            constant: self.constant - other.constant,
            iv_terms: self.iv_terms.merge_scaled(&other.iv_terms, -1),
            sym_terms: self.sym_terms.merge_scaled(&other.sym_terms, -1),
        }
    }

    /// `self * k`.
    pub fn scale(&self, k: i64) -> Affine {
        Affine {
            constant: self.constant * k,
            iv_terms: self.iv_terms.scaled(k),
            sym_terms: self.sym_terms.scaled(k),
        }
    }

    /// Whether the form is a pure constant.
    pub fn is_constant(&self) -> bool {
        self.iv_terms.is_empty() && self.sym_terms.is_empty()
    }
}

/// Evaluate `value` (an `i64` expression) as an affine form, relative to the
/// loop nest rooted at `region`: loads of canonical IVs of loops inside
/// `region` become IV terms; loads of slots with no stores inside `region`
/// become symbols.
///
/// `region` is usually the outermost loop containing a memory access; pass
/// `None` to treat the whole function as the region (every IV is a symbol
/// candidate only if never stored, which is never true — so subscripts
/// outside any loop become symbols/constants only).
pub(crate) fn affine_of(
    func: &Function,
    analyses: &FunctionAnalyses,
    stores_by_base: &BTreeMap<MemBase, u32>,
    region: Option<LoopId>,
    value: Value,
) -> Option<Affine> {
    let mut ctx = AffineCx {
        func,
        analyses,
        stores_by_base,
        region,
        depth: 0,
    };
    ctx.eval(value)
}

struct AffineCx<'a> {
    func: &'a Function,
    analyses: &'a FunctionAnalyses,
    stores_by_base: &'a BTreeMap<MemBase, u32>,
    region: Option<LoopId>,
    depth: u32,
}

impl AffineCx<'_> {
    fn eval(&mut self, value: Value) -> Option<Affine> {
        if self.depth > 64 {
            return None;
        }
        self.depth += 1;
        let out = self.eval_inner(value);
        self.depth -= 1;
        out
    }

    fn eval_inner(&mut self, value: Value) -> Option<Affine> {
        match value {
            Value::Const(c) => match c {
                pspdg_ir::Constant::Int(v) => Some(Affine::constant(v)),
                _ => None,
            },
            Value::Param(p) => Some(Affine::sym(SymBase::ParamVal(p))),
            Value::Global(_) => None,
            Value::Inst(i) => self.eval_inst(i),
        }
    }

    fn eval_inst(&mut self, i: InstId) -> Option<Affine> {
        match &self.func.inst(i).inst {
            Inst::Load { ptr, .. } => {
                // IV of an enclosing canonical loop?
                let slot = ptr.as_inst()?;
                if !matches!(self.func.inst(slot).inst, Inst::Alloca { .. }) {
                    // Loads through geps (array elements) are not symbols.
                    return None;
                }
                if let Some(l) = self.iv_loop_of(slot, i) {
                    return Some(Affine::iv(l));
                }
                // Invariant slot within the region?
                let base = MemBase::Alloca(slot);
                if self.stores_by_base.get(&base).copied().unwrap_or(0) == 0 {
                    return Some(Affine::sym(SymBase::Slot(base)));
                }
                None
            }
            Inst::Binary { op, lhs, rhs } => {
                let l = self.eval(*lhs);
                let r = self.eval(*rhs);
                match op {
                    BinOp::Add => Some(l?.add(&r?)),
                    BinOp::Sub => Some(l?.sub(&r?)),
                    BinOp::Mul => {
                        let (l, r) = (l?, r?);
                        if l.is_constant() {
                            Some(r.scale(l.constant))
                        } else if r.is_constant() {
                            Some(l.scale(r.constant))
                        } else {
                            None
                        }
                    }
                    BinOp::Shl => {
                        let (l, r) = (l?, r?);
                        if r.is_constant() && (0..63).contains(&r.constant) {
                            Some(l.scale(1 << r.constant))
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            Inst::Unary {
                op: pspdg_ir::UnOp::Neg,
                operand,
            } => Some(self.eval(*operand)?.scale(-1)),
            _ => None,
        }
    }

    /// If `slot` is the canonical IV alloca of a loop that (a) contains the
    /// load instruction `at` and (b) lies inside the analyzed region, return
    /// that loop.
    fn iv_loop_of(&self, slot: InstId, at: InstId) -> Option<LoopId> {
        let owner = self.func.inst_blocks();
        let bb = owner[at.index()]?;
        for l in self.analyses.forest.nest_of(bb) {
            if let Some(region) = self.region {
                if !self.analyses.forest.loop_contains(region, l) {
                    continue;
                }
            }
            if let Some(canon) = self.analyses.canonical_of(l) {
                if canon.iv_alloca == slot {
                    return Some(l);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;
    use pspdg_ir::{LoopForest, Module};

    fn analyze(src: &str, func: &str) -> (Module, FunctionAnalyses) {
        let p = compile(src).unwrap();
        let f = p.module.function_by_name(func).unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        (p.module, a)
    }

    /// Number of stores to each directly-addressed slot inside `region`
    /// (the whole function for `None`): the symbol-ness input of
    /// [`affine_of`].
    fn stores_by_base_in(
        func: &Function,
        forest: &LoopForest,
        region: Option<LoopId>,
    ) -> BTreeMap<MemBase, u32> {
        let owner = func.inst_blocks();
        let mut map = BTreeMap::new();
        for i in func.inst_ids() {
            if let Inst::Store { ptr, .. } = &func.inst(i).inst {
                let Some(bb) = owner[i.index()] else { continue };
                let in_region = match region {
                    None => true,
                    Some(l) => forest.info(l).contains(bb),
                };
                if !in_region {
                    continue;
                }
                let base = crate::alias::trace_base(func, *ptr);
                *map.entry(base).or_insert(0) += 1;
            }
        }
        map
    }

    /// Find the gep feeding the `idx`-th store in the function and return
    /// its index operand.
    fn gep_index_of_store(module: &Module, analyses: &FunctionAnalyses, n: usize) -> Value {
        let func = module.function(analyses.func);
        let mut count = 0;
        for i in func.inst_ids() {
            if let Inst::Store { ptr, .. } = &func.inst(i).inst {
                if let Some(gi) = ptr.as_inst() {
                    if let Inst::Gep { index, .. } = &func.inst(gi).inst {
                        if count == n {
                            return *index;
                        }
                        count += 1;
                    }
                }
            }
        }
        panic!("no gep-backed store #{n}");
    }

    #[test]
    fn simple_iv_subscript() {
        let (module, a) = analyze(
            r#"
            int v[64];
            void k() { int i; for (i = 0; i < 64; i++) { v[i] = 0; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let func = module.function(a.func);
        let l = a.forest.loop_ids().next().unwrap();
        let stores = stores_by_base_in(func, &a.forest, Some(l));
        let idx = gep_index_of_store(&module, &a, 0);
        let aff = affine_of(func, &a, &stores, Some(l), idx).expect("affine");
        assert_eq!(aff.iv_terms.get(l), 1);
        assert_eq!(aff.constant, 0);
        assert!(aff.sym_terms.is_empty());
    }

    #[test]
    fn scaled_and_shifted_subscript() {
        let (module, a) = analyze(
            r#"
            int v[64];
            void k() { int i; for (i = 0; i < 20; i++) { v[2 * i + 5] = 0; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let func = module.function(a.func);
        let l = a.forest.loop_ids().next().unwrap();
        let stores = stores_by_base_in(func, &a.forest, Some(l));
        let idx = gep_index_of_store(&module, &a, 0);
        let aff = affine_of(func, &a, &stores, Some(l), idx).expect("affine");
        assert_eq!(aff.iv_terms.get(l), 2);
        assert_eq!(aff.constant, 5);
    }

    #[test]
    fn two_level_nest_uses_both_ivs() {
        let (module, a) = analyze(
            r#"
            int v[1024];
            void k() {
                int i; int j;
                for (i = 0; i < 32; i++) {
                    for (j = 0; j < 32; j++) { v[32 * i + j] = 0; }
                }
            }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let func = module.function(a.func);
        let outer = a.forest.top_level()[0];
        let inner = a.forest.info(outer).children[0];
        let stores = stores_by_base_in(func, &a.forest, Some(outer));
        let idx = gep_index_of_store(&module, &a, 0);
        let aff = affine_of(func, &a, &stores, Some(outer), idx).expect("affine");
        assert_eq!(aff.iv_terms.get(outer), 32);
        assert_eq!(aff.iv_terms.get(inner), 1);
    }

    #[test]
    fn indirect_subscript_is_not_affine() {
        let (module, a) = analyze(
            r#"
            int key[64];
            int v[64];
            void k() { int i; for (i = 0; i < 64; i++) { v[key[i]] = 0; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let func = module.function(a.func);
        let l = a.forest.loop_ids().next().unwrap();
        let stores = stores_by_base_in(func, &a.forest, Some(l));
        let idx = gep_index_of_store(&module, &a, 0);
        assert!(affine_of(func, &a, &stores, Some(l), idx).is_none());
    }

    #[test]
    fn invariant_scalar_becomes_symbol() {
        let (module, a) = analyze(
            r#"
            int v[64];
            void k(int off) {
                int i;
                for (i = 0; i < 32; i++) { v[i + off] = 0; }
            }
            int main() { k(1); return 0; }
            "#,
            "k",
        );
        let func = module.function(a.func);
        let l = a.forest.loop_ids().next().unwrap();
        let stores = stores_by_base_in(func, &a.forest, Some(l));
        let idx = gep_index_of_store(&module, &a, 0);
        let aff = affine_of(func, &a, &stores, Some(l), idx).expect("affine");
        assert_eq!(aff.iv_terms.get(l), 1);
        assert!(!aff.sym_terms.is_empty());
    }

    #[test]
    fn varying_scalar_is_not_a_symbol() {
        let (module, a) = analyze(
            r#"
            int v[64];
            void k() {
                int i; int t = 0;
                for (i = 0; i < 8; i++) { v[t] = 0; t = t + i; }
            }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let func = module.function(a.func);
        let l = a.forest.loop_ids().next().unwrap();
        let stores = stores_by_base_in(func, &a.forest, Some(l));
        let idx = gep_index_of_store(&module, &a, 0);
        assert!(affine_of(func, &a, &stores, Some(l), idx).is_none());
    }

    #[test]
    fn termvec_spills_past_inline_capacity() {
        // Build a form with more IV terms than the inline capacity and
        // check every operation still behaves like a sorted map.
        let mut a = Affine::default();
        for l in 0..(INLINE_TERMS as u32 + 3) {
            a = a.add(&Affine::iv(LoopId(l)).scale(l as i64 + 1));
        }
        assert_eq!(a.iv_terms.len(), INLINE_TERMS + 3);
        for l in 0..(INLINE_TERMS as u32 + 3) {
            assert_eq!(a.iv_terms.get(LoopId(l)), l as i64 + 1);
        }
        assert_eq!(a.iv_terms.get(LoopId(99)), 0);
        // Subtraction cancels exactly, spilled or not.
        let z = a.sub(&a);
        assert!(z.is_constant());
        // Keys stay sorted through merges in both directions.
        let keys: Vec<u32> = a.iv_terms.iter().map(|(l, _)| l.0).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn termvec_merge_cancels_middle_term() {
        let a = Affine::iv(LoopId(0))
            .add(&Affine::iv(LoopId(1)).scale(2))
            .add(&Affine::iv(LoopId(2)).scale(3));
        let b = Affine::iv(LoopId(1)).scale(2);
        let d = a.sub(&b);
        assert_eq!(d.iv_terms.get(LoopId(0)), 1);
        assert_eq!(d.iv_terms.get(LoopId(1)), 0);
        assert_eq!(d.iv_terms.get(LoopId(2)), 3);
        assert_eq!(d.iv_terms.len(), 2);
    }

    #[test]
    fn termvec_scale_by_zero_empties() {
        let a = Affine::iv(LoopId(3)).add(&Affine::sym(SymBase::ParamVal(1)));
        let z = a.scale(0);
        assert!(z.is_constant());
        assert_eq!(z.constant, 0);
    }

    #[test]
    fn affine_arithmetic() {
        let l = LoopId(0);
        let a = Affine::iv(l).scale(3).add(&Affine::constant(4));
        let b = Affine::iv(l).scale(3);
        let d = a.sub(&b);
        assert!(d.is_constant());
        assert_eq!(d.constant, 4);
        let z = a.sub(&a);
        assert_eq!(z, Affine::default());
    }
}
