//! Opcode taxonomy and frequency/pair profiles.
//!
//! [`Opcode`] mirrors the thirteen instruction forms of `pspdg_ir::Inst`
//! without depending on the IR crate (this crate is a leaf so the IR
//! itself can depend on it); `pspdg_ir::interp::opcode_of` provides the
//! mapping. [`OpcodeProfile`] is the per-context measurement: dynamic
//! frequency per opcode plus a 13×13 matrix of consecutive-pair counts —
//! the superinstruction-candidate table of the Move VM profiling
//! playbook.

/// Number of opcodes — the thirteen `Inst` forms of the IR.
pub const OPCODE_COUNT: usize = 13;

/// One dynamic instruction form, mirroring `pspdg_ir::Inst`'s variants.
///
/// Discriminants are dense (`0..13`) so profiles are plain arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Stack-slot allocation.
    Alloca,
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Address arithmetic (get-element-pointer).
    Gep,
    /// Two-operand arithmetic/logic.
    Binary,
    /// One-operand arithmetic/logic.
    Unary,
    /// Comparison.
    Cmp,
    /// Type conversion.
    Cast,
    /// Direct call.
    Call,
    /// Intrinsic call (math/runtime builtins).
    Intrinsic,
    /// Unconditional branch.
    Br,
    /// Conditional branch.
    CondBr,
    /// Function return.
    Ret,
}

impl Opcode {
    /// Every opcode, in discriminant order.
    pub const ALL: [Opcode; OPCODE_COUNT] = [
        Opcode::Alloca,
        Opcode::Load,
        Opcode::Store,
        Opcode::Gep,
        Opcode::Binary,
        Opcode::Unary,
        Opcode::Cmp,
        Opcode::Cast,
        Opcode::Call,
        Opcode::Intrinsic,
        Opcode::Br,
        Opcode::CondBr,
        Opcode::Ret,
    ];

    /// Dense index of this opcode (`0..OPCODE_COUNT`).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case mnemonic, matching the IR printer's vocabulary.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Alloca => "alloca",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::Gep => "gep",
            Opcode::Binary => "binary",
            Opcode::Unary => "unary",
            Opcode::Cmp => "cmp",
            Opcode::Cast => "cast",
            Opcode::Call => "call",
            Opcode::Intrinsic => "intrinsic",
            Opcode::Br => "br",
            Opcode::CondBr => "condbr",
            Opcode::Ret => "ret",
        }
    }
}

impl std::fmt::Display for Opcode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Dynamic opcode frequency + consecutive-pair profile for one context
/// (a kernel, a scheduled loop, or an interpreter run).
#[derive(Debug, Clone)]
pub struct OpcodeProfile {
    /// `counts[op]` — how many instructions of that form executed.
    pub counts: [u64; OPCODE_COUNT],
    /// `pairs[prev][next]` — how often `next` immediately followed
    /// `prev` in the dynamic stream (superinstruction candidates).
    pub pairs: [[u64; OPCODE_COUNT]; OPCODE_COUNT],
}

impl Default for OpcodeProfile {
    fn default() -> Self {
        OpcodeProfile {
            counts: [0; OPCODE_COUNT],
            pairs: [[0; OPCODE_COUNT]; OPCODE_COUNT],
        }
    }
}

impl OpcodeProfile {
    /// Record one executed instruction, pairing it with its predecessor.
    #[inline]
    pub fn record(&mut self, prev: Option<Opcode>, op: Opcode) {
        self.counts[op.index()] += 1;
        if let Some(p) = prev {
            self.pairs[p.index()][op.index()] += 1;
        }
    }

    /// Fold another profile into this one.
    pub fn merge(&mut self, other: &OpcodeProfile) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        for (ra, rb) in self.pairs.iter_mut().zip(other.pairs.iter()) {
            for (a, b) in ra.iter_mut().zip(rb.iter()) {
                *a += b;
            }
        }
    }

    /// Total dynamic instruction count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// The `n` most frequent opcodes, descending (zero counts omitted).
    pub fn top(&self, n: usize) -> Vec<(Opcode, u64)> {
        let mut v: Vec<(Opcode, u64)> = Opcode::ALL
            .iter()
            .map(|&op| (op, self.counts[op.index()]))
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// The `n` most frequent consecutive pairs, descending (zero counts
    /// omitted) — the superinstruction-candidate ranking.
    pub fn top_pairs(&self, n: usize) -> Vec<(Opcode, Opcode, u64)> {
        let mut v: Vec<(Opcode, Opcode, u64)> = Vec::new();
        for &a in Opcode::ALL.iter() {
            for &b in Opcode::ALL.iter() {
                let c = self.pairs[a.index()][b.index()];
                if c > 0 {
                    v.push((a, b, c));
                }
            }
        }
        v.sort_by(|x, y| y.2.cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_and_pairs() {
        let mut p = OpcodeProfile::default();
        p.record(None, Opcode::Load);
        p.record(Some(Opcode::Load), Opcode::Binary);
        p.record(Some(Opcode::Binary), Opcode::Store);
        p.record(Some(Opcode::Store), Opcode::Load);
        p.record(Some(Opcode::Load), Opcode::Binary);
        assert_eq!(p.total(), 5);
        assert_eq!(p.counts[Opcode::Load.index()], 2);
        assert_eq!(p.pairs[Opcode::Load.index()][Opcode::Binary.index()], 2);
        let top = p.top(2);
        assert_eq!(top[0].1, 2);
        let pairs = p.top_pairs(1);
        assert_eq!(pairs[0], (Opcode::Load, Opcode::Binary, 2));
    }

    #[test]
    fn merge_conserves_totals() {
        let mut a = OpcodeProfile::default();
        let mut b = OpcodeProfile::default();
        a.record(None, Opcode::Br);
        b.record(Some(Opcode::Br), Opcode::Ret);
        let (ta, tb) = (a.total(), b.total());
        a.merge(&b);
        assert_eq!(a.total(), ta + tb);
        assert_eq!(a.pairs[Opcode::Br.index()][Opcode::Ret.index()], 1);
    }

    #[test]
    fn all_indices_dense() {
        for (i, op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }
}
