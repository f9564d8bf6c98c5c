//! Observable-state extraction and comparison helpers for differential
//! testing (runtime vs sequential interpreter) and reporting.

use pspdg_ir::interp::{MemAddr, MemState, RtVal};
use pspdg_ir::Module;

/// Relative tolerance used for floating-point comparison. Parallel
/// reductions associate differently from the sequential loop (as in any
/// real OpenMP runtime), so float cells match up to rounding, not
/// bit-for-bit.
pub const FLOAT_RTOL: f64 = 1e-9;

/// Snapshot every global object's cells (the observable final memory; a
/// program's stack objects die with it, its globals do not).
pub fn observable_globals(module: &Module, mem: &MemState) -> Vec<(String, Vec<RtVal>)> {
    module
        .global_ids()
        .map(|g| {
            let obj = mem.global_object(g);
            let cells = (0..mem.object_len(obj) as u32)
                .map(|off| mem.read(MemAddr { obj, off }))
                .collect();
            (module.global(g).name.clone(), cells)
        })
        .collect()
}

/// Whether two runtime values are equal, with floats compared under
/// [`FLOAT_RTOL`].
pub fn rtval_equivalent(a: RtVal, b: RtVal) -> bool {
    match (a, b) {
        (RtVal::Float(x), RtVal::Float(y)) => float_equivalent(x, y),
        _ => a == b,
    }
}

/// Whether two runtime values are **bit-identical** — floats compared by
/// bit pattern, no tolerance. This is the stronger guarantee the
/// critical-replay path makes for protected cells: the master replays the
/// region's own instructions in sequential order, preserving association
/// exactly, so `best`-style cells must match the interpreter to the last
/// bit.
pub fn rtval_identical(a: RtVal, b: RtVal) -> bool {
    match (a, b) {
        (RtVal::Float(x), RtVal::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Whether two printed lines match: exact, or both parse as floats within
/// [`FLOAT_RTOL`].
pub fn line_equivalent(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => float_equivalent(x, y),
        _ => false,
    }
}

/// Compare observable global snapshots; returns the first mismatch as
/// `(global, cell index)` or `None` when equivalent.
pub fn globals_mismatch(
    a: &[(String, Vec<RtVal>)],
    b: &[(String, Vec<RtVal>)],
) -> Option<(String, usize)> {
    first_mismatch(a, b, rtval_equivalent)
}

/// Like [`globals_mismatch`], but **bit-identical** ([`rtval_identical`]):
/// no float tolerance. This is the oracle for runs where every parallel
/// attempt fell back — sequential execution on the master heap must
/// reproduce the interpreter exactly, so the fault fuzz suite asserts it
/// whenever a run reports zero chunked activations.
pub fn globals_identical_mismatch(
    a: &[(String, Vec<RtVal>)],
    b: &[(String, Vec<RtVal>)],
) -> Option<(String, usize)> {
    first_mismatch(a, b, rtval_identical)
}

fn first_mismatch(
    a: &[(String, Vec<RtVal>)],
    b: &[(String, Vec<RtVal>)],
    same: fn(RtVal, RtVal) -> bool,
) -> Option<(String, usize)> {
    if a.len() != b.len() {
        return Some(("<global count>".to_string(), 0));
    }
    for ((name, ca), (_, cb)) in a.iter().zip(b) {
        if ca.len() != cb.len() {
            return Some((name.clone(), usize::MAX));
        }
        for (i, (&x, &y)) in ca.iter().zip(cb).enumerate() {
            if !same(x, y) {
                return Some((name.clone(), i));
            }
        }
    }
    None
}

fn float_equivalent(x: f64, y: f64) -> bool {
    if x == y {
        return true;
    }
    if x.is_nan() && y.is_nan() {
        return true;
    }
    let scale = x.abs().max(y.abs());
    (x - y).abs() <= FLOAT_RTOL * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_ints_required() {
        assert!(rtval_equivalent(RtVal::Int(3), RtVal::Int(3)));
        assert!(!rtval_equivalent(RtVal::Int(3), RtVal::Int(4)));
    }

    #[test]
    fn floats_tolerate_rounding() {
        let a = 0.1 + 0.2;
        let b = 0.3;
        assert!(rtval_equivalent(RtVal::Float(a), RtVal::Float(b)));
        assert!(!rtval_equivalent(RtVal::Float(1.0), RtVal::Float(1.1)));
    }

    #[test]
    fn identical_is_bitwise() {
        let a = 0.1 + 0.2;
        let b = 0.3;
        assert!(rtval_equivalent(RtVal::Float(a), RtVal::Float(b)));
        assert!(
            !rtval_identical(RtVal::Float(a), RtVal::Float(b)),
            "0.1 + 0.2 differs from 0.3 in the last bit"
        );
        assert!(rtval_identical(RtVal::Float(a), RtVal::Float(a)));
        assert!(rtval_identical(RtVal::Int(7), RtVal::Int(7)));
    }

    #[test]
    fn identical_mismatch_rejects_last_bit_drift() {
        let a = vec![("g".to_string(), vec![RtVal::Float(0.1 + 0.2)])];
        let b = vec![("g".to_string(), vec![RtVal::Float(0.3)])];
        assert_eq!(globals_mismatch(&a, &b), None, "equivalent under rtol");
        assert_eq!(
            globals_identical_mismatch(&a, &b),
            Some(("g".to_string(), 0)),
            "but not bit-identical"
        );
        assert_eq!(globals_identical_mismatch(&a, &a), None);
    }

    #[test]
    fn lines_compare_numerically() {
        assert!(line_equivalent("0.300000", "0.300000"));
        assert!(line_equivalent("42", "42"));
        assert!(!line_equivalent("42", "43"));
        assert!(!line_equivalent("abc", "abd"));
    }
}
