//! Property tests pinning [`BitSet`] to `BTreeSet<usize>` semantics: the
//! packed representation must be observationally identical to the ordered
//! set it replaced in the dependence indexes — same membership, same
//! ascending iteration order, same subset relation.

use std::collections::BTreeSet;

use proptest::prelude::*;
use pspdg_pool::BitSet;

/// Apply the same insert/remove script to both representations.
fn materialize(script: &[(bool, usize)]) -> (BitSet, BTreeSet<usize>) {
    let mut bs = BitSet::new();
    let mut model = BTreeSet::new();
    for &(insert, v) in script {
        if insert {
            bs.insert(v);
            model.insert(v);
        } else {
            bs.remove(v);
            model.remove(&v);
        }
    }
    (bs, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn insert_remove_len_contains_and_iter_order(
        script in proptest::collection::vec((proptest::bool::ANY, 0usize..512), 0..64)
    ) {
        let (bs, model) = materialize(&script);
        prop_assert_eq!(bs.len(), model.len());
        prop_assert_eq!(bs.is_empty(), model.is_empty());
        // Ascending iteration, exactly the model's order.
        let got: Vec<usize> = bs.iter().collect();
        let want: Vec<usize> = model.iter().copied().collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(bs.first(), model.first().copied());
        for v in 0..512 {
            prop_assert_eq!(bs.contains(v), model.contains(&v));
        }
        // Round-trip through FromIterator preserves equality.
        let rebuilt: BitSet = model.iter().copied().collect();
        prop_assert_eq!(&rebuilt, &bs);
    }

    #[test]
    fn subset_and_equality_match_btreeset(
        raw_a in proptest::collection::vec(0usize..320, 0..48),
        raw_b in proptest::collection::vec(0usize..320, 0..48),
    ) {
        let a: BTreeSet<usize> = raw_a.iter().copied().collect();
        let b: BTreeSet<usize> = raw_b.iter().copied().collect();
        let ba: BitSet = a.iter().copied().collect();
        let bb: BitSet = b.iter().copied().collect();

        prop_assert_eq!(ba.is_subset(&bb), a.is_subset(&b));

        // The equality must not be fooled by trailing capacity: a widened
        // copy of `a` still equals the compact one.
        let mut widened = BitSet::with_capacity(1024);
        widened.extend(a.iter().copied());
        prop_assert_eq!(&widened, &ba);
    }

    #[test]
    fn clear_resets_to_empty(
        raw in proptest::collection::vec(0usize..256, 0..32)
    ) {
        let mut bs: BitSet = raw.iter().copied().collect();
        bs.clear();
        prop_assert!(bs.is_empty());
        prop_assert_eq!(bs.len(), 0);
        prop_assert_eq!(bs.iter().count(), 0);
        prop_assert_eq!(&bs, &BitSet::new());
    }
}
