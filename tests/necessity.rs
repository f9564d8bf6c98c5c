//! The §4 necessity study as an integration test (also exercised by the
//! `fig11` binary).

use pspdg::core::{Feature, FeatureSet};
use pspdg_bench::{necessity_cases, signature_of};

#[test]
fn full_pspdg_distinguishes_every_pair() {
    for case in necessity_cases() {
        let l = signature_of(case.left, case.kernel, FeatureSet::all());
        let r = signature_of(case.right, case.kernel, FeatureSet::all());
        assert_ne!(l, r, "panel {}: {}", case.panel, case.description);
    }
}

#[test]
fn each_ablation_collapses_its_pair() {
    for case in necessity_cases() {
        let fs = FeatureSet::all().without(case.feature);
        let l = signature_of(case.left, case.kernel, fs);
        let r = signature_of(case.right, case.kernel, fs);
        assert_eq!(l, r, "panel {}: {}", case.panel, case.description);
    }
}

#[test]
fn removing_everything_collapses_every_pair() {
    // With no features at all (the bottom of the §4 lattice), no pair is
    // distinguishable: nothing of the parallel semantics is left. That
    // graph is not the plain PDG, but stricter: without contexts every
    // carried dependence is blurred to "carried at every loop".
    for case in necessity_cases() {
        let l = signature_of(case.left, case.kernel, FeatureSet::none());
        let r = signature_of(case.right, case.kernel, FeatureSet::none());
        assert_eq!(l, r, "panel {}: {}", case.panel, case.description);
    }
}

#[test]
fn unrelated_ablations_preserve_distinctions() {
    // Removing a feature a pair does NOT depend on keeps the pair
    // distinguishable (the ablations are orthogonal).
    let independent: &[(char, Feature)] = &[
        ('A', Feature::DataSelectors),
        ('B', Feature::DataSelectors),
        ('D', Feature::NodeTraits),
        ('E', Feature::NodeTraits),
    ];
    for case in necessity_cases() {
        for (panel, feat) in independent {
            if case.panel != *panel {
                continue;
            }
            let fs = FeatureSet::all().without(*feat);
            let l = signature_of(case.left, case.kernel, fs);
            let r = signature_of(case.right, case.kernel, fs);
            assert_ne!(
                l, r,
                "panel {}: removing unrelated {:?} must not collapse the pair",
                case.panel, feat
            );
        }
    }
}

#[test]
fn signatures_are_deterministic() {
    for case in necessity_cases().into_iter().take(2) {
        let a = signature_of(case.left, case.kernel, FeatureSet::all());
        let b = signature_of(case.left, case.kernel, FeatureSet::all());
        assert_eq!(a, b);
    }
}
