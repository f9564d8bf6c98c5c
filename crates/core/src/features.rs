//! Feature sets for the §4 ablation study.
//!
//! The paper argues each PS-PDG extension is *necessary* by removing it and
//! showing two semantically different programs that collapse onto the same
//! abstraction. [`FeatureSet`] lets the builder reproduce exactly those
//! ablations.

use std::fmt;

/// One PS-PDG extension (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// §4.1 — hierarchical nodes and undirected edges (removed together, as
    /// in the paper's "PS-PDG w/o HN and UE").
    HierarchicalUndirected,
    /// §4.2 — node traits (atomic / orderless / singular).
    NodeTraits,
    /// §4.3 — contexts.
    Contexts,
    /// §4.4 — data-selector directed edges.
    DataSelectors,
    /// §4.5 — parallel semantic variables and use/def relations.
    ParallelVariables,
}

impl Feature {
    /// All five extensions, in paper order.
    pub const ALL: [Feature; 5] = [
        Feature::HierarchicalUndirected,
        Feature::NodeTraits,
        Feature::Contexts,
        Feature::DataSelectors,
        Feature::ParallelVariables,
    ];

    const fn bit(self) -> u8 {
        match self {
            Feature::HierarchicalUndirected => 1 << 0,
            Feature::NodeTraits => 1 << 1,
            Feature::Contexts => 1 << 2,
            Feature::DataSelectors => 1 << 3,
            Feature::ParallelVariables => 1 << 4,
        }
    }

    /// Paper-style short name ("HN+UE", "NT", "C", "DSDE", "PSV").
    pub fn short_name(self) -> &'static str {
        match self {
            Feature::HierarchicalUndirected => "HN+UE",
            Feature::NodeTraits => "NT",
            Feature::Contexts => "C",
            Feature::DataSelectors => "DSDE",
            Feature::ParallelVariables => "PSV",
        }
    }
}

/// A set of enabled PS-PDG extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureSet(u8);

impl FeatureSet {
    /// The full PS-PDG.
    pub const fn all() -> FeatureSet {
        FeatureSet(0b11111)
    }

    /// The plain PDG (every extension disabled).
    pub const fn none() -> FeatureSet {
        FeatureSet(0)
    }

    /// Whether `f` is enabled.
    pub fn has(self, f: Feature) -> bool {
        self.0 & f.bit() != 0
    }

    /// This set with `f` removed (the paper's "PS-PDG w/o f").
    #[must_use]
    pub fn without(self, f: Feature) -> FeatureSet {
        FeatureSet(self.0 & !f.bit())
    }

    /// This set with `f` added.
    #[must_use]
    pub fn with(self, f: Feature) -> FeatureSet {
        FeatureSet(self.0 | f.bit())
    }
}

impl Default for FeatureSet {
    fn default() -> FeatureSet {
        FeatureSet::all()
    }
}

impl fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == FeatureSet::all() {
            return write!(f, "PS-PDG");
        }
        write!(f, "PS-PDG w/o ")?;
        let mut first = true;
        for feat in Feature::ALL {
            if !self.has(feat) {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{}", feat.short_name())?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations() {
        let all = FeatureSet::all();
        for f in Feature::ALL {
            assert!(all.has(f));
            let without = all.without(f);
            assert!(!without.has(f));
            for other in Feature::ALL {
                if other != f {
                    assert!(without.has(other));
                }
            }
            assert_eq!(without.with(f), all);
        }
        for f in Feature::ALL {
            assert!(!FeatureSet::none().has(f));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(FeatureSet::all().to_string(), "PS-PDG");
        assert_eq!(
            FeatureSet::none().to_string(),
            "PS-PDG w/o HN+UE,NT,C,DSDE,PSV"
        );
        assert_eq!(
            FeatureSet::all().without(Feature::NodeTraits).to_string(),
            "PS-PDG w/o NT"
        );
        assert_eq!(
            FeatureSet::all()
                .without(Feature::Contexts)
                .without(Feature::DataSelectors)
                .to_string(),
            "PS-PDG w/o C,DSDE"
        );
    }
}
