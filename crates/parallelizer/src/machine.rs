//! The machine model used by option enumeration.

/// Enumeration parameters of the evaluation machine (paper §6.2: "we
/// automatically enumerate the options for a 56 core machine … at most 56
/// (cores) × 8 (chunk sizes considered)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineModel {
    /// Hardware threads available.
    pub cores: u64,
    /// Distinct chunk sizes considered per DOALL loop.
    pub chunk_sizes: u64,
}

impl MachineModel {
    /// The paper's 56-core evaluation machine with 8 chunk sizes.
    pub fn paper() -> MachineModel {
        MachineModel {
            cores: 56,
            chunk_sizes: 8,
        }
    }

    /// Options for one DOALL-parallelizable loop.
    pub(crate) fn doall_options(&self) -> u64 {
        self.cores * self.chunk_sizes
    }

    /// Options for one HELIX-parallelizable loop with `seq_sccs` sequential
    /// SCCs: each choice of sequential-segment count (1..=seq_sccs) can run
    /// on up to `cores` cores.
    pub(crate) fn helix_options(&self, seq_sccs: u64) -> u64 {
        seq_sccs * self.cores
    }

    /// Options for one DSWP-parallelizable loop with `total_sccs` SCCs:
    /// pipelines of 2..=min(total_sccs, cores) stages.
    pub(crate) fn dswp_options(&self, total_sccs: u64) -> u64 {
        total_sccs.min(self.cores).saturating_sub(1)
    }

    /// Options available to the source OpenMP parallelization of one
    /// worksharing loop through environment variables (`OMP_NUM_THREADS` ×
    /// chunk sizes).
    pub(crate) fn openmp_env_options(&self) -> u64 {
        self.cores * self.chunk_sizes
    }
}

impl Default for MachineModel {
    fn default() -> MachineModel {
        MachineModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_counts() {
        let m = MachineModel::paper();
        assert_eq!(m.doall_options(), 448);
        assert_eq!(m.openmp_env_options(), 448);
        assert_eq!(m.helix_options(3), 168);
        assert_eq!(m.dswp_options(4), 3);
        assert_eq!(m.dswp_options(100), 55);
        assert_eq!(m.dswp_options(1), 0);
    }
}
