//! Directive kinds, clauses, and IR regions they bind to.

use pspdg_ir::{BlockId, FuncId, GlobalId, InstId};

use crate::reduction::ReductionOp;

/// Identifier of a [`Directive`] within a
/// [`ParallelProgram`](crate::ParallelProgram).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DirectiveId(pub u32);

impl DirectiveId {
    /// Raw index into the program's directive list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DirectiveId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dir{}", self.0)
    }
}

/// A resolved reference to a program variable (the object a data clause
/// talks about).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarRef {
    /// A stack variable: its `alloca` instruction.
    Alloca {
        /// Function containing the alloca.
        func: FuncId,
        /// The alloca instruction.
        inst: InstId,
    },
    /// A module global.
    Global(GlobalId),
    /// A pointer parameter (array passed into the kernel).
    Param {
        /// Function whose parameter is referenced.
        func: FuncId,
        /// Parameter position.
        index: usize,
    },
}

/// `schedule(...)` kinds on worksharing loops. These control the execution
/// plan, not the semantics; they matter only for option enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScheduleKind {
    /// Contiguous chunks, round-robin.
    #[default]
    Static,
    /// First-come first-served chunks.
    Dynamic,
    /// Exponentially shrinking chunks.
    Guided,
    /// Implementation-defined.
    Auto,
}

/// A worksharing-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Schedule {
    /// Kind of schedule.
    pub kind: ScheduleKind,
    /// Optional chunk size.
    pub chunk: Option<u64>,
}

/// Data-environment clauses (paper §5.2 "Data and its Properties").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClause {
    /// Variable is shared (explicit `shared(x)`).
    Shared(VarRef),
    /// Each thread/task gets an uninitialized private copy.
    Private(VarRef),
    /// Private copy initialized from the original.
    Firstprivate(VarRef),
    /// Private copies; the logically-last iteration's value survives.
    Lastprivate(VarRef),
    /// Per-thread persistent copy (`threadprivate`).
    Threadprivate(VarRef),
    /// Private copies merged with `op` when the region ends.
    Reduction {
        /// Merge operator.
        op: ReductionOp,
        /// Reduced variable.
        var: VarRef,
    },
}

impl DataClause {
    /// The variable this clause constrains.
    pub fn var(&self) -> VarRef {
        match self {
            DataClause::Shared(v)
            | DataClause::Private(v)
            | DataClause::Firstprivate(v)
            | DataClause::Lastprivate(v)
            | DataClause::Threadprivate(v) => *v,
            DataClause::Reduction { var, .. } => *var,
        }
    }

    /// Whether the clause makes the variable privatizable.
    pub fn privatizes(&self) -> bool {
        matches!(
            self,
            DataClause::Private(_)
                | DataClause::Firstprivate(_)
                | DataClause::Lastprivate(_)
                | DataClause::Threadprivate(_)
                | DataClause::Reduction { .. }
        )
    }
}

/// Task dependence kinds (`depend(in/out/inout: x)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependKind {
    /// The task reads the object.
    In,
    /// The task writes the object.
    Out,
    /// The task reads and writes the object.
    Inout,
}

/// One `depend` clause entry on a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Depend {
    /// Dependence kind.
    pub kind: DependKind,
    /// The object depended on.
    pub var: VarRef,
}

/// The construct a directive represents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DirectiveKind {
    /// `omp parallel` — spawn a team executing the region redundantly.
    Parallel,
    /// `omp for` — distribute the iterations of the associated loop.
    For {
        /// `schedule(...)` clause.
        schedule: Schedule,
        /// `nowait` clause (no implied barrier at loop end).
        nowait: bool,
        /// `ordered` clause present (iteration-ordered sections inside).
        ordered: bool,
    },
    /// `omp sections` — container of independent `section` regions.
    Sections,
    /// One `omp section` inside `sections`.
    Section,
    /// `omp single` — region executed by one thread of the team.
    Single {
        /// `nowait` clause.
        nowait: bool,
    },
    /// `omp master` — region executed by the master thread only.
    Master,
    /// `omp critical [(name)]` — mutual exclusion, any order.
    Critical {
        /// Optional critical-section name (unnamed sections share a lock).
        name: Option<String>,
    },
    /// `omp atomic` — atomic read-modify-write of one location.
    Atomic,
    /// `omp barrier` — team-wide synchronization point.
    Barrier,
    /// `omp ordered` — region executed in loop-iteration order.
    Ordered,
    /// `omp task [depend(...)]` — deferred task.
    Task {
        /// `depend` clauses.
        depends: Vec<Depend>,
    },
    /// `omp taskwait` — wait for child tasks.
    Taskwait,
    /// `omp taskloop` — loop whose iterations become tasks.
    Taskloop,
    /// `omp simd` (semantically identical to Cilk `#pragma simd`).
    Simd,
    /// `cilk_spawn f(...)` — the region is the spawned call.
    CilkSpawn,
    /// `cilk_sync` — join all strands spawned in the enclosing scope.
    CilkSync,
    /// `cilk_scope { ... }` — implicit sync at region end.
    CilkScope,
    /// `cilk_for` — parallel loop (represented identically to
    /// `omp parallel for`, per Appendix A).
    CilkFor,
}

impl DirectiveKind {
    /// Whether this construct must be associated with a natural loop.
    pub(crate) fn is_loop_construct(&self) -> bool {
        matches!(
            self,
            DirectiveKind::For { .. }
                | DirectiveKind::Taskloop
                | DirectiveKind::Simd
                | DirectiveKind::CilkFor
        )
    }

    /// Short lowercase name for diagnostics (`"parallel"`, `"for"`, …).
    pub fn name(&self) -> &'static str {
        match self {
            DirectiveKind::Parallel => "parallel",
            DirectiveKind::For { .. } => "for",
            DirectiveKind::Sections => "sections",
            DirectiveKind::Section => "section",
            DirectiveKind::Single { .. } => "single",
            DirectiveKind::Master => "master",
            DirectiveKind::Critical { .. } => "critical",
            DirectiveKind::Atomic => "atomic",
            DirectiveKind::Barrier => "barrier",
            DirectiveKind::Ordered => "ordered",
            DirectiveKind::Task { .. } => "task",
            DirectiveKind::Taskwait => "taskwait",
            DirectiveKind::Taskloop => "taskloop",
            DirectiveKind::Simd => "simd",
            DirectiveKind::CilkSpawn => "cilk_spawn",
            DirectiveKind::CilkSync => "cilk_sync",
            DirectiveKind::CilkScope => "cilk_scope",
            DirectiveKind::CilkFor => "cilk_for",
        }
    }
}

/// The IR blocks a directive governs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    /// Function the region lives in.
    pub func: FuncId,
    /// All blocks of the region (sorted, deduplicated).
    pub blocks: Vec<BlockId>,
    /// The block control enters the region through.
    pub entry: BlockId,
}

impl Region {
    /// Create a region; blocks are sorted and deduplicated.
    pub fn new(func: FuncId, mut blocks: Vec<BlockId>, entry: BlockId) -> Region {
        blocks.sort();
        blocks.dedup();
        Region {
            func,
            blocks,
            entry,
        }
    }

    /// Whether `bb` belongs to the region.
    pub fn contains(&self, bb: BlockId) -> bool {
        self.blocks.binary_search(&bb).is_ok()
    }

    /// Whether `other` is entirely inside this region.
    pub fn encloses(&self, other: &Region) -> bool {
        self.func == other.func && other.blocks.iter().all(|b| self.contains(*b))
    }
}

/// A parallel construct bound to an IR region.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Directive {
    /// The construct.
    pub kind: DirectiveKind,
    /// IR region it governs.
    pub region: Region,
    /// For loop constructs: the header of the associated natural loop.
    pub loop_header: Option<BlockId>,
    /// Data-environment clauses.
    pub clauses: Vec<DataClause>,
}

impl Directive {
    /// Generic constructor.
    pub fn new(kind: DirectiveKind, region: Region) -> Directive {
        Directive {
            kind,
            region,
            loop_header: None,
            clauses: Vec::new(),
        }
    }

    /// `#pragma omp parallel` over `region`.
    pub fn parallel(region: Region) -> Directive {
        Directive::new(DirectiveKind::Parallel, region)
    }

    /// `#pragma omp parallel for` over the loop with header `header` —
    /// modeled as a `For` directive (callers that need the enclosing team
    /// add a separate `Parallel`).
    pub fn parallel_for(region: Region, header: BlockId) -> Directive {
        Directive {
            kind: DirectiveKind::For {
                schedule: Schedule::default(),
                nowait: false,
                ordered: false,
            },
            region,
            loop_header: Some(header),
            clauses: Vec::new(),
        }
    }

    /// `#pragma omp critical [(name)]`.
    pub fn critical(region: Region, name: Option<String>) -> Directive {
        Directive::new(DirectiveKind::Critical { name }, region)
    }

    /// Attach several data clauses (builder style).
    pub fn with_clauses(mut self, clauses: impl IntoIterator<Item = DataClause>) -> Directive {
        self.clauses.extend(clauses);
        self
    }

    /// Clauses that privatize a variable, with the variable.
    pub fn privatized_vars(&self) -> impl Iterator<Item = VarRef> + '_ {
        self.clauses
            .iter()
            .filter(|c| c.privatizes())
            .map(|c| c.var())
    }

    /// Reduction clauses `(op, var)`.
    pub fn reductions(&self) -> impl Iterator<Item = (ReductionOp, VarRef)> + '_ {
        self.clauses.iter().filter_map(|c| match c {
            DataClause::Reduction { op, var } => Some((*op, *var)),
            _ => None,
        })
    }
}

impl std::fmt::Display for Directive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#pragma {} on {} blocks",
            self.kind.name(),
            self.region.blocks.len()
        )?;
        if let Some(h) = self.loop_header {
            write!(f, " (loop @ {h})")?;
        }
        if !self.clauses.is_empty() {
            write!(f, " [{} clauses]", self.clauses.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(blocks: &[u32]) -> Region {
        Region::new(
            FuncId(0),
            blocks.iter().map(|b| BlockId(*b)).collect(),
            BlockId(blocks[0]),
        )
    }

    #[test]
    fn region_containment() {
        let outer = region(&[1, 2, 3, 4]);
        let inner = region(&[2, 3]);
        assert!(outer.encloses(&inner));
        assert!(!inner.encloses(&outer));
        assert!(outer.contains(BlockId(3)));
        assert!(!outer.contains(BlockId(9)));
    }

    #[test]
    fn region_dedups_blocks() {
        let r = Region::new(
            FuncId(0),
            vec![BlockId(3), BlockId(1), BlockId(3)],
            BlockId(1),
        );
        assert_eq!(r.blocks, vec![BlockId(1), BlockId(3)]);
    }

    #[test]
    fn directive_clause_queries() {
        let v = VarRef::Global(GlobalId(0));
        let w = VarRef::Alloca {
            func: FuncId(0),
            inst: InstId(5),
        };
        let d = Directive::parallel_for(region(&[1, 2]), BlockId(1)).with_clauses([
            DataClause::Private(v),
            DataClause::Reduction {
                op: ReductionOp::Add,
                var: w,
            },
        ]);
        let priv_vars: Vec<_> = d.privatized_vars().collect();
        assert_eq!(priv_vars, vec![v, w]);
        let reds: Vec<_> = d.reductions().collect();
        assert_eq!(reds, vec![(ReductionOp::Add, w)]);
    }

    #[test]
    fn directive_display() {
        let d = Directive::parallel_for(region(&[1, 2, 3]), BlockId(1))
            .with_clauses([DataClause::Private(VarRef::Global(GlobalId(0)))]);
        let text = d.to_string();
        assert!(text.contains("for"), "{text}");
        assert!(text.contains("3 blocks"), "{text}");
        assert!(text.contains("loop @ bb1"), "{text}");
        assert!(text.contains("1 clauses"), "{text}");
    }

    #[test]
    fn kind_classification() {
        assert!(DirectiveKind::For {
            schedule: Schedule::default(),
            nowait: false,
            ordered: false
        }
        .is_loop_construct());
        assert!(DirectiveKind::CilkFor.is_loop_construct());
        assert!(!DirectiveKind::Critical { name: None }.is_loop_construct());
        assert_eq!(DirectiveKind::Parallel.name(), "parallel");
    }
}
