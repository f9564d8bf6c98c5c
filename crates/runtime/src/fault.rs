//! Deterministic fault injection for the parallel runtime.
//!
//! The runtime's correctness story rests on one promise: **any parallel
//! abort degrades to the sequential interpreter with identical observable
//! state** (see the fallback causes in [`crate::FallbackCounts`]). Before
//! this module, those recovery paths were reached only *incidentally* —
//! by kernels that happened to fault. [`FaultPlan`] and [`FaultInjector`]
//! make every one of them provable on demand: a plan names exact dynamic
//! points (*the nth chunk worker, the nth critical slice, the nth
//! critical replay packet*) and the fault to raise there, and the injector
//! fires each injection exactly once when execution reaches its point —
//! fully deterministically, so a failing fault schedule replays
//! bit-for-bit from its seed.
//!
//! ## Wiring
//!
//! A [`FaultInjector`] is attached to a runtime with
//! [`Runtime::fault_injector`](crate::Runtime::fault_injector) and
//! threaded as an `Option<Arc<FaultInjector>>`: with no injector the
//! runtime pays a single never-taken branch on each *cold* path
//! (chunk-worker start, critical slice, packet replay) — no `#[cfg]`, so
//! release binaries exercise the same code CI fuzzes.
//!
//! ## What each fault proves
//!
//! | [`FaultKind`] | site family | expected recovery |
//! |---|---|---|
//! | [`WorkerPanic`](FaultKind::WorkerPanic) | chunk worker | panic caught, activation falls back (`worker_fault`) |
//! | [`WorkerFault`](FaultKind::WorkerFault) | chunk worker | fork discarded, sequential re-run (`worker_fault`) |
//! | [`SpeculationFault`](FaultKind::SpeculationFault) | critical slice | speculative slice aborts, sequential re-run decides (`speculation_fault`) |
//! | [`ReplayFault`](FaultKind::ReplayFault) | replay packet | master heap restored from its rollback copy mid-commit (`replay_fault`) |
//!
//! Every family but `WorkerPanic` is also reached without an injector: a
//! worker's own `ExecError`, a guard-suppressed speculative slice that
//! faults, a faulting critical replay (ARCHITECTURE's fault model names
//! the inputs). Only the injection reaches a worker panic.
//!
//! The differential fuzz suite (`tests/fault_fuzz.rs`) closes the loop:
//! random seeded plans across every kernel × plan abstraction × worker
//! count must leave the final heap equivalent to the sequential
//! interpreter, attribute each fired fault to the right cause, and leave
//! the `Runtime` fully reusable (the same pool threads, fork volume back
//! to baseline on the next clean run).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The fault to raise when an injection's site is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic the chunk-worker job. The pool catches it and the activation
    /// falls back.
    WorkerPanic,
    /// Fail the chunk worker before its first iteration, as if an
    /// instruction faulted.
    WorkerFault,
    /// Fault inside a critical region's speculative
    /// (protected-independent) slice.
    SpeculationFault,
    /// Fault while replaying a deferred critical packet at commit.
    ReplayFault,
}

impl FaultKind {
    /// Trace-event name for this fault (the observability stream tags
    /// every injection with an instant event under the `fault` category).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::WorkerPanic => "fault/worker_panic",
            FaultKind::WorkerFault => "fault/worker_fault",
            FaultKind::SpeculationFault => "fault/speculation_fault",
            FaultKind::ReplayFault => "fault/replay_fault",
        }
    }

    /// Whether this fault may be injected at `site` (each site family
    /// supports the faults that can physically occur there).
    pub(crate) fn valid_at(self, site: FaultSite) -> bool {
        match site {
            FaultSite::ChunkWorker(_) => {
                matches!(self, FaultKind::WorkerPanic | FaultKind::WorkerFault)
            }
            FaultSite::CritSlice(_) => matches!(self, FaultKind::SpeculationFault),
            FaultSite::ReplayPacket(_) => matches!(self, FaultKind::ReplayFault),
        }
    }
}

/// A site-addressed dynamic point: the `n`th time execution reaches the
/// named family (counted from 0, across the whole life of the injector —
/// activations *and* `run` calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The nth chunk-worker job dispatched.
    ChunkWorker(u64),
    /// The nth speculative critical-region slice a chunk worker enters.
    CritSlice(u64),
    /// The nth critical replay packet the master commits.
    ReplayPacket(u64),
}

impl FaultSite {
    fn family(self) -> usize {
        match self {
            FaultSite::ChunkWorker(_) => 0,
            FaultSite::CritSlice(_) => 1,
            FaultSite::ReplayPacket(_) => 2,
        }
    }

    fn nth(self) -> u64 {
        match self {
            FaultSite::ChunkWorker(n) | FaultSite::CritSlice(n) | FaultSite::ReplayPacket(n) => n,
        }
    }
}

/// Number of [`FaultSite`] families (one dispatch counter each).
const FAMILIES: usize = 3;

/// One planned injection: raise `kind` the moment execution reaches
/// `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Where to fire.
    pub site: FaultSite,
    /// What to raise there.
    pub kind: FaultKind,
}

/// A deterministic fault schedule: a set of site-addressed injections.
/// Build one explicitly ([`FaultPlan::inject`]) or derive one from a seed
/// ([`FaultPlan::random`]); either way the same plan against the same
/// program and worker count reproduces the same faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The planned injections (each fires at most once).
    pub injections: Vec<Injection>,
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add an injection.
    ///
    /// # Panics
    ///
    /// Panics if `kind` cannot occur at `site` (each site family supports
    /// the faults the module table lists for it) — a malformed plan is a
    /// programming error, not a runtime condition.
    #[must_use]
    pub fn inject(mut self, site: FaultSite, kind: FaultKind) -> FaultPlan {
        assert!(
            kind.valid_at(site),
            "fault {kind:?} cannot be injected at {site:?}"
        );
        self.injections.push(Injection { site, kind });
        self
    }

    /// A single-injection plan.
    pub fn single(site: FaultSite, kind: FaultKind) -> FaultPlan {
        FaultPlan::new().inject(site, kind)
    }

    /// A random (but fully seed-determined) plan: 1–3 injections over
    /// random site families, early dynamic indices (so they actually fire
    /// on small kernels), and kinds valid for their site.
    pub fn random(seed: u64) -> FaultPlan {
        let mut rng = Rng64::new(seed);
        let count = 1 + rng.below(3);
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let n = rng.below(6);
            let site = match rng.below(FAMILIES as u64) {
                0 => FaultSite::ChunkWorker(n),
                1 => FaultSite::CritSlice(n),
                _ => FaultSite::ReplayPacket(n),
            };
            let kind = match site {
                FaultSite::ChunkWorker(_) => {
                    if rng.below(2) == 0 {
                        FaultKind::WorkerPanic
                    } else {
                        FaultKind::WorkerFault
                    }
                }
                FaultSite::CritSlice(_) => FaultKind::SpeculationFault,
                FaultSite::ReplayPacket(_) => FaultKind::ReplayFault,
            };
            plan = plan.inject(site, kind);
        }
        plan
    }
}

/// The runtime half of a [`FaultPlan`]: per-family dispatch counters plus
/// a fired log. Sharable across the master and pool workers (`Arc`);
/// every check is one atomic `fetch_add` on a cold path.
///
/// Counters are **cumulative over the injector's lifetime**: an injection
/// addressed at `ChunkWorker(3)` fires on the 4th chunk-worker job the
/// attached runtime ever dispatches, even across `run` calls — which is
/// what lets a reuse test fault the first run and assert the second run
/// is clean with the same injector still attached.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    counters: [AtomicU64; FAMILIES],
    /// 1 bit per injection: already fired.
    spent: Vec<AtomicU64>,
    fired_total: AtomicU64,
    fired: Mutex<Vec<Injection>>,
}

impl FaultInjector {
    /// Wrap a plan for execution.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let spent = plan.injections.iter().map(|_| AtomicU64::new(0)).collect();
        FaultInjector {
            plan,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            spent,
            fired_total: AtomicU64::new(0),
            fired: Mutex::new(Vec::new()),
        }
    }

    /// Convenience: `Arc::new(FaultInjector::new(plan))`.
    pub fn arm(plan: FaultPlan) -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new(plan))
    }

    /// Record one dynamic visit to a site family; returns the fault to
    /// raise if an un-fired injection addresses exactly this visit.
    fn check(&self, site: FaultSite) -> Option<FaultKind> {
        let n = self.counters[site.family()].fetch_add(1, Ordering::Relaxed);
        for (i, inj) in self.plan.injections.iter().enumerate() {
            if inj.site.family() == site.family()
                && inj.site.nth() == n
                && self.spent[i].swap(1, Ordering::Relaxed) == 0
            {
                self.fired_total.fetch_add(1, Ordering::Relaxed);
                self.fired.lock().expect("fault log lock").push(*inj);
                return Some(inj.kind);
            }
        }
        None
    }

    /// Site hook: a chunk-worker job is starting.
    pub(crate) fn on_chunk_worker(&self) -> Option<FaultKind> {
        self.check(FaultSite::ChunkWorker(0))
    }

    /// Site hook: a worker entered a critical region's speculative slice.
    pub(crate) fn on_crit_slice(&self) -> Option<FaultKind> {
        self.check(FaultSite::CritSlice(0))
    }

    /// Site hook: the master is about to replay a critical packet.
    pub(crate) fn on_replay_packet(&self) -> Option<FaultKind> {
        self.check(FaultSite::ReplayPacket(0))
    }

    /// Total injections fired so far.
    pub fn fired_total(&self) -> u64 {
        self.fired_total.load(Ordering::Relaxed)
    }

    /// The injections that fired, in firing order.
    pub fn fired(&self) -> Vec<Injection> {
        self.fired.lock().expect("fault log lock").clone()
    }

    /// How many fired injections raised `kind`.
    #[cfg(test)]
    fn fired_of(&self, kind: FaultKind) -> u64 {
        self.fired().iter().filter(|inj| inj.kind == kind).count() as u64
    }
}

/// A tiny deterministic PRNG (SplitMix64) — the seed substrate of
/// [`FaultPlan::random`] and the fault fuzz loop. Not cryptographic; its
/// only job is reproducibility without external dependencies.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng64 {
        Rng64 { state: seed }
    }

    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound ≥ 1`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injections_fire_exactly_once_at_their_site() {
        let inj = FaultInjector::new(
            FaultPlan::new()
                .inject(FaultSite::ChunkWorker(2), FaultKind::WorkerPanic)
                .inject(FaultSite::ReplayPacket(0), FaultKind::ReplayFault),
        );
        assert_eq!(inj.on_chunk_worker(), None); // visit 0
        assert_eq!(inj.on_chunk_worker(), None); // visit 1
        assert_eq!(inj.on_chunk_worker(), Some(FaultKind::WorkerPanic)); // 2
        assert_eq!(inj.on_chunk_worker(), None, "each injection fires once");
        assert_eq!(inj.on_replay_packet(), Some(FaultKind::ReplayFault));
        assert_eq!(inj.on_replay_packet(), None);
        assert_eq!(inj.fired_total(), 2);
        assert_eq!(inj.fired_of(FaultKind::WorkerPanic), 1);
        assert_eq!(inj.fired_of(FaultKind::ReplayFault), 1);
        assert_eq!(inj.fired_of(FaultKind::SpeculationFault), 0);
    }

    #[test]
    fn families_count_independently() {
        let inj = FaultInjector::new(FaultPlan::single(
            FaultSite::CritSlice(1),
            FaultKind::SpeculationFault,
        ));
        // Other families advance without disturbing CritSlice's counter.
        assert_eq!(inj.on_chunk_worker(), None);
        assert_eq!(inj.on_replay_packet(), None);
        assert_eq!(inj.on_crit_slice(), None);
        assert_eq!(inj.on_crit_slice(), Some(FaultKind::SpeculationFault));
    }

    #[test]
    #[should_panic(expected = "cannot be injected")]
    fn invalid_site_kind_pairs_are_rejected() {
        let _ = FaultPlan::new().inject(FaultSite::ReplayPacket(0), FaultKind::WorkerPanic);
    }

    #[test]
    fn random_plans_are_seed_deterministic_and_valid() {
        for seed in 0..200u64 {
            let a = FaultPlan::random(seed);
            let b = FaultPlan::random(seed);
            assert_eq!(a, b, "seed {seed} must reproduce the plan");
            assert!(!a.injections.is_empty() && a.injections.len() <= 3);
            for inj in &a.injections {
                assert!(inj.kind.valid_at(inj.site), "seed {seed}: {inj:?}");
            }
        }
        assert_ne!(
            FaultPlan::random(1),
            FaultPlan::random(2),
            "different seeds should (almost always) differ"
        );
    }

    #[test]
    fn rng_is_stable() {
        let mut r = Rng64::new(42);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut r2 = Rng64::new(42);
        let second: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(first, second);
    }
}
