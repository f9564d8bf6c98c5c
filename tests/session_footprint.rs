//! What a cached `Session` keeps alive against what it charges the store.
//!
//! The `PlanStore` evicts by `Session::approx_bytes`, so that charge has to
//! track the bytes a session actually holds, or the store's budget says
//! nothing about the daemon's memory. A global counting allocator (the
//! idiom of `tests/interp_alloc.rs`, counting bytes instead of calls, and
//! across threads because the module build runs on the pool) measures the
//! live heap a session adds from `Session::compile` through `plan(PsPdg)`
//! and `plan(Jk)` — the requests `module_cold` makes of every shape — and
//! the charge must be within 1.5× of it either way. The module400 session
//! is also held to a ceiling, so a regrowth of what it retains shows here.
//!
//! One `#[test]` in its own binary: nothing else allocates while a
//! session is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};

use pspdg::ir::LoopId;
use pspdg::nas::{fault_suite, synth, Class};
use pspdg::parallelizer::Abstraction;
use pspdg::pdg::{CarriedSet, PdgEdge};
use pspdg::Session;

struct CountingAlloc;

/// Bytes currently allocated, over every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Allocation calls made, over every thread.
static CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Live bytes a session of `source` holds once both plans are cached, and
/// what it charges for them.
fn footprint(source: &str) -> (usize, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    let session = Session::compile(source).expect("bundled source compiles");
    session.plan(Abstraction::PsPdg);
    session.plan(Abstraction::Jk);
    let live = (LIVE.load(Ordering::SeqCst) - before) as usize;
    (live, session.approx_bytes())
}

/// The ceiling on the module400 session's live bytes.
const MODULE400_MAX_LIVE: usize = 6 << 20;

#[test]
fn approx_bytes_tracks_live_session_bytes() {
    // Edges carry their loops inline: no heap for a nest up to 3 deep.
    assert!(std::mem::size_of::<PdgEdge>() <= 48);
    let loops = [LoopId(0), LoopId(1), LoopId(2)];
    let calls = CALLS.load(Ordering::SeqCst);
    let set = std::hint::black_box(CarriedSet::from(&loops[..]));
    assert_eq!(
        CALLS.load(Ordering::SeqCst),
        calls,
        "a 3-loop set allocated"
    );
    assert_eq!(*set, loops);

    let mut shapes: Vec<(String, String)> = Vec::new();
    for n in [100, 400] {
        shapes.push((format!("module{n}"), synth::module(n, 32).source));
    }
    for b in [16, 32, 64] {
        shapes.push((format!("wide{b}"), synth::wide(b).source));
    }
    for b in fault_suite(Class::Mini) {
        shapes.push((format!("{}.mini", b.name), b.source));
    }
    // The first session starts the worker pool and whatever per-thread
    // state its jobs keep; measure from after that.
    footprint(&shapes[shapes.len() - 1].1);
    let mut bad = Vec::new();
    for (name, source) in &shapes {
        let (live, approx) = footprint(source);
        let ratio = approx as f64 / live as f64;
        println!("{name:>10} live {live:>10} approx {approx:>10} approx/live {ratio:.2}");
        if !(1.0 / 1.5..=1.5).contains(&ratio) {
            bad.push(format!("{name}: approx/live {ratio:.2}"));
        }
        if name == "module400" && live > MODULE400_MAX_LIVE {
            bad.push(format!("module400 holds {live} B > {MODULE400_MAX_LIVE}"));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
