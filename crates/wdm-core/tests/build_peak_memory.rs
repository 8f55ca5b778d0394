//! The auxiliary graph is built in place: building `G_all`, and the
//! residual state around it, allocates at its peak little more than it
//! keeps. What `G_all` keeps is 12 bytes per edge (target and cost; no
//! per-edge role) plus its node tables.
//!
//! A counting global allocator tracks the live heap bytes and their high
//! mark. The file holds one test, so no other test allocates beside it.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
use wdm_core::{AuxiliaryGraph, ResidualState};
use wdm_graph::topology;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

struct Tracking;

// SAFETY: defers every operation verbatim to `System`; the counters do
// not touch the returned memory.
unsafe impl GlobalAlloc for Tracking {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; the layout
    // goes to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }
    // SAFETY: same pass-through argument as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }
    // SAFETY: caller guarantees `ptr` came from this allocator with this
    // `layout`; `System` gets both unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }
    // SAFETY: same pass-through argument as `dealloc`, plus `realloc`'s
    // non-zero `new_size` requirement forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            // A moving realloc holds both blocks while it copies.
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Runs `build` and returns its value with the ratio of the bytes live
/// at the build's peak to the bytes it left live, and those kept bytes.
fn peak_over_kept<T>(build: impl FnOnce() -> T) -> (T, f64, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let value = build();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let kept = LIVE.load(Ordering::Relaxed) - before;
    (value, peak as f64 / kept as f64, kept)
}

#[test]
fn building_g_all_peaks_at_the_size_it_keeps() {
    let mut rng = SmallRng::seed_from_u64(7);
    let graph = topology::random_sparse(256, 128, 4, &mut rng).expect("feasible");
    let config = InstanceConfig {
        k: 16,
        availability: Availability::Probability(0.6),
        link_cost: (10, 100),
        conversion: ConversionSpec::Uniform { lo: 1, hi: 5 },
    };
    let net = random_network(graph, &config, &mut rng).expect("valid");

    let (aux, ratio, kept) = peak_over_kept(|| AuxiliaryGraph::for_all_pairs(&net));
    let (edges, nodes) = (aux.graph().edge_count(), aux.graph().node_count());
    assert!(edges > 50_000, "a G_all large enough to show");
    assert!(
        ratio <= 1.1,
        "for_all_pairs peaked at {ratio:.2}x what it kept"
    );
    assert!(
        kept <= 12 * edges + 40 * nodes,
        "for_all_pairs kept {kept} B for {edges} edges and {nodes} aux nodes"
    );
    drop(aux);

    let (state, ratio, _) = peak_over_kept(|| ResidualState::new(&net));
    assert!(
        ratio <= 1.1,
        "ResidualState::new peaked at {ratio:.2}x what it kept"
    );
    drop(state);
}
