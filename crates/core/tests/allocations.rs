//! Heap allocations of the streaming path, counted by a global allocator:
//! a frame that completes no window allocates nothing, and a frame that
//! completes one allocates at most its window vector `H`. A chunk of
//! frames allocates at most the windows it completes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use laelaps_core::am::AssociativeMemory;
use laelaps_core::hv::{Hypervector, TiePolicy};
use laelaps_core::{Detector, Encoder, LaelapsConfig, PatientModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    /// Allocations made by this thread. Tests run on parallel threads, so
    /// a global count would mix their allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards to [`System`], counting `alloc`, `alloc_zeroed` and `realloc`.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its output and the allocations this thread made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The paper's two operating points, plus a wide montage at an odd hop
/// with tie breaking.
fn configs() -> Vec<(LaelapsConfig, usize)> {
    let config = |dim, rate, policy| {
        LaelapsConfig::builder()
            .dim(dim)
            .sample_rate(rate)
            .tie_policy(policy)
            .seed(5)
            .build()
            .expect("valid config")
    };
    vec![
        (config(1000, 512, TiePolicy::ZeroOnTie), 12),
        (config(10_000, 512, TiePolicy::ZeroOnTie), 12),
        (config(300, 130, TiePolicy::TieBreakVector), 40),
    ]
}

/// Frame-major noise covering a dozen windows.
fn frames(config: &LaelapsConfig, electrodes: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(6);
    let len = config.lbp_len + 1 + config.hop_samples * 14;
    (0..len * electrodes)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect()
}

#[test]
fn encoder_allocates_only_the_windows_it_emits() {
    for (config, electrodes) in configs() {
        let mut encoder = Encoder::new(&config, electrodes).expect("valid encoder");
        let mut windows = 0;
        for frame in frames(&config, electrodes).chunks_exact(electrodes) {
            let (window, allocs) = allocations(|| encoder.push_frame(frame));
            let emitted = u64::from(window.expect("frame width matches").is_some());
            assert!(
                allocs <= emitted,
                "d = {}: {allocs} allocations for {emitted} windows",
                config.dim
            );
            windows += emitted;
        }
        assert_eq!(windows, 13, "d = {}", config.dim);
        encoder.reset();
        let mut windows = 0;
        for chunk in chunks(&frames(&config, electrodes), electrodes) {
            let mut emitted = 0;
            let (pushed, allocs) = allocations(|| encoder.push_frames(chunk, |_| emitted += 1));
            pushed.expect("whole frames");
            assert!(
                allocs <= emitted,
                "d = {}: {allocs} allocations for a chunk of {emitted} windows",
                config.dim
            );
            windows += emitted;
        }
        assert_eq!(windows, 13, "d = {}", config.dim);
    }
}

/// `frames` split into chunks of 1 to 700 frames.
fn chunks(frames: &[f32], electrodes: usize) -> Vec<&[f32]> {
    let mut rng = StdRng::seed_from_u64(8);
    let mut out = Vec::new();
    let mut rest = frames;
    while !rest.is_empty() {
        let run = rng.gen_range(1..=700).min(rest.len() / electrodes);
        let (chunk, tail) = rest.split_at(run * electrodes);
        out.push(chunk);
        rest = tail;
    }
    out
}

#[test]
fn detector_allocates_only_the_windows_it_emits() {
    for (config, electrodes) in configs() {
        let frames = frames(&config, electrodes);
        // Prototypes from the stream itself: its first window as the ictal
        // one, so windows classify ictal and the postprocessor raises
        // alarms.
        let mut encoder = Encoder::new(&config, electrodes).expect("valid encoder");
        let ictal = frames
            .chunks_exact(electrodes)
            .find_map(|f| encoder.push_frame(f).expect("frame width matches"))
            .expect("the stream completes a window")
            .vector;
        let interictal = Hypervector::random(config.dim, &mut StdRng::seed_from_u64(7));
        let am = AssociativeMemory::from_prototypes(interictal, ictal).expect("equal dims");
        let model = PatientModel::new(config.clone(), electrodes, am).expect("valid model");
        let mut detector = Detector::new(&model).expect("valid detector");
        let (mut events, mut ictal_events) = (0, 0);
        for frame in frames.chunks_exact(electrodes) {
            let (event, allocs) = allocations(|| detector.push_frame(frame));
            let event = event.expect("frame width matches");
            let emitted = u64::from(event.is_some());
            assert!(
                allocs <= emitted,
                "d = {}: {allocs} allocations for {emitted} events",
                config.dim
            );
            events += emitted;
            ictal_events += u64::from(event.is_some_and(|e| e.classification.label.is_ictal()));
        }
        assert_eq!(events, 13, "d = {}", config.dim);
        assert!(ictal_events > 0, "d = {}: no ictal window", config.dim);
        detector.reset();
        let mut events = 0;
        for chunk in chunks(&frames, electrodes) {
            let mut emitted = 0;
            let (pushed, allocs) = allocations(|| detector.push_frames(chunk, |_| emitted += 1));
            pushed.expect("whole frames");
            assert!(
                allocs <= emitted,
                "d = {}: {allocs} allocations for a chunk of {emitted} events",
                config.dim
            );
            events += emitted;
        }
        assert_eq!(events, 13, "d = {}", config.dim);
    }
}
