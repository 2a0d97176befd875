//! The client-latency histogram behind `DeploymentReport`'s percentiles:
//! every percentile lies within one bucket's relative error (1/16) of
//! the exact sorted sample, and recording never allocates, so memory
//! stays fixed however many samples a run produces.

use proptest::prelude::*;
use resilientdb::Metrics;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

/// Counts the heap allocations of the calling thread (tests run on
/// their own threads, so concurrent tests do not disturb the count).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`
// that never allocates (const-initialized, no destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A latency whose magnitude ranges over 0 ns .. ~18 min.
fn latency_ns() -> impl Strategy<Value = u64> {
    (0u32..41, any::<u64>()).prop_map(|(bits, r)| r & ((1u64 << bits) - 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn percentiles_are_within_one_bucket_of_the_exact_sample(
        samples in collection::vec(latency_ns(), 1..3000),
        p in 0.0f64..1.0,
    ) {
        let m = Metrics::new();
        for &ns in &samples {
            m.record_completion(1, Duration::from_nanos(ns));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        for p in [0.0, 0.5, 0.99, 0.999, 1.0, p] {
            let exact = sorted[(((n - 1) as f64 * p).round() as usize).min(n - 1)];
            let got = m.latency_percentile(p).as_nanos() as u64;
            prop_assert!(
                got.abs_diff(exact) * 16 <= exact,
                "p{p}: got {got} ns, exact {exact} ns"
            );
        }
        let sum: u64 = samples.iter().sum();
        prop_assert_eq!(m.avg_latency(), Duration::from_nanos(sum / n as u64));
    }
}

#[test]
fn recording_latencies_does_not_grow_memory() {
    let m = Metrics::new();
    let before = allocs();
    for i in 0..1_000_000u64 {
        m.record_completion(10, Duration::from_nanos(i * 7_919 % 50_000_000));
    }
    assert_eq!(allocs() - before, 0, "recording allocated");
    assert_eq!(m.completed_batches(), 1_000_000);
    assert!(m.latency_percentile(0.5) > Duration::ZERO);
}
