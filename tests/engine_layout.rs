//! Layout guard: the size of the engine struct is pinned.
//!
//! `size_of::<Engine>()` is a benchmark input, not an implementation
//! detail. Where the engine sits on the heap decides whether glibc reuses
//! the pages a checkpoint frees, and a few words either way have moved the
//! benchmark's `checkpoint_ms_p50` by half with the round loop unchanged
//! (ROADMAP, "Heap layout is a benchmark input"). So a layout change must
//! fail here, not surprise the benchmark later.

use std::mem::size_of;

use population_stability::adversary::Churn;
use population_stability::prelude::*;

fn assert_layout(name: &str, actual: usize, pinned: usize) {
    assert_eq!(
        actual, pinned,
        "size_of::<{name}>() is {actual} B, pinned at {pinned} B. ROADMAP's \
         heap-layout invariant (\"Heap layout is a benchmark input\") applies: \
         compare every benchmark workload over alternating parent/change \
         pairs, watching large-clean-sharded checkpoint_ms_p50, before \
         re-pinning this size"
    );
}

#[test]
fn engine_sizes_are_pinned() {
    assert_layout(
        "Engine<PopulationStability>",
        size_of::<Engine<PopulationStability>>(),
        304,
    );
    assert_layout(
        "Engine<PopulationStability, Churn>",
        size_of::<Engine<PopulationStability, Churn>>(),
        352,
    );
}
