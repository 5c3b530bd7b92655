//! Steady-state timer-wheel churn performs zero heap allocations.
//!
//! The wheel keeps event payloads in a chunked slab and files only
//! `(at, idx)` handles in its slots. A cascade moves the handles out of
//! a slot without giving up that slot's buffer, and a pop returns its
//! slab entry to the free list. Once every slot the churn reaches has
//! been filled and emptied, schedule and pop never touch the allocator.
//!
//! The churn keeps a fixed number of events pending, each rescheduled
//! 1 µs to 67 ms after the one just popped (link delays up to host
//! timers), so events file at levels 0–4 and cascade on the way down.
//! Warm-up runs until the cursor has passed 2^31 ns, two turns of level
//! 4, so each of its 64 slots has been used. Events that cross a 2^30 ns
//! boundary file at level 5, one slot per boundary: such a slot still
//! allocates the first time it is used, until the wheel has turned
//! through all 64 of them (68.7 s of simulated time). The measured
//! stretch (about 0.12 s) stays inside one 2^30 ns block.
//!
//! Kept as its own integration-test binary with a single `#[test]` so
//! no concurrent test can inflate the process-global counters.

use netsim::wheel::TimerWheel;
use netsim::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: testkit_alloc::CountingAllocator = testkit_alloc::CountingAllocator;

const PENDING: u64 = 10_000;
const WARM_UNTIL: SimTime = SimTime::from_nanos(1 << 31);
const MEASURED: u64 = 100_000;

/// Log-uniform delta in [1 µs, 67 ms): a splitmix64 draw picks a power
/// of two from 2^10 to 2^26 ns and a uniform offset below it.
fn delta(i: u64) -> SimDuration {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let base = 1u64 << (10 + z % 17);
    SimDuration::from_nanos(base + (z >> 8) % base)
}

/// One pop followed by one schedule, `delta` after the popped event.
fn churn(wheel: &mut TimerWheel<u64>, seq: &mut u64) {
    let ev = wheel.pop().expect("churn keeps events pending");
    wheel.schedule(ev.at + delta(*seq), *seq, ev.item);
    *seq += 1;
}

#[test]
fn steady_state_schedule_and_pop_do_not_allocate() {
    let mut wheel = TimerWheel::new();
    let mut seq = 0u64;
    while seq < PENDING {
        wheel.schedule(SimTime::ZERO + delta(seq), seq, seq);
        seq += 1;
    }
    while wheel.now() < WARM_UNTIL {
        churn(&mut wheel, &mut seq);
    }

    let before = testkit_alloc::allocation_count();
    for _ in 0..MEASURED {
        churn(&mut wheel, &mut seq);
    }
    let allocs = testkit_alloc::allocation_count() - before;
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {MEASURED} warmed schedule+pop pairs"
    );
    assert_eq!(wheel.len(), PENDING as usize);
    // No event crossed into the next 2^30 ns block (filed at level 5).
    assert!(wheel.now() + SimDuration::from_nanos(1 << 26) < SimTime::from_nanos(3 << 30));
}
