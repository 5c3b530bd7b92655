//! Steady-state solution staging performs zero heap allocations.
//!
//! A run of solution-bearing ACKs is staged for one batched verification:
//! a request slot per ACK (tuple, parameters, the split proofs) beside
//! its establishment slot (flow, ACK number, MSS, payload). Those slots
//! live in the listener and are refilled in place, so after warm-up a
//! solution flush may allocate nothing but the `ListenerOutput` it
//! returns. The measured batch is ACKs carrying well-formed but wrong
//! proofs, with a request payload: each is split, staged and verified,
//! and is then rejected with exactly one event and no reply — so the
//! returned event list is the only thing allowed to touch the allocator.
//!
//! Kept as its own integration-test binary with a single `#[test]` so
//! no concurrent test can inflate the process-global counters (style of
//! `crates/core/tests/zero_alloc.rs`).

use std::net::Ipv4Addr;

use netsim::{SimDuration, SimTime};
use puzzle_core::{AlgoId, Difficulty, ServerSecret};
use tcpstack::{
    puzzle_clock, Listener, ListenerConfig, ListenerEvent, PolicyBuilder, PuzzleConfig,
    SegmentBuilder, SolutionOption, TcpFlags, TcpOption, TcpSegment, VerifyMode,
};

#[global_allocator]
static ALLOC: testkit_alloc::CountingAllocator = testkit_alloc::CountingAllocator;

const BATCH: usize = 64;

/// Solution ACKs from `BATCH` distinct unknown flows, each with `k = 2`
/// four-byte proofs that do not solve anything and a request payload.
fn solution_acks(now: SimTime) -> Vec<(Ipv4Addr, TcpSegment)> {
    (0..BATCH)
        .map(|i| {
            let proofs = [vec![i as u8; 4], vec![!(i as u8); 4]];
            let ack = SegmentBuilder::new(20_000 + i as u16, 80)
                .seq(1_000 + i as u32)
                .ack_num(7)
                .flags(TcpFlags::ACK)
                .timestamps(1, puzzle_clock(now))
                .option(TcpOption::Solution(SolutionOption::build(
                    1460, 7, &proofs, None,
                )))
                .payload(b"GET /gettext/1000".to_vec())
                .build();
            (Ipv4Addr::new(198, 18, 0, 1 + (i % 200) as u8), ack)
        })
        .collect()
}

#[test]
fn steady_state_solution_flush_stages_without_allocating() {
    let mut cfg = ListenerConfig::new(Ipv4Addr::new(10, 0, 0, 1), 80);
    cfg.backlog = 0;
    cfg.accept_backlog = 4 * BATCH;
    let puzzles = PuzzleConfig {
        difficulty: Difficulty::new(2, 6).expect("valid difficulty"),
        preimage_bits: 32,
        expiry: 8,
        verify: VerifyMode::Real,
        hold: SimDuration::ZERO,
        verify_workers: 1,
        algo: AlgoId::Prefix,
    };
    let mut l = Listener::with_policy(
        cfg,
        ServerSecret::from_bytes([7; 32]),
        puzzle_crypto::ScalarBackend,
        &PolicyBuilder::puzzles(puzzles),
    );
    let now = SimTime::from_secs(100);
    let batch = solution_acks(now);

    // Warm-up: staging slots, proof buffers and verifier scratch grow to
    // their high-water capacity.
    for _ in 0..4 {
        l.on_segments(now, &batch);
    }

    let before = testkit_alloc::allocation_count();
    let out = l.on_segments(now, &batch);
    let staged = testkit_alloc::allocation_count() - before;

    assert!(out.replies.is_empty());
    assert_eq!(out.events.len(), BATCH);
    assert!(out
        .events
        .iter()
        .all(|ev| matches!(ev, ListenerEvent::SolutionRejected { .. })));
    assert_eq!(l.stats().verify_failures, 5 * BATCH as u64);

    // What collecting the same events into a fresh list costs: the
    // output's own growth, the one allocation a flush may make.
    let before = testkit_alloc::allocation_count();
    let mut events = Vec::new();
    for ev in &out.events {
        events.push(ev.clone());
    }
    let output_growth = testkit_alloc::allocation_count() - before;
    assert_eq!(events, out.events);

    assert_eq!(
        staged, output_growth,
        "a steady-state solution flush allocated beyond its returned events"
    );
}
