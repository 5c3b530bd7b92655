//! Lifecycle and stress tests for the persistent shard-worker pipeline:
//!
//! * **No thread leaks** — constructing a persistent facade spawns
//!   exactly one worker per shard, and dropping it joins every one
//!   (counted by thread name via `/proc/self/task` on Linux, where CI
//!   runs; other platforms fall back to asserting drop completes).
//! * **Steady state is spawn-free** — thousands of interleaved
//!   `on_segments` / `poll` / `set_difficulty` calls never change the
//!   number of worker threads.
//! * **Interleaving stress** — a persistent 4-shard facade and its
//!   in-line twin stay segment-for-segment identical through a long
//!   deterministic interleaving of batches, polls, difficulty retunes,
//!   and accepts under the adaptive puzzle policy.

use std::net::Ipv4Addr;

use netsim::{SimDuration, SimTime};
use puzzle_core::{AlgoId, Difficulty, ServerSecret};
use tcpstack::{
    ListenerConfig, PolicyBuilder, PuzzleConfig, SegmentBuilder, ShardPipeline, ShardedListener,
    TcpFlags, TcpSegment, VerifyMode,
};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// Serializes the tests in this binary: they count worker threads, so
/// another test's live worker pool would skew the arithmetic. (Poisoned
/// locks are fine — the guard only orders execution.)
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// How many of this process's threads are shard workers — the pool
/// names them `shard-worker-{k}`. Counting every thread instead would
/// also count libtest's own, one of which may still be exiting from the
/// previous test. On Linux, read from `/proc/self/task/*/comm`;
/// elsewhere `None`, and the callers degrade to lifecycle-only
/// assertions.
fn worker_thread_count() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        Some(
            tasks
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.starts_with("shard-worker-"))
                .count(),
        )
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

fn puzzles_policy() -> PolicyBuilder<puzzle_crypto::ScalarBackend> {
    PolicyBuilder::puzzles(PuzzleConfig {
        difficulty: Difficulty::new(1, 4).expect("valid"),
        preimage_bits: 32,
        expiry: 8,
        verify: VerifyMode::Real,
        hold: SimDuration::from_secs(2),
        verify_workers: 1,
        algo: AlgoId::Prefix,
    })
}

fn facade(shards: usize, pipeline: ShardPipeline) -> ShardedListener<puzzle_crypto::ScalarBackend> {
    let mut cfg = ListenerConfig::new(SERVER_IP, 80);
    cfg.backlog = 64;
    cfg.accept_backlog = 64;
    ShardedListener::with_policy_pipeline(
        cfg,
        ServerSecret::from_bytes([7; 32]),
        puzzle_crypto::ScalarBackend,
        &puzzles_policy(),
        shards,
        pipeline,
    )
}

fn syn(addr: Ipv4Addr, port: u16, isn: u32) -> (Ipv4Addr, TcpSegment) {
    (
        addr,
        SegmentBuilder::new(port, 80)
            .seq(isn)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .timestamps(1, 0)
            .build(),
    )
}

/// Deterministic client spread: enough distinct flows to hit every
/// shard of a 4-way facade.
fn client(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (1 + i / 200) as u8, (i % 200) as u8)
}

#[test]
fn drop_joins_every_worker_thread() {
    let _guard = serial();
    let before = worker_thread_count();
    {
        let mut l = facade(4, ShardPipeline::Persistent);
        assert!(l.is_persistent());
        // Exercise the workers before counting and dropping: a thread
        // names itself as it starts, and `poll` returns only once every
        // worker has run its job — so the count sees all of them, and
        // the join path sees threads that have actually run jobs (not
        // just parked since spawn).
        let batch: Vec<_> = (0..32)
            .map(|i| syn(client(i), 2000 + i as u16, 1))
            .collect();
        l.on_segments(SimTime::ZERO, &batch);
        l.poll(SimTime::from_millis(10));
        if let (Some(before), Some(during)) = (before, worker_thread_count()) {
            assert_eq!(
                during,
                before + 4,
                "persistent facade spawns exactly one worker per shard"
            );
        }
    }
    if let (Some(before), Some(after)) = (before, worker_thread_count()) {
        assert_eq!(
            after, before,
            "drop must join every worker (no thread leak)"
        );
    }
}

#[test]
fn steady_state_never_spawns_threads() {
    let _guard = serial();
    let mut l = facade(4, ShardPipeline::Persistent);
    let batch: Vec<_> = (0..48)
        .map(|i| syn(client(i), 3000 + i as u16, 1))
        .collect();
    // Warm up: first calls may lazily touch whatever the platform
    // lazily touches.
    l.on_segments(SimTime::ZERO, &batch);
    l.poll(SimTime::from_millis(1));
    let baseline = worker_thread_count();
    for step in 0u64..2_000 {
        let now = SimTime::from_millis(2 + step);
        match step % 4 {
            0 | 1 => {
                l.on_segments(now, &batch);
            }
            2 => {
                l.poll(now);
            }
            _ => {
                let m = 4 + (step % 3) as u8;
                l.set_difficulty(Difficulty::new(1, m).expect("valid"));
            }
        }
    }
    if let (Some(baseline), Some(after)) = (baseline, worker_thread_count()) {
        assert_eq!(
            after, baseline,
            "steady-state stepping must create zero threads"
        );
    }
    let dispatched: u64 = l
        .pipeline_stats()
        .shards
        .iter()
        .map(|s| s.jobs_dispatched)
        .sum();
    assert!(
        dispatched >= 1_000,
        "the loop above must actually have exercised the workers (got {dispatched})"
    );
}

/// Long deterministic interleaving of batches, polls, difficulty
/// retunes, and accepts: the persistent facade and its in-line twin
/// must agree on every observable at every step. Complements the
/// proptest equivalence (arbitrary short scripts) with one long script
/// that keeps the workers hot across thousands of jobs.
#[test]
fn stress_interleaving_matches_inline_twin() {
    let _guard = serial();
    let mut inline = facade(4, ShardPipeline::Inline);
    let mut persistent = facade(4, ShardPipeline::Persistent);
    assert!(persistent.is_persistent());
    let mut now = SimTime::ZERO;
    for round in 0u64..400 {
        now += SimDuration::from_millis(25);
        match round % 5 {
            0..=2 => {
                // Varying batch: size, flows, and ISNs all shift per
                // round so queues churn (admissions, duplicates, RSTs).
                let size = 8 + (round % 32) as usize;
                let batch: Vec<_> = (0..size)
                    .map(|i| {
                        let k = (round as usize * 7 + i * 13) % 600;
                        if (round + i as u64).is_multiple_of(11) {
                            (
                                client(k),
                                SegmentBuilder::new(5000 + (k % 100) as u16, 80)
                                    .flags(TcpFlags::RST)
                                    .build(),
                            )
                        } else {
                            syn(client(k), 5000 + (k % 100) as u16, round as u32)
                        }
                    })
                    .collect();
                let a = inline.on_segments(now, &batch);
                let b = persistent.on_segments(now, &batch);
                assert_eq!(a.replies, b.replies, "round {round}: replies diverged");
                assert_eq!(a.events, b.events, "round {round}: events diverged");
            }
            3 => {
                // Retransmission order within a shard is a per-instance
                // HashMap artifact; compare the broadcast as a multiset.
                let sort = |mut v: Vec<(Ipv4Addr, TcpSegment)>| {
                    v.sort_by_cached_key(|(dst, seg)| format!("{dst} {seg:?}"));
                    v
                };
                assert_eq!(
                    sort(inline.poll(now)),
                    sort(persistent.poll(now)),
                    "round {round}: poll diverged"
                );
            }
            _ => {
                let m = 4 + (round % 4) as u8;
                let d = Difficulty::new(1, m).expect("valid");
                assert_eq!(
                    inline.set_difficulty(d),
                    persistent.set_difficulty(d),
                    "round {round}: set_difficulty diverged"
                );
                assert_eq!(
                    inline.accept(),
                    persistent.accept(),
                    "round {round}: accept diverged"
                );
            }
        }
        assert_eq!(
            inline.stats(),
            persistent.stats(),
            "round {round}: stats diverged"
        );
        assert_eq!(inline.queue_depths(), persistent.queue_depths());
        assert_eq!(inline.policy_stats(), persistent.policy_stats());
    }
    // The persistent twin must have done all of that on its workers.
    let ps = persistent.pipeline_stats();
    assert!(ps.persistent);
    let dispatched: u64 = ps.shards.iter().map(|s| s.jobs_dispatched).sum();
    assert!(
        dispatched >= 400,
        "workers must have carried the stress load"
    );
}

/// An empty batch returns immediately on every pipeline: no shard is
/// stepped, no job is dispatched, no output is produced.
#[test]
fn empty_batch_is_a_no_op_on_every_pipeline() {
    let _guard = serial();
    for pipeline in [ShardPipeline::Inline, ShardPipeline::Persistent] {
        for shards in [1usize, 4] {
            let mut l = facade(shards, pipeline);
            let out = l.on_segments(SimTime::ZERO, &[]);
            assert!(out.replies.is_empty() && out.events.is_empty());
            let ps = l.pipeline_stats();
            assert!(
                ps.shards.iter().all(|s| s.jobs_dispatched == 0),
                "empty batch dispatched a job ({pipeline:?}, shards={shards})"
            );
        }
    }
}
