//! Micro-benchmarks: listener fast paths — what bounds the server's
//! packets-per-second under each defence — plus the simulation engine's
//! event queue (timer wheel vs. the heap reference) and a fleet-scale
//! scenario step.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::scenario::{DefenseSpec, Matrix, Timeline};
use hostsim::FleetAttack;
use netsim::wheel::{HeapQueue, TimerWheel};
use netsim::{SimDuration, SimTime};
use puzzle_core::{AlgoId, Difficulty, ServerSecret};
use std::hint::black_box;
use std::net::Ipv4Addr;
use tcpstack::{
    Listener, ListenerConfig, PolicyBuilder, PuzzleConfig, SegmentBuilder, ShardedListener,
    TcpFlags, TcpSegment, VerifyMode,
};

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

fn listener(defense: PolicyBuilder<puzzle_crypto::ScalarBackend>, backlog: usize) -> Listener {
    let mut cfg = ListenerConfig::new(SERVER, 80);
    cfg.backlog = backlog;
    Listener::with_policy(
        cfg,
        ServerSecret::from_bytes([7; 32]),
        puzzle_crypto::ScalarBackend,
        &defense,
    )
}

fn syn(port: u16) -> tcpstack::TcpSegment {
    SegmentBuilder::new(port, 80)
        .seq(1)
        .flags(TcpFlags::SYN)
        .mss(1460)
        .timestamps(1, 0)
        .build()
}

/// Stateful SYN handling (half-open creation + SYN-ACK).
fn bench_syn_stateful(c: &mut Criterion) {
    c.bench_function("stack/syn_stateful", |b| {
        let mut l = listener(PolicyBuilder::none(), usize::MAX);
        let mut port = 1000u16;
        let src = Ipv4Addr::new(10, 0, 0, 2);
        b.iter(|| {
            port = port.wrapping_add(1).max(1000);
            l.on_segment(SimTime::ZERO, src, black_box(&syn(port)))
        })
    });
}

/// Stateless cookie SYN-ACK generation under overflow.
fn bench_syn_cookie(c: &mut Criterion) {
    c.bench_function("stack/syn_cookie", |b| {
        let mut l = listener(PolicyBuilder::syn_cookies(), 0);
        let src = Ipv4Addr::new(10, 0, 0, 3);
        let seg = syn(2000);
        b.iter(|| l.on_segment(SimTime::ZERO, src, black_box(&seg)))
    });
}

/// Stateless challenge generation under overflow (g(p) = 1 hash).
fn bench_syn_challenge(c: &mut Criterion) {
    let pc = PuzzleConfig {
        algo: AlgoId::Prefix,
        difficulty: Difficulty::new(2, 17).expect("valid"),
        preimage_bits: 32,
        expiry: 8,
        verify: VerifyMode::Real,
        hold: SimDuration::ZERO,
        verify_workers: 1,
    };
    c.bench_function("stack/syn_challenge", |b| {
        let mut l = listener(PolicyBuilder::puzzles(pc.clone()), 0);
        let src = Ipv4Addr::new(10, 0, 0, 4);
        let seg = syn(3000);
        b.iter(|| l.on_segment(SimTime::ZERO, src, black_box(&seg)))
    });
}

/// One 256-SYN flood against latched puzzles, stepped two ways through
/// the listener's one issuance path (`on_syn` defers, `issue_flush`
/// answers). Both ids process the full flood per iteration — `/1` is 256
/// `on_segment` calls, i.e. 256 one-SYN flushes, on
/// [`puzzle_crypto::ScalarBackend`] (software SHA-256); `/256` is one
/// `on_segments` call, one 256-SYN flush, on this machine's best backend
/// — so `ns(/1) / ns(/256)` is what the best backend plus amortising a
/// flush over the run buy over software SHA-256 one SYN at a time,
/// through the same code. The CI issuance-regression guard asserts it
/// stays ≥ 2× via
/// `bench_check --require-scaling stack/syn_challenge_batch:256:2.0`.
fn bench_syn_challenge_batch(c: &mut Criterion) {
    let pc = PuzzleConfig {
        algo: AlgoId::Prefix,
        difficulty: Difficulty::new(2, 17).expect("valid"),
        preimage_bits: 32,
        expiry: 8,
        verify: VerifyMode::Real,
        hold: SimDuration::from_secs(3600),
        verify_workers: 1,
    };
    let backend = puzzle_crypto::auto_backend();
    println!(
        "stack: syn_challenge_batch/256 runs the `{}` engine",
        puzzle_crypto::HashBackend::name(&backend)
    );
    let batch = challenged_batch();
    let mut cfg = ListenerConfig::new(SERVER, 80);
    cfg.backlog = 0; // permanent pressure: every SYN is challenged
    c.bench_function("stack/syn_challenge_batch/1", |b| {
        let mut l = Listener::with_policy(
            cfg.clone(),
            ServerSecret::from_bytes([7; 32]),
            puzzle_crypto::ScalarBackend,
            &PolicyBuilder::puzzles(pc.clone()),
        );
        b.iter(|| {
            for (src, seg) in &batch {
                black_box(l.on_segment(SimTime::ZERO, *src, seg));
            }
        })
    });
    c.bench_function("stack/syn_challenge_batch/256", |b| {
        let mut l = Listener::with_policy(
            cfg.clone(),
            ServerSecret::from_bytes([7; 32]),
            backend,
            &PolicyBuilder::puzzles(pc.clone()),
        );
        b.iter(|| l.on_segments(SimTime::ZERO, black_box(&batch)))
    });
}

/// The same comparison (256 one-SYN flushes on software SHA-256 vs one
/// 256-SYN flush on the best backend) through the near-stateless
/// windowed policy: every pre-image is one SHA-256 compression over the
/// per-window PRF nonce and the tuple, and the nonce HMAC is derived once
/// per flush — so it amortizes to nothing across `/256` and is paid 256
/// times by `/1`.
fn bench_syn_challenge_stateless_batch(c: &mut Criterion) {
    let pc = PuzzleConfig {
        algo: AlgoId::Prefix,
        difficulty: Difficulty::new(2, 17).expect("valid"),
        preimage_bits: 32,
        expiry: 8,
        verify: VerifyMode::Real,
        hold: SimDuration::from_secs(3600),
        verify_workers: 1,
    };
    let backend = puzzle_crypto::auto_backend();
    let batch = challenged_batch();
    let mut cfg = ListenerConfig::new(SERVER, 80);
    cfg.backlog = 0; // permanent pressure: every SYN is challenged
    c.bench_function("stack/syn_challenge_stateless_batch/1", |b| {
        let mut l = Listener::with_policy(
            cfg.clone(),
            ServerSecret::from_bytes([7; 32]),
            puzzle_crypto::ScalarBackend,
            &PolicyBuilder::stateless_puzzles(pc.clone(), 8),
        );
        b.iter(|| {
            for (src, seg) in &batch {
                black_box(l.on_segment(SimTime::ZERO, *src, seg));
            }
        })
    });
    c.bench_function("stack/syn_challenge_stateless_batch/256", |b| {
        let mut l = Listener::with_policy(
            cfg.clone(),
            ServerSecret::from_bytes([7; 32]),
            backend,
            &PolicyBuilder::stateless_puzzles(pc.clone(), 8),
        );
        b.iter(|| l.on_segments(SimTime::ZERO, black_box(&batch)))
    });
}

/// The conn-flood-shaped shard workload: 256 SYNs from 256 distinct
/// flows against latched puzzles, so every segment costs a challenge
/// HMAC — the admission-path workload the paper's cost model assumes
/// all cores share.
fn challenged_batch() -> Vec<(std::net::Ipv4Addr, TcpSegment)> {
    (0..256)
        .map(|i: u32| {
            let addr = Ipv4Addr::new(10, 1, (i / 200) as u8, 2 + (i % 200) as u8);
            let seg = SegmentBuilder::new(1024 + i as u16, 80)
                .seq(i)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .timestamps(1, 0)
                .build();
            (addr, seg)
        })
        .collect()
}

fn sharded_listener(
    shards: usize,
    pipeline: tcpstack::ShardPipeline,
) -> ShardedListener<puzzle_crypto::ScalarBackend> {
    let pc = PuzzleConfig {
        algo: AlgoId::Prefix,
        difficulty: Difficulty::new(2, 17).expect("valid"),
        preimage_bits: 32,
        expiry: 8,
        verify: VerifyMode::Real,
        hold: SimDuration::from_secs(3600),
        verify_workers: 1,
    };
    let mut cfg = ListenerConfig::new(SERVER, 80);
    cfg.backlog = 0; // permanent pressure: every SYN is challenged
    ShardedListener::with_policy_pipeline(
        cfg,
        ServerSecret::from_bytes([7; 32]),
        puzzle_crypto::ScalarBackend,
        &PolicyBuilder::puzzles(pc),
        shards,
        pipeline,
    )
}

/// Batch stepping through the RSS-style sharded listener with the step
/// pipeline forced **in-line**: shards run serially on the bench
/// thread, so `sharded/on_segments/N` measures pure dispatch + merge
/// overhead over the single-shard cost — the honest single-core
/// baseline every capture of this suite records (including
/// `BENCH_verify.json`, captured on a 1-core container). These ids
/// predate the persistent pipeline and keep their meaning: in-line
/// semantics were this group's behaviour on single-core hosts all
/// along.
fn bench_sharded_step(c: &mut Criterion) {
    let batch = challenged_batch();
    for shards in [1usize, 2, 4, 8] {
        c.bench_function(format!("sharded/on_segments/{shards}"), |b| {
            let mut l = sharded_listener(shards, tcpstack::ShardPipeline::Inline);
            b.iter(|| l.on_segments(SimTime::ZERO, black_box(&batch)))
        });
    }
}

/// The same workload through the **persistent worker pipeline**: one
/// long-lived worker per shard fed over SPSC rings, zero thread spawns
/// per step. On a multi-core host `sharded_persistent/on_segments/4`
/// should beat `sharded_persistent/on_segments/1` (the multicore CI leg
/// asserts ≥ 1.5× via `bench_check --require-scaling`); on a
/// single-core host the group degrades to handoff overhead — real
/// scaling numbers only come from real cores, which is why the committed
/// baseline keeps the in-line group above as its reference. Note
/// `shards = 1` never spawns workers (the facade is transparent), so
/// the `/1` id measures the same in-line step as `sharded/on_segments/1`
/// and doubles as the scaling denominator.
fn bench_sharded_persistent_step(c: &mut Criterion) {
    let batch = challenged_batch();
    for shards in [1usize, 2, 4, 8] {
        c.bench_function(format!("sharded_persistent/on_segments/{shards}"), |b| {
            let mut l = sharded_listener(shards, tcpstack::ShardPipeline::Persistent);
            b.iter(|| l.on_segments(SimTime::ZERO, black_box(&batch)))
        });
    }
}

/// Steady-state event-queue churn at `pending` in-flight events: each
/// iteration pops the earliest event and schedules a replacement — the
/// engine's inner loop. The wheel should stay flat as `pending` grows
/// (O(1)); the heap reference pays `log n` per operation.
fn bench_event_queue(c: &mut Criterion) {
    const PENDING: usize = 100_000;
    // Deterministic pseudo-random deltas spanning wheel levels.
    fn delta(i: u64) -> u64 {
        1 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44)
    }

    c.bench_function("eventq/wheel/churn_100k", |b| {
        let mut q: TimerWheel<u64> = TimerWheel::new();
        let mut seq = 0u64;
        for i in 0..PENDING as u64 {
            q.schedule(SimTime::from_nanos(delta(i)), seq, i);
            seq += 1;
        }
        b.iter(|| {
            let ev = q.pop().expect("queue never drains");
            q.schedule(ev.at + SimDuration::from_nanos(delta(ev.seq)), seq, ev.item);
            seq += 1;
            black_box(ev.at)
        })
    });

    c.bench_function("eventq/heap/churn_100k", |b| {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        let mut seq = 0u64;
        for i in 0..PENDING as u64 {
            q.schedule(SimTime::from_nanos(delta(i)), seq, i);
            seq += 1;
        }
        b.iter(|| {
            let ev = q.pop().expect("queue never drains");
            q.schedule(ev.at + SimDuration::from_nanos(delta(ev.seq)), seq, ev.item);
            seq += 1;
            black_box(ev.at)
        })
    });

    c.bench_function("eventq/wheel/schedule_pop_4k", |b| {
        b.iter(|| {
            let mut q: TimerWheel<u64> = TimerWheel::new();
            for i in 0..4096u64 {
                q.schedule(SimTime::from_nanos(delta(i)), i, i);
            }
            let mut last = 0;
            while let Some(ev) = q.pop() {
                last = ev.at.as_nanos();
            }
            black_box(last)
        })
    });
}

/// One simulated 100 ms step of a 100k-flow connection-flood scenario
/// (mid-attack): the fleet-scale acceptance workload as a benchmark.
fn bench_fleet_step(c: &mut Criterion) {
    let timeline = Timeline {
        total: 3600.0,
        attack_start: 1.0,
        attack_stop: 3600.0,
    };
    let matrix = Matrix::new(timeline)
        .defenses(vec![DefenseSpec::nash()])
        .attacks(vec![FleetAttack::ConnFlood {
            rate: 50_000.0,
            solve: None,
            conn_timeout: SimDuration::from_secs(1),
            ack_delay: SimDuration::from_millis(500),
        }])
        .fleet_sizes(vec![100_000])
        .seeds(vec![1]);
    let mut tb = matrix
        .cell_scenario(&matrix.defenses[0], &matrix.attacks[0], 100_000, 1)
        .build();
    // Warm into the attack's steady state.
    tb.run_until_secs(3.0);
    let mut now = 3.0;
    c.bench_function("fleet/conn_flood_100k/step_100ms", |b| {
        b.iter(|| {
            now += 0.1;
            tb.run_until_secs(now);
            black_box(tb.sim.stats().events_processed)
        })
    });
}

criterion_group! {name = benches; config = Criterion::default().warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2)).sample_size(10); targets = bench_syn_stateful, bench_syn_cookie, bench_syn_challenge, bench_syn_challenge_batch, bench_syn_challenge_stateless_batch, bench_sharded_step, bench_sharded_persistent_step, bench_event_queue, bench_fleet_step}
criterion_main!(benches);
