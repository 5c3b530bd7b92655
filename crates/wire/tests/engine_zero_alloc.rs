//! The engine's ingress path decodes without allocating, and a full
//! handshake or a flood SYN stays under a fixed allocation ceiling.
//!
//! `ServerEngine::ingest_datagram` decodes every datagram over a
//! recycled ingress slot, and the listener refills recycled staging
//! slots for solution ACKs, so once warm the engine allocates only for
//! what a handshake really creates: the challenge's option and
//! pre-image, the solution option's bytes, connection state, the `Data`
//! event's payload and the response. The puzzle workloads mirror the
//! ledger's `engine_handshake` (classic puzzles, backlog 0, every SYN
//! challenged, each flow's request right behind its solution ACK, 256
//! datagrams per flush) and `engine_syn_flood` (near-stateless puzzles,
//! unique spoofed SYNs); a stateful handshake stream beside them carries
//! no byte-valued options at all. Each is recorded once through a first
//! engine, then replayed into a fresh one: warm-up waves first, then
//! measured waves.
//!
//! One ingress cost remains on the puzzle stream: a slot keeps an
//! option's byte buffer only while it decodes byte-valued options, so a
//! SYN (fixed-size options only) decoded over a slot that last held a
//! solution ACK drops the solution's buffer, and the next solution ACK
//! in that slot allocates it again — at most one allocation per
//! solution ACK slot per wave. Keeping it needs an inline option
//! representation, which `TcpOption`'s public type does not have.
//!
//! Kept as its own integration-test binary with a single test function
//! so no concurrent test can inflate the process-global counters (style
//! of `crates/tcpstack/tests/shard_zero_alloc.rs`).

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr};

use netsim::{SimDuration, SimTime};
use puzzle_core::{AlgoId, Challenge, ChallengeParams, Difficulty, Solver};
use tcpstack::{
    ClientConfig, ClientConn, ClientEvent, PolicyBuilder, PuzzleConfig, TcpSegment, VerifyMode,
};
use wire::{decode_frame, encode_frame, secret_from_seed, ServerConfig, ServerEngine};

#[global_allocator]
static ALLOC: testkit_alloc::CountingAllocator = testkit_alloc::CountingAllocator;

/// Datagrams per flush, as in the ledger.
const BATCH: usize = 256;
const WARMUP_WAVES: usize = 4;
const MEASURED_WAVES: usize = 8;
const RESPONSE_BYTES: usize = 1000;
const REQUEST: &[u8] = b"GET /gettext/1000";

/// Ceilings matching the ledger's traced counts, so a regression shows
/// here before it shows there.
const MAX_ALLOCS_PER_HANDSHAKE: f64 = 7.5;
const MAX_ALLOCS_PER_FLOOD_SYN: f64 = 2.05;

fn puzzle_config() -> PuzzleConfig {
    PuzzleConfig {
        difficulty: Difficulty::new(2, 6).expect("valid difficulty"),
        preimage_bits: 32,
        expiry: 8,
        verify: VerifyMode::Real,
        hold: SimDuration::from_secs(30),
        verify_workers: 1,
        algo: AlgoId::Prefix,
    }
}

/// Backlog 0: every SYN meets queue pressure, so puzzle policies
/// challenge every one.
fn server_config(policy: PolicyBuilder<puzzle_crypto::AutoBackend>) -> ServerConfig {
    let mut cfg = ServerConfig::new(policy, secret_from_seed(1));
    cfg.backlog = 0;
    cfg
}

fn peer() -> SocketAddr {
    SocketAddr::from((Ipv4Addr::LOCALHOST, 40_000))
}

/// The `i`-th unique client endpoint.
fn endpoint(i: usize) -> (Ipv4Addr, u16) {
    let host = 0x0A10_0000 + (i / 60_000) as u32;
    (Ipv4Addr::from(host), 1024 + (i % 60_000) as u16)
}

fn framed(endpoint: Ipv4Addr, seg: &TcpSegment) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(endpoint, seg, &mut out);
    out
}

/// One flush's input: the clock and the datagrams.
type Batch = (SimTime, Vec<Vec<u8>>);

/// Feeds `frames` to `engine` and flushes at `now`, returning the
/// replies.
fn step(engine: &mut ServerEngine, now: SimTime, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    for frame in frames {
        engine.ingest_datagram(peer(), frame);
    }
    let mut replies = Vec::new();
    engine.flush(now, &mut |_, bytes| replies.push(bytes.to_vec()));
    replies
}

/// The client's answer to the server's reply to its SYN: the solved
/// or plain ACK.
fn answer(conn: &mut ClientConn, now: SimTime, seg: &TcpSegment) -> TcpSegment {
    let (reply, events) = conn.on_segment(now, seg);
    match events.into_iter().next() {
        Some(ClientEvent::Challenged {
            challenge,
            issued_at,
        }) => {
            let params = ChallengeParams {
                difficulty: Difficulty::new(challenge.k, challenge.m).expect("valid (k, m)"),
                preimage_bits: challenge.l_bits(),
                timestamp: issued_at,
            };
            let puzzle = Challenge::from_wire(params, challenge.preimage.clone())
                .expect("consistent challenge");
            let solved = Solver::new().solve(&puzzle);
            conn.provide_solution(now, solved.solution.proofs())
        }
        Some(ClientEvent::Established) => reply.expect("SYN-ACK is acknowledged"),
        other => panic!("unexpected answer to a SYN: {other:?}"),
    }
}

/// Records `waves` waves of `BATCH` complete handshakes (SYN →
/// challenge or SYN-ACK → solved or plain ACK + request → response +
/// FIN), one `Vec` of batches per wave.
fn record_handshakes(cfg: &ServerConfig, waves: usize) -> Vec<Vec<Batch>> {
    let mut engine = ServerEngine::new(cfg);
    let mut now = SimTime::from_secs(1);
    let mut script = Vec::new();
    for wave in 0..waves {
        let mut batches = Vec::new();
        let mut clients = HashMap::new();
        let mut syns = Vec::new();
        for i in wave * BATCH..(wave + 1) * BATCH {
            let (addr, port) = endpoint(i);
            let client = ClientConfig::new(addr, port, cfg.local_addr, cfg.port);
            let (conn, syn) = ClientConn::connect(client, 7 * i as u32, now);
            syns.push(framed(addr, &syn));
            clients.insert((addr, port), conn);
        }
        now += SimDuration::from_millis(1);
        let mut answers = Vec::new();
        for reply in step(&mut engine, now, &syns) {
            let (addr, seg) = decode_frame(&reply).expect("server frames decode");
            let conn = clients.get_mut(&(addr, seg.dst_port)).expect("known flow");
            answers.push(framed(addr, &answer(conn, now, &seg)));
            answers.push(framed(addr, &conn.send(REQUEST.to_vec())));
        }
        batches.push((now, syns));
        for chunk in answers.chunks(BATCH) {
            now += SimDuration::from_millis(1);
            for reply in step(&mut engine, now, chunk) {
                let (addr, seg) = decode_frame(&reply).expect("server frames decode");
                let conn = clients.get_mut(&(addr, seg.dst_port)).expect("known flow");
                conn.on_segment(now, &seg);
            }
            batches.push((now, chunk.to_vec()));
        }
        assert!(
            clients
                .values()
                .all(|c| c.bytes_received() == RESPONSE_BYTES),
            "every recorded handshake completes"
        );
        script.push(batches);
    }
    script
}

/// `waves` waves of `BATCH` SYNs from unique spoofed endpoints.
fn record_syn_flood(cfg: &ServerConfig, waves: usize) -> Vec<Vec<Batch>> {
    let mut now = SimTime::from_secs(1);
    (0..waves)
        .map(|wave| {
            let syns = (wave * BATCH..(wave + 1) * BATCH)
                .map(|i| {
                    let (addr, port) = endpoint(1_000_000 + i);
                    let client = ClientConfig::new(addr, port, cfg.local_addr, cfg.port);
                    framed(addr, &ClientConn::connect(client, 11 * i as u32, now).1)
                })
                .collect();
            now += SimDuration::from_millis(1);
            vec![(now, syns)]
        })
        .collect()
}

/// Allocations a replay made: in `ingest_datagram` alone, and in total
/// (ingest plus flush).
#[derive(Default)]
struct Counted {
    ingest: u64,
    total: u64,
}

fn replay(engine: &mut ServerEngine, waves: &[Vec<Batch>]) -> Counted {
    let mut counted = Counted::default();
    let mut replies = 0usize;
    for (now, frames) in waves.iter().flatten() {
        let start = testkit_alloc::allocation_count();
        for frame in frames {
            engine.ingest_datagram(peer(), frame);
        }
        let ingested = testkit_alloc::allocation_count();
        engine.flush(*now, &mut |_, _| replies += 1);
        let flushed = testkit_alloc::allocation_count();
        counted.ingest += ingested - start;
        counted.total += flushed - start;
    }
    assert!(replies > 0);
    counted
}

/// Replays a recording into a fresh engine, warm-up waves first, and
/// returns the engine with the measured waves' counts.
fn measure(cfg: &ServerConfig, script: &[Vec<Batch>]) -> (ServerEngine, Counted) {
    let mut engine = ServerEngine::new(cfg);
    replay(&mut engine, &script[..WARMUP_WAVES]);
    let counted = replay(&mut engine, &script[WARMUP_WAVES..]);
    (engine, counted)
}

#[test]
fn warmed_engine_ingests_without_allocating_and_stays_under_ceilings() {
    let waves = WARMUP_WAVES + MEASURED_WAVES;
    let ops = (MEASURED_WAVES * BATCH) as f64;

    // Stateful handshakes: no byte-valued option anywhere, so every
    // slot decodes every datagram in place.
    let mut cfg = server_config(PolicyBuilder::none());
    cfg.backlog = 1024;
    let script = record_handshakes(&cfg, waves);
    let (engine, counted) = measure(&cfg, &script);
    assert_eq!(engine.stats().requests_served, (waves * BATCH) as u64);
    assert_eq!(
        counted.ingest, 0,
        "a warmed engine allocated while ingesting stateful handshakes"
    );

    // Puzzle handshakes: ingest pays at most the solution-buffer churn
    // described above; the whole handshake stays under its ceiling.
    let cfg = server_config(PolicyBuilder::puzzles(puzzle_config()));
    let script = record_handshakes(&cfg, waves);
    let (engine, counted) = measure(&cfg, &script);
    let stats = engine.stats();
    assert_eq!(stats.requests_served, (waves * BATCH) as u64);
    assert_eq!(stats.listener.established_puzzle, (waves * BATCH) as u64);
    assert_eq!(stats.listener.decode_errors, 0);
    let solution_ack_slots = (MEASURED_WAVES * BATCH / 2) as u64;
    assert!(
        counted.ingest <= solution_ack_slots,
        "{} ingest allocations over {MEASURED_WAVES} waves (at most {solution_ack_slots})",
        counted.ingest
    );
    let per_handshake = counted.total as f64 / ops;
    assert!(
        per_handshake <= MAX_ALLOCS_PER_HANDSHAKE,
        "{per_handshake} allocations per handshake (ceiling {MAX_ALLOCS_PER_HANDSHAKE})"
    );
    let ingest_per_handshake = counted.ingest as f64 / ops;

    // Flood SYNs under near-stateless puzzles.
    let cfg = server_config(PolicyBuilder::stateless_puzzles(puzzle_config(), 8));
    let script = record_syn_flood(&cfg, waves);
    let (engine, counted) = measure(&cfg, &script);
    assert_eq!(
        engine.stats().listener.challenges_sent,
        (waves * BATCH) as u64
    );
    let per_syn = counted.total as f64 / ops;
    assert!(
        per_syn <= MAX_ALLOCS_PER_FLOOD_SYN,
        "{per_syn} allocations per flood SYN (ceiling {MAX_ALLOCS_PER_FLOOD_SYN})"
    );
    eprintln!(
        "allocations: {per_handshake:.2} per puzzle handshake \
         ({ingest_per_handshake:.2} in ingest), {per_syn:.2} per flood SYN"
    );
}
