//! Property: the batched issuance pipeline (`on_segments` →
//! `classify_syn`/`issue_flush`) is observably identical to per-segment
//! sequential processing — same replies byte-for-byte, same events, same
//! counters (including the `issue_hashes` accounting), same queue
//! depths — under arbitrary SYN/RST/forged-ACK bursts followed by a
//! completion round (solutions and handshake ACKs built from the first
//! round's replies), for every built-in policy and every hash backend.
//!
//! This is the contract that makes the batch path safe to enable
//! unconditionally: batching is a throughput optimisation, never a
//! behaviour change.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use puzzle_core::{AlgoId, Challenge, ChallengeParams, Difficulty, ServerSecret, Solver};
use tcpstack::adaptive::AdaptiveDifficulty;
use tcpstack::{
    Listener, ListenerConfig, PolicyBuilder, PuzzleConfig, SegmentBuilder, SolutionOption,
    SynCacheConfig, TcpFlags, TcpOption, TcpSegment, VerifyMode,
};

use puzzle_crypto::{auto_backend, HashBackend, MultiLaneBackend, ScalarBackend};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// Few enough ports that duplicate SYNs (known-flow mid-run paths)
/// arise naturally in short scripts.
const PORTS: u16 = 6;

/// One inbound segment of the randomized first-round burst.
#[derive(Clone, Debug)]
enum Step {
    /// Fresh or duplicate SYN; `ts` toggles the timestamp option so
    /// both embedded and echoed challenge timestamps are exercised.
    Syn {
        port: u16,
        isn: u32,
        mss: u16,
        ts: bool,
    },
    /// RST (clears listener and policy flow state mid-run).
    Rst { port: u16 },
    /// ACK with a forged ack number, optionally carrying data (the
    /// sequential RST-fallback path interleaved into the batch).
    ForgedAck { port: u16, with_data: bool },
}

fn arb_port() -> impl Strategy<Value = u16> {
    (0u16..PORTS).prop_map(|p| 2000 + p)
}

fn arb_syn() -> impl Strategy<Value = Step> {
    (arb_port(), any::<u32>(), 500u16..1500, any::<bool>())
        .prop_map(|(port, isn, mss, ts)| Step::Syn { port, isn, mss, ts })
}

fn arb_step() -> impl Strategy<Value = Step> {
    // The SYN arm repeats to bias bursts toward issuance work.
    prop_oneof![
        arb_syn(),
        arb_syn(),
        arb_syn(),
        arb_syn(),
        arb_port().prop_map(|port| Step::Rst { port }),
        (arb_port(), any::<bool>())
            .prop_map(|(port, with_data)| Step::ForgedAck { port, with_data }),
    ]
}

fn segment(step: &Step) -> TcpSegment {
    match *step {
        Step::Syn { port, isn, mss, ts } => {
            let mut b = SegmentBuilder::new(port, 80)
                .seq(isn)
                .flags(TcpFlags::SYN)
                .mss(mss);
            if ts {
                b = b.timestamps(u32::from(port), 0);
            }
            b.build()
        }
        Step::Rst { port } => SegmentBuilder::new(port, 80).flags(TcpFlags::RST).build(),
        Step::ForgedAck { port, with_data } => {
            let mut b = SegmentBuilder::new(port, 80)
                .seq(1)
                .ack_num(0xdead_beef)
                .flags(TcpFlags::ACK);
            if with_data {
                b = b.payload(b"GET /gettext/64".to_vec());
            }
            b.build()
        }
    }
}

/// Small queues and a short hold so pressure, the puzzle latch,
/// cache-full, and overflow paths all trigger within a short burst;
/// tiny real difficulty so solving is instant.
fn puzzle_cfg(algo: AlgoId) -> PuzzleConfig {
    PuzzleConfig {
        difficulty: Difficulty::new(1, 4).expect("valid"),
        preimage_bits: 32,
        expiry: 8,
        verify: VerifyMode::Real,
        hold: SimDuration::from_secs(2),
        verify_workers: 1,
        algo,
    }
}

/// Number of policies under test.
const POLICIES: usize = 10;
/// The near-stateless prefix policy, alone in the stack.
const STATELESS: usize = 5;

fn policy_under_test<B: HashBackend + 'static>(idx: usize) -> PolicyBuilder<B> {
    let spill = || {
        PolicyBuilder::syn_cache(SynCacheConfig {
            capacity: 1,
            lifetime: SimDuration::from_secs(2),
        })
    };
    match idx {
        0 => PolicyBuilder::none(),
        1 => PolicyBuilder::syn_cookies(),
        2 => PolicyBuilder::syn_cache(SynCacheConfig {
            capacity: 2,
            lifetime: SimDuration::from_secs(2),
        }),
        3 => PolicyBuilder::puzzles(puzzle_cfg(AlgoId::Prefix)),
        4 => PolicyBuilder::stacked(vec![
            spill(),
            PolicyBuilder::puzzles(puzzle_cfg(AlgoId::Prefix)),
        ]),
        STATELESS => PolicyBuilder::stateless_puzzles(puzzle_cfg(AlgoId::Prefix), 8),
        6 => PolicyBuilder::stacked(vec![
            spill(),
            PolicyBuilder::stateless_puzzles(puzzle_cfg(AlgoId::Prefix), 8),
        ]),
        7 => PolicyBuilder::puzzles(puzzle_cfg(AlgoId::Collide)),
        8 => PolicyBuilder::stateless_puzzles(puzzle_cfg(AlgoId::Collide), 8),
        _ => PolicyBuilder::adaptive_puzzles(
            puzzle_cfg(AlgoId::Prefix),
            AdaptiveDifficulty::new(
                Difficulty::new(1, 3).expect("valid"),
                Difficulty::new(1, 6).expect("valid"),
                0.5,
                2,
            )
            .expect("valid range"),
        ),
    }
}

fn mk_listener<B: HashBackend + Copy + 'static>(
    backend: B,
    policy: &PolicyBuilder<B>,
) -> Listener<B> {
    let mut cfg = ListenerConfig::new(SERVER_IP, 80);
    cfg.backlog = 1;
    cfg.accept_backlog = 2;
    Listener::with_policy(cfg, ServerSecret::from_bytes([7; 32]), backend, policy)
}

/// Everything the two pipelines must agree on after a round. Replies
/// are compared in exact wire order (issuance order is part of the
/// contract); events as a multiset, because batched solution
/// verification emits `Established` at the flush — after collection-time
/// events for later segments — which is the verify pipeline's one
/// documented reordering.
#[derive(Debug, PartialEq)]
struct Observed {
    replies: Vec<(Ipv4Addr, TcpSegment)>,
    events: Vec<String>,
    stats: tcpstack::ListenerStats,
    issue_hashes: u64,
    depths: (usize, usize),
    cache: usize,
    state_bytes: usize,
}

fn observe<B: HashBackend + 'static>(
    l: &mut Listener<B>,
    replies: Vec<(Ipv4Addr, TcpSegment)>,
    events: Vec<tcpstack::ListenerEvent>,
) -> Observed {
    let mut events: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
    events.sort();
    Observed {
        replies,
        events,
        stats: l.stats(),
        issue_hashes: l.stats().issue_hashes,
        depths: l.queue_depths(),
        cache: l.syn_cache_len(),
        state_bytes: l.policy_stats().state_bytes,
    }
}

/// Builds the second-round segments from the first round's replies: one
/// follow-up per port — a real solution when the last reply to that
/// port carried a challenge, a plain completion ACK otherwise. At most
/// one solution per flow keeps the round clear of the documented
/// same-run replay divergence.
fn completion_round(per_port: &BTreeMap<u16, (u32, TcpSegment)>) -> Vec<(Ipv4Addr, TcpSegment)> {
    let mut segs = Vec::new();
    for (&port, (client_isn, reply)) in per_port {
        let seg = if let Some(copt) = reply.challenge() {
            let issued = reply
                .timestamps()
                .map(|(tsval, _)| tsval)
                .or(copt.timestamp)
                .unwrap_or(0);
            // Window-bound pre-images derive from the server's secret
            // window nonce, so clients (and this test) solve exactly
            // what arrived on the wire, whichever policy sent it.
            let challenge = Challenge::from_wire(
                ChallengeParams {
                    difficulty: Difficulty::new(copt.k, copt.m).expect("valid"),
                    preimage_bits: copt.l_bits(),
                    timestamp: issued,
                },
                copt.preimage.clone(),
            )
            .expect("valid challenge");
            let solved = Solver::new().with_algo(copt.algo).solve(&challenge);
            let sol = SolutionOption::build(1460, 7, solved.solution.proofs(), None);
            SegmentBuilder::new(port, 80)
                .seq(client_isn.wrapping_add(1))
                .ack_num(reply.seq.wrapping_add(1))
                .flags(TcpFlags::ACK)
                .timestamps(2, issued)
                .option(TcpOption::Solution(sol))
                .build()
        } else {
            SegmentBuilder::new(port, 80)
                .seq(client_isn.wrapping_add(1))
                .ack_num(reply.seq.wrapping_add(1))
                .flags(TcpFlags::ACK)
                .build()
        };
        segs.push((CLIENT_IP, seg));
    }
    segs
}

/// Runs the burst + completion rounds on one backend, asserting batched
/// ≡ sequential after each round.
fn check_backend<B: HashBackend + Copy + 'static>(
    backend: B,
    policy_idx: usize,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let policy: PolicyBuilder<B> = policy_under_test(policy_idx);
    let mut seq = mk_listener(backend, &policy);
    let mut batch = mk_listener(backend, &policy);
    let now = SimTime::from_secs(5);

    let segs: Vec<(Ipv4Addr, TcpSegment)> = steps.iter().map(|s| (CLIENT_IP, segment(s))).collect();

    // Sequential feed, recording which SYN each reply answered so the
    // completion round can reconstruct challenges.
    let mut seq_replies = Vec::new();
    let mut seq_events = Vec::new();
    let mut per_port: BTreeMap<u16, (u32, TcpSegment)> = BTreeMap::new();
    for (step, (src, seg)) in steps.iter().zip(&segs) {
        let out = seq.on_segment(now, *src, seg);
        if let Step::Syn { port, isn, .. } = step {
            for (_, reply) in &out.replies {
                if reply.dst_port == *port && reply.flags.contains(TcpFlags::SYN) {
                    per_port.insert(*port, (*isn, reply.clone()));
                }
            }
        }
        seq_replies.extend(out.replies);
        seq_events.extend(out.events);
    }
    let out = batch.on_segments(now, &segs);
    prop_assert_eq!(
        observe(&mut seq, seq_replies, seq_events),
        observe(&mut batch, out.replies, out.events),
    );
    if policy_idx == STATELESS {
        // The near-stateless policy's defining property: an arbitrary
        // pre-proof burst — however many challenges it provokes — leaves
        // zero per-flow defence state, in both pipelines.
        prop_assert_eq!(seq.policy_stats().state_bytes, 0);
        prop_assert_eq!(batch.policy_stats().state_bytes, 0);
    }

    // Completion round: solutions + handshake ACKs derived from the
    // (identical) round-1 replies, fed the same two ways.
    let later = now + SimDuration::from_millis(100);
    let segs2 = completion_round(&per_port);
    let mut seq_replies = Vec::new();
    let mut seq_events = Vec::new();
    for (src, seg) in &segs2 {
        let out = seq.on_segment(later, *src, seg);
        seq_replies.extend(out.replies);
        seq_events.extend(out.events);
    }
    let out = batch.on_segments(later, &segs2);
    prop_assert_eq!(
        observe(&mut seq, seq_replies, seq_events),
        observe(&mut batch, out.replies, out.events),
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Batched issuance ≡ sequential issuance for every policy, on
    /// every backend, over arbitrary bursts.
    #[test]
    fn batched_issuance_is_sequential_issuance(
        policy_idx in 0usize..POLICIES,
        steps in prop::collection::vec(arb_step(), 1..40),
    ) {
        check_backend(ScalarBackend, policy_idx, &steps)?;
        check_backend(MultiLaneBackend, policy_idx, &steps)?;
        check_backend(auto_backend(), policy_idx, &steps)?;
    }
}
