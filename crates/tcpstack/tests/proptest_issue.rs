//! Property: however a segment sequence is split into consecutive step
//! calls — one segment per call (`on_segment`, a batch of one), the
//! whole sequence in one `on_segments` call, or any batch sizes in
//! between — the listener answers the same: same replies byte-for-byte
//! in the same order, same events, same counters (including the
//! `issue_hashes` accounting), same queue depths, same `policy_stats()`
//! — under arbitrary SYN/RST/forged-ACK bursts followed by a completion
//! round (solutions and handshake ACKs built from the first round's
//! replies), for every built-in policy and every hash backend.
//!
//! There is one step loop and one issuance routine (`on_syn` decides,
//! `issue_flush` answers a deferred run); what this checks is the rule
//! that makes a run's length unobservable: the listener flushes the
//! deferred run before it acts on anything else, so batching is a
//! throughput optimisation, never a behaviour change.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use puzzle_core::{AlgoId, Challenge, ChallengeParams, Difficulty, ServerSecret, Solver};
use tcpstack::adaptive::AdaptiveDifficulty;
use tcpstack::listener::ListenerOutput;
use tcpstack::policy::SynDisposition;
use tcpstack::{
    DefensePolicy, FlowKey, Listener, ListenerConfig, ListenerCore, PolicyBuilder, PolicyStats,
    PuzzleConfig, QueuePressure, SegmentBuilder, SolutionOption, SynCacheConfig, TcpFlags,
    TcpOption, TcpSegment, VerifyMode,
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
const POLICIES: usize = 11;
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
        9 => PolicyBuilder::adaptive_puzzles(
            puzzle_cfg(AlgoId::Prefix),
            AdaptiveDifficulty::new(
                Difficulty::new(1, 3).expect("valid"),
                Difficulty::new(1, 6).expect("valid"),
                0.5,
                2,
            )
            .expect("valid range"),
        ),
        _ => PolicyBuilder::new("per-flow", |_, _| Box::new(PerFlow::default())),
    }
}

/// A policy no built-in resembles: whether a SYN is deferred, answered
/// at once or left to the stock rule depends on the flow alone, so one
/// run of SYNs mixes the three in any order (the built-ins only ever
/// switch from immediate to deferred inside a run). Its answer is always
/// a bare SYN-ACK on the next server ISN, so the reply bytes show the
/// order the listener acted in.
#[derive(Debug, Default)]
struct PerFlow {
    pending: Vec<(FlowKey, u32)>,
}

fn bare_synack(flow: FlowKey, server_isn: u32, client_isn: u32) -> (Ipv4Addr, TcpSegment) {
    let reply = SegmentBuilder::new(80, flow.port)
        .seq(server_isn)
        .ack_num(client_isn.wrapping_add(1))
        .flags(TcpFlags::SYN | TcpFlags::ACK)
        .build();
    (flow.addr, reply)
}

impl<B: HashBackend> DefensePolicy<B> for PerFlow {
    fn name(&self) -> &'static str {
        "per-flow"
    }

    fn on_syn(
        &mut self,
        _core: &mut ListenerCore<B>,
        _now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        pressure: QueuePressure,
    ) -> SynDisposition {
        match flow.port % 3 {
            0 => {
                self.pending.push((flow, seg.seq));
                SynDisposition::Deferred
            }
            1 => SynDisposition::Inline,
            _ if pressure.any() => SynDisposition::Decline,
            _ => SynDisposition::Admit,
        }
    }

    fn answer_syn(
        &mut self,
        core: &mut ListenerCore<B>,
        _now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) {
        let isn = core.next_server_isn(flow);
        out.replies.push(bare_synack(flow, isn, seg.seq));
    }

    fn issue_flush(&mut self, core: &mut ListenerCore<B>, _now: SimTime, out: &mut ListenerOutput) {
        let flows: Vec<FlowKey> = self.pending.iter().map(|&(flow, _)| flow).collect();
        let mut isns = Vec::new();
        core.next_server_isn_batch(&flows, &mut isns);
        for ((flow, client_isn), isn) in self.pending.drain(..).zip(isns) {
            out.replies.push(bare_synack(flow, isn, client_isn));
        }
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

/// Everything two splits must agree on after a round. Replies are
/// compared in exact wire order (issuance order is part of the
/// contract); events as a multiset, because batched solution
/// verification emits `Established` at the flush — after collection-time
/// events for later segments — which is the verify pipeline's one
/// documented reordering. `issue_hashes` is named apart from `stats`
/// because the frozen `Debug` of `ListenerStats` leaves it out.
#[derive(Debug, PartialEq)]
struct Observed {
    replies: Vec<(Ipv4Addr, TcpSegment)>,
    events: Vec<String>,
    stats: tcpstack::ListenerStats,
    issue_hashes: u64,
    depths: (usize, usize),
    policy: PolicyStats,
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
        policy: l.policy_stats(),
    }
}

/// Feeds `segs` in consecutive batches whose sizes are `sizes`, cycled.
fn feed_split<B: HashBackend + 'static>(
    l: &mut Listener<B>,
    now: SimTime,
    segs: &[(Ipv4Addr, TcpSegment)],
    sizes: &[usize],
) -> Observed {
    let (mut replies, mut events) = (Vec::new(), Vec::new());
    let mut rest = segs;
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at(size.min(rest.len()));
        let out = l.on_segments(now, batch);
        replies.extend(out.replies);
        events.extend(out.events);
        rest = tail;
    }
    observe(l, replies, events)
}

/// Builds the second-round segments from the first round's replies: one
/// follow-up per port — a real solution when the last reply to that
/// port carried a challenge, a plain completion ACK otherwise. At most
/// one solution per flow keeps the round clear of the documented
/// same-run replay divergence between splits.
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

/// Runs the burst + completion rounds on one backend three ways — one
/// segment per call, batches of the drawn `sizes`, one `on_segments`
/// call per round — asserting after each round that the latter two
/// observe what the first did.
fn check_backend<B: HashBackend + Copy + 'static>(
    backend: B,
    policy_idx: usize,
    steps: &[Step],
    sizes: &[usize],
) -> Result<(), TestCaseError> {
    let policy: PolicyBuilder<B> = policy_under_test(policy_idx);
    let mut ones = mk_listener(backend, &policy);
    let mut split = mk_listener(backend, &policy);
    let mut whole = mk_listener(backend, &policy);
    let now = SimTime::from_secs(5);

    let segs: Vec<(Ipv4Addr, TcpSegment)> = steps.iter().map(|s| (CLIENT_IP, segment(s))).collect();

    // One by one, recording which SYN each reply answered so the
    // completion round can reconstruct challenges.
    let mut replies = Vec::new();
    let mut events = Vec::new();
    let mut per_port: BTreeMap<u16, (u32, TcpSegment)> = BTreeMap::new();
    for (step, (src, seg)) in steps.iter().zip(&segs) {
        let out = ones.on_segment(now, *src, seg);
        if let Step::Syn { port, isn, .. } = step {
            for (_, reply) in &out.replies {
                if reply.dst_port == *port && reply.flags.contains(TcpFlags::SYN) {
                    per_port.insert(*port, (*isn, reply.clone()));
                }
            }
        }
        replies.extend(out.replies);
        events.extend(out.events);
    }
    let expected = observe(&mut ones, replies, events);
    prop_assert_eq!(&expected, &feed_split(&mut split, now, &segs, sizes));
    prop_assert_eq!(
        &expected,
        &feed_split(&mut whole, now, &segs, &[segs.len()])
    );
    if policy_idx == STATELESS {
        // The near-stateless policy's defining property: an arbitrary
        // pre-proof burst — however many challenges it provokes — leaves
        // zero per-flow defence state, however it is split.
        prop_assert_eq!(expected.policy.state_bytes, 0);
    }

    // Completion round: solutions + handshake ACKs derived from the
    // (identical) round-1 replies, fed the same three ways.
    let later = now + SimDuration::from_millis(100);
    let segs2 = completion_round(&per_port);
    let expected = feed_split(&mut ones, later, &segs2, &[1]);
    prop_assert_eq!(&expected, &feed_split(&mut split, later, &segs2, sizes));
    prop_assert_eq!(
        &expected,
        &feed_split(&mut whole, later, &segs2, &[segs2.len()])
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any split of a segment sequence into consecutive batches is
    /// answered like any other, for every policy, on every backend.
    #[test]
    fn batch_boundaries_are_unobservable(
        policy_idx in 0usize..POLICIES,
        steps in prop::collection::vec(arb_step(), 1..40),
        sizes in prop::collection::vec(1usize..9, 1..8),
    ) {
        check_backend(ScalarBackend, policy_idx, &steps, &sizes)?;
        check_backend(MultiLaneBackend, policy_idx, &steps, &sizes)?;
        check_backend(auto_backend(), policy_idx, &steps, &sizes)?;
    }
}
