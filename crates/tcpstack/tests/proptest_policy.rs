//! Property: a [`Stacked`] pipeline of one layer behaves *identically*
//! to that layer installed bare — same replies, same events, same
//! counters, same queue depths — under arbitrary interleavings of SYNs,
//! handshake completions, forged ACKs, real puzzle solutions, data,
//! RSTs, polls, and accepts, for every built-in policy.
//!
//! This is the composition law that makes `Stacked` safe to use as the
//! default composition operator: wrapping adds nothing and removes
//! nothing. (`on_segment` is a batch of one through the loop behind
//! `on_segments`; that batch boundaries change nothing is
//! `proptest_issue.rs`.) It runs over all five puzzle builders — the
//! cells of `PuzzleDefense`'s nonce source × difficulty source table —
//! which must also hold no per-flow state and report `PolicyStats` as
//! the three separate policies they replaced did.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use puzzle_core::{AlgoId, Challenge, ChallengeParams, Difficulty, ServerSecret, Solver};
use tcpstack::adaptive::AdaptiveDifficulty;
use tcpstack::{
    FlowKey, Listener, ListenerConfig, PolicyBuilder, PuzzleConfig, SegmentBuilder, SolutionOption,
    SynCacheConfig, TcpFlags, TcpOption, TcpSegment, VerifyMode,
};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const CLIENTS: usize = 3;

fn client_port(client: usize) -> u16 {
    1000 + client as u16
}

/// One step of the randomized protocol script.
#[derive(Clone, Debug)]
enum Action {
    /// A fresh (or duplicate) SYN from `client` with sequence `isn`.
    Syn { client: usize, isn: u32 },
    /// ACK completing the client's last SYN-ACK (correct ack number).
    CompleteAck { client: usize, with_data: bool },
    /// ACK with a forged ack number (and optionally data → RST path).
    ForgedAck { client: usize, with_data: bool },
    /// Really solve the client's last challenge and send the solution.
    Solve { client: usize },
    /// RST from the client (clears listener and policy flow state).
    Rst { client: usize },
    /// Advance time and drive retransmits + the policy tick.
    Poll { millis: u64 },
    /// Application accepts the oldest established connection.
    Accept,
}

fn arb_action() -> impl Strategy<Value = Action> {
    let client = 0usize..CLIENTS;
    prop_oneof![
        (client.clone(), any::<u32>()).prop_map(|(client, isn)| Action::Syn { client, isn }),
        (client.clone(), any::<bool>())
            .prop_map(|(client, with_data)| Action::CompleteAck { client, with_data }),
        (client.clone(), any::<bool>())
            .prop_map(|(client, with_data)| Action::ForgedAck { client, with_data }),
        client.clone().prop_map(|client| Action::Solve { client }),
        client.prop_map(|client| Action::Rst { client }),
        (50u64..3000).prop_map(|millis| Action::Poll { millis }),
        Just(Action::Accept),
    ]
}

/// Number of policies under test; the puzzle builders start at
/// [`FIRST_PUZZLE`].
const POLICIES: usize = 8;
const FIRST_PUZZLE: usize = 3;
const ADAPTIVE: usize = 7;
/// The closed loop's range: `m` moves between these, `k` stays 1.
const ADAPTIVE_M: (u8, u8) = (3, 6);

/// Tiny real difficulty so `Solve` is instant; a short hold so the
/// latch releases within a script.
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

/// The policies under test. Small queues so pressure, latch, overflow,
/// cache-full, and expiry paths all trigger within a short script. A
/// two-second window rolls over a few times per script; an adaptive
/// target below one admission per period makes every proof escalate.
fn policy_under_test(idx: usize) -> PolicyBuilder<puzzle_crypto::ScalarBackend> {
    match idx {
        0 => PolicyBuilder::none(),
        1 => PolicyBuilder::syn_cookies(),
        2 => PolicyBuilder::syn_cache(SynCacheConfig {
            capacity: 2,
            lifetime: SimDuration::from_secs(2),
        }),
        3 => PolicyBuilder::puzzles(puzzle_cfg(AlgoId::Prefix)),
        4 => PolicyBuilder::puzzles(puzzle_cfg(AlgoId::Collide)),
        5 => PolicyBuilder::stateless_puzzles(puzzle_cfg(AlgoId::Prefix), 2),
        6 => PolicyBuilder::stateless_puzzles(puzzle_cfg(AlgoId::Collide), 2),
        _ => PolicyBuilder::adaptive_puzzles(
            puzzle_cfg(AlgoId::Prefix),
            AdaptiveDifficulty::new(
                Difficulty::new(1, ADAPTIVE_M.0).expect("valid"),
                Difficulty::new(1, ADAPTIVE_M.1).expect("valid"),
                0.5,
                2,
            )
            .expect("valid range"),
        ),
    }
}

/// Drives one listener through the script, folding every observable —
/// replies, events, queue depths, cache occupancy, final counters —
/// into a transcript string.
struct Driver {
    listener: Listener,
    now: SimTime,
    /// Per client: ISN of its last SYN.
    last_isn: [u32; CLIENTS],
    /// Per client: the last SYN-ACK-ish reply addressed to it.
    last_reply: [Option<TcpSegment>; CLIENTS],
    log: String,
}

impl Driver {
    fn new(policy: PolicyBuilder<puzzle_crypto::ScalarBackend>) -> Self {
        let mut cfg = ListenerConfig::new(SERVER_IP, 80);
        cfg.backlog = 1;
        cfg.accept_backlog = 2;
        Driver {
            listener: Listener::with_policy(
                cfg,
                ServerSecret::from_bytes([7; 32]),
                puzzle_crypto::ScalarBackend,
                &policy,
            ),
            now: SimTime::ZERO,
            last_isn: [0; CLIENTS],
            last_reply: [None, None, None],
            log: String::new(),
        }
    }

    fn feed(&mut self, client: usize, seg: TcpSegment) {
        let out = self.listener.on_segment(self.now, CLIENT_IP, &seg);
        for (dst, reply) in &out.replies {
            let _ = writeln!(self.log, "reply {dst} {reply:?}");
            // Track the latest handshake reply per client for
            // completion/solving actions.
            for (c, slot) in self.last_reply.iter_mut().enumerate() {
                if reply.dst_port == client_port(c) && reply.flags.contains(TcpFlags::SYN) {
                    *slot = Some(reply.clone());
                }
            }
        }
        for ev in &out.events {
            let _ = writeln!(self.log, "event {ev:?}");
        }
        let _ = writeln!(
            self.log,
            "after[{client}] depths={:?} cache={}",
            self.listener.queue_depths(),
            self.listener.syn_cache_len()
        );
    }

    fn step(&mut self, action: &Action) {
        self.now += SimDuration::from_millis(100);
        match *action {
            Action::Syn { client, isn } => {
                self.last_isn[client] = isn;
                let seg = SegmentBuilder::new(client_port(client), 80)
                    .seq(isn)
                    .flags(TcpFlags::SYN)
                    .mss(1460)
                    .timestamps(1, 0)
                    .build();
                self.feed(client, seg);
            }
            Action::CompleteAck { client, with_data } => {
                let Some(reply) = self.last_reply[client].clone() else {
                    return;
                };
                let mut b = SegmentBuilder::new(client_port(client), 80)
                    .seq(self.last_isn[client].wrapping_add(1))
                    .ack_num(reply.seq.wrapping_add(1))
                    .flags(TcpFlags::ACK);
                if with_data {
                    b = b.payload(b"GET /gettext/64".to_vec());
                }
                self.feed(client, b.build());
            }
            Action::ForgedAck { client, with_data } => {
                let mut b = SegmentBuilder::new(client_port(client), 80)
                    .seq(self.last_isn[client].wrapping_add(1))
                    .ack_num(0xdead_beef)
                    .flags(TcpFlags::ACK);
                if with_data {
                    b = b.payload(b"GET /gettext/64".to_vec());
                }
                self.feed(client, b.build());
            }
            Action::Solve { client } => {
                let Some(reply) = self.last_reply[client].clone() else {
                    return;
                };
                let Some(copt) = reply.challenge() else {
                    return;
                };
                let issued = reply
                    .timestamps()
                    .map(|(tsval, _)| tsval)
                    .or(copt.timestamp)
                    .unwrap_or(0);
                let client_isn = self.last_isn[client];
                // Solve exactly what arrived on the wire, as a client
                // does: a window-bound pre-image cannot be recomputed
                // without the server's nonce. A challenge gone stale
                // (new SYN, retuned difficulty) is the server's to
                // reject.
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
                let seg = SegmentBuilder::new(client_port(client), 80)
                    .seq(client_isn.wrapping_add(1))
                    .ack_num(reply.seq.wrapping_add(1))
                    .flags(TcpFlags::ACK)
                    .timestamps(2, issued)
                    .option(TcpOption::Solution(sol))
                    .build();
                self.feed(client, seg);
            }
            Action::Rst { client } => {
                let seg = SegmentBuilder::new(client_port(client), 80)
                    .flags(TcpFlags::RST)
                    .build();
                self.feed(client, seg);
            }
            Action::Poll { millis } => {
                self.now += SimDuration::from_millis(millis);
                let retx = self.listener.poll(self.now);
                for (dst, reply) in &retx {
                    let _ = writeln!(self.log, "retx {dst} {reply:?}");
                }
                let _ = writeln!(
                    self.log,
                    "poll depths={:?} cache={}",
                    self.listener.queue_depths(),
                    self.listener.syn_cache_len()
                );
            }
            Action::Accept => {
                let flow = self.listener.accept();
                let _ = writeln!(self.log, "accept {flow:?}");
            }
        }
    }

    /// What every puzzle builder must report, as the three separate
    /// policies did: the closed-loop flag only on `adaptive`; the
    /// configured difficulty, or one inside the controller's range; no
    /// per-flow state for any flow, before or after a proof; and as
    /// retained bytes nothing but one replay admission per verified
    /// solution — so none at all before the first valid proof.
    fn check_puzzle_stats(&self, idx: usize) {
        let ps = self.listener.policy_stats();
        assert_eq!(ps.adaptive, idx == ADAPTIVE);
        let d = ps.difficulty.expect("puzzle policies report a difficulty");
        if idx == ADAPTIVE {
            assert_eq!(d.k(), 1);
            assert!(
                (ADAPTIVE_M.0..=ADAPTIVE_M.1).contains(&d.m()),
                "m = {}",
                d.m()
            );
        } else {
            assert_eq!(d, Difficulty::new(1, 4).expect("valid"));
        }
        for client in 0..CLIENTS {
            let flow = FlowKey {
                addr: CLIENT_IP,
                port: client_port(client),
            };
            assert!(!self.listener.policy_has_flow_state(&flow));
        }
        let admission = std::mem::size_of::<(u128, u32)>();
        let proofs = self.listener.stats().established_puzzle as usize;
        assert_eq!(ps.state_bytes % admission, 0);
        assert!(ps.state_bytes <= proofs * admission);
    }

    fn finish(mut self) -> String {
        let _ = writeln!(self.log, "stats {:?}", self.listener.stats());
        let _ = writeln!(self.log, "policy_stats {:?}", self.listener.policy_stats());
        self.log
    }
}

fn transcript(idx: usize, stacked: bool, actions: &[Action]) -> String {
    let mut policy = policy_under_test(idx);
    if stacked {
        policy = PolicyBuilder::stacked(vec![policy]);
    }
    let mut d = Driver::new(policy);
    for a in actions {
        d.step(a);
        if idx >= FIRST_PUZZLE {
            d.check_puzzle_stats(idx);
        }
    }
    d.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Stacked([X])` ≡ `X` for every built-in policy, over arbitrary
    /// protocol scripts.
    #[test]
    fn stacking_one_layer_changes_nothing(
        policy_idx in 0usize..POLICIES,
        actions in prop::collection::vec(arb_action(), 1..50),
    ) {
        let bare = transcript(policy_idx, false, &actions);
        prop_assert_eq!(&bare, &transcript(policy_idx, true, &actions));
    }
}
