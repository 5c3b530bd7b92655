//! `VerifyMode::Oracle` swaps only the per-proof predicate inside the
//! puzzle verifier, so a listener checking oracle proofs decides and
//! charges every solution ACK whose proof bytes are not at stake exactly
//! like one checking real proofs. These are the two inputs on which a
//! separate oracle copy of the check inside the puzzle policy once
//! drifted from the real path:
//!
//! * two identical solution ACKs in one `on_segments` batch — the copy
//!   answered the second from the replay cache for free, where the batch
//!   engine verifies both and lets the second lose at admission;
//! * a degenerate collide pair (`a == b`) — the copy never ran the
//!   structural check and spent three hashes to reject it.

use std::net::Ipv4Addr;

use netsim::{SimDuration, SimTime};
use puzzle_core::{
    oracle_proof, AlgoId, Challenge, ChallengeParams, Difficulty, ServerSecret, Solver, VerifyError,
};
use puzzle_crypto::ScalarBackend;
use tcpstack::{
    Listener, ListenerConfig, ListenerEvent, PolicyBuilder, PuzzleConfig, SegmentBuilder,
    SolutionOption, TcpFlags, TcpOption, TcpSegment, VerifyMode,
};

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const SECRET: [u8; 32] = [0x3c; 32];
const PORT: u16 = 2000;
const ISN: u32 = 500;

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// A puzzle listener that challenges every SYN (`backlog = 0`).
fn listener(verify: VerifyMode, algo: AlgoId) -> Listener<ScalarBackend> {
    let mut cfg = ListenerConfig::new(Ipv4Addr::new(10, 0, 0, 1), 80);
    cfg.backlog = 0;
    cfg.accept_backlog = 4;
    let puzzles = PuzzleConfig {
        difficulty: Difficulty::new(2, 6).expect("valid"),
        preimage_bits: 32,
        expiry: 8,
        verify,
        hold: SimDuration::from_secs(30),
        verify_workers: 1,
        algo,
    };
    Listener::with_policy(
        cfg,
        ServerSecret::from_bytes(SECRET),
        ScalarBackend,
        &PolicyBuilder::puzzles(puzzles),
    )
}

/// Sends a SYN at t = 1 s and returns the challenge SYN-ACK.
fn challenge(l: &mut Listener<ScalarBackend>) -> TcpSegment {
    let syn = SegmentBuilder::new(PORT, 80)
        .seq(ISN)
        .flags(TcpFlags::SYN)
        .mss(1400)
        .timestamps(1, 0)
        .build();
    let out = l.on_segment(at(1), CLIENT_IP, &syn);
    out.replies[0].1.clone()
}

/// The honest proofs for `reply`'s challenge: brute-forced under
/// `Real`, minted by the oracle under `Oracle`.
fn honest_proofs(verify: VerifyMode, reply: &TcpSegment) -> Vec<Vec<u8>> {
    let copt = reply.challenge().expect("flow was challenged");
    match verify {
        VerifyMode::Real => {
            let params = ChallengeParams {
                difficulty: Difficulty::new(copt.k, copt.m).expect("valid"),
                preimage_bits: copt.l_bits(),
                timestamp: reply.timestamps().expect("TS echoed").0,
            };
            let challenge = Challenge::from_wire(params, copt.preimage.clone()).expect("valid");
            let solved = Solver::new().with_algo(copt.algo).solve(&challenge);
            solved.solution.into_proofs()
        }
        VerifyMode::Oracle => {
            let secret = ServerSecret::from_bytes(SECRET);
            (1..=copt.k)
                .map(|i| oracle_proof(&ScalarBackend, copt.algo, &secret, &copt.preimage, i))
                .collect()
        }
    }
}

/// The solution ACK answering `reply` with `proofs`.
fn solution_ack(reply: &TcpSegment, proofs: &[Vec<u8>]) -> TcpSegment {
    let issued = reply.timestamps().expect("TS echoed").0;
    SegmentBuilder::new(PORT, 80)
        .seq(ISN + 1)
        .ack_num(reply.seq.wrapping_add(1))
        .flags(TcpFlags::ACK)
        .timestamps(2, issued)
        .option(TcpOption::Solution(SolutionOption::build(
            1400, 7, proofs, None,
        )))
        .build()
}

/// Two copies of one honest solution ACK in a single batch: events and
/// `verify_hashes`.
fn duplicate_in_batch(verify: VerifyMode) -> (Vec<ListenerEvent>, u64) {
    let mut l = listener(verify, AlgoId::Prefix);
    let reply = challenge(&mut l);
    let ack = solution_ack(&reply, &honest_proofs(verify, &reply));
    let out = l.on_segments(at(2), &[(CLIENT_IP, ack.clone()), (CLIENT_IP, ack)]);
    (out.events, l.stats().verify_hashes)
}

#[test]
fn duplicate_solutions_in_one_batch_cost_the_same_under_both_modes() {
    let real = duplicate_in_batch(VerifyMode::Real);
    let oracle = duplicate_in_batch(VerifyMode::Oracle);
    // Both copies are verified (1 pre-image + k = 2 proofs each); the
    // second loses at admission.
    assert_eq!(real.1, 6);
    assert_eq!(oracle, real);
    assert!(matches!(
        oracle.0.as_slice(),
        [
            ListenerEvent::Established { .. },
            ListenerEvent::SolutionRejected {
                reason: VerifyError::Replayed,
                ..
            }
        ]
    ));
}

#[test]
fn degenerate_collide_pair_is_rejected_for_free_under_both_modes() {
    for verify in [VerifyMode::Real, VerifyMode::Oracle] {
        let mut l = listener(verify, AlgoId::Collide);
        let reply = challenge(&mut l);
        let mut proofs = honest_proofs(verify, &reply);
        let (a, b) = proofs[0].split_at_mut(4);
        b.copy_from_slice(a);
        let out = l.on_segment(at(2), CLIENT_IP, &solution_ack(&reply, &proofs));
        assert!(
            matches!(
                out.events.as_slice(),
                [ListenerEvent::SolutionRejected {
                    reason: VerifyError::Invalid { index: 0 },
                    ..
                }]
            ),
            "{verify:?}: {:?}",
            out.events
        );
        assert_eq!(l.stats().verify_hashes, 0, "{verify:?}");
    }
}
