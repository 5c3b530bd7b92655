//! The closed difficulty loop may only be built over a range it can
//! issue at every step of: `m` must stay below the pre-image length all
//! the way up to the controller's *ceiling*, not just at its floor. A
//! range that outgrows the pre-image used to pass construction and then
//! trip the issue path's "validated at config time" `expect` once a
//! solving flood had escalated far enough — a panic an attacker could
//! reach by paying for a few rounds of puzzles.

use std::net::Ipv4Addr;

use netsim::{SimDuration, SimTime};
use puzzle_core::{Challenge, ChallengeParams, Difficulty, ServerSecret, Solver};
use puzzle_crypto::ScalarBackend;
use tcpstack::adaptive::AdaptiveDifficulty;
use tcpstack::{
    Listener, ListenerConfig, PolicyBuilder, PuzzleConfig, SegmentBuilder, SolutionOption,
    TcpFlags, TcpOption,
};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// A listener that challenges every SYN, under a controller that
/// escalates on any period with a puzzle admission.
fn adaptive_listener(preimage_bits: u16, floor_m: u8, ceiling_m: u8) -> Listener {
    let controller = AdaptiveDifficulty::new(
        Difficulty::new(1, floor_m).expect("valid"),
        Difficulty::new(1, ceiling_m).expect("valid"),
        0.5,
        100,
    )
    .expect("valid range");
    // Real verification of the prefix puzzle, as by default.
    let cfg = PuzzleConfig {
        preimage_bits,
        ..PuzzleConfig::default()
    };
    let mut listener_cfg = ListenerConfig::new(SERVER_IP, 80);
    listener_cfg.backlog = 0;
    Listener::with_policy(
        listener_cfg,
        ServerSecret::from_bytes([7; 32]),
        ScalarBackend,
        &PolicyBuilder::adaptive_puzzles(cfg, controller),
    )
}

/// One solving client per second: SYN, solve the challenge, ACK, then
/// the application takes the connection and the controller observes.
/// Returns the `m` each challenge was posed at.
fn solving_flood(listener: &mut Listener, seconds: u64) -> Vec<u8> {
    let mut posed = Vec::new();
    for sec in 1..=seconds {
        let now = SimTime::from_secs(sec);
        let port = 2000 + sec as u16;
        let isn = 77 * sec as u32;
        let syn = SegmentBuilder::new(port, 80)
            .seq(isn)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .timestamps(1, 0)
            .build();
        let out = listener.on_segment(now, CLIENT_IP, &syn);
        let synack = &out.replies[0].1;
        let copt = synack.challenge().expect("every SYN is challenged");
        posed.push(copt.m);
        let (issued, _) = synack.timestamps().expect("stamp travels in tsval");
        let challenge = Challenge::from_wire(
            ChallengeParams {
                difficulty: Difficulty::new(copt.k, copt.m).expect("valid"),
                preimage_bits: copt.l_bits(),
                timestamp: issued,
            },
            copt.preimage.clone(),
        )
        .expect("consistent challenge");
        let proofs = Solver::new().solve(&challenge).solution;
        let ack = SegmentBuilder::new(port, 80)
            .seq(isn.wrapping_add(1))
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .timestamps(2, issued)
            .option(TcpOption::Solution(SolutionOption::build(
                1460,
                7,
                proofs.proofs(),
                None,
            )))
            .build();
        listener.on_segment(now, CLIENT_IP, &ack);
        assert!(
            listener.accept().is_some(),
            "solution at m={} admits",
            copt.m
        );
        listener.poll(now + SimDuration::from_millis(500));
    }
    posed
}

#[test]
#[should_panic(expected = "invalid PuzzleConfig: preimage_bits incompatible with difficulty")]
fn ceiling_beyond_the_preimage_is_rejected_at_build_time() {
    // The floor (m = 8) fits a 16-bit pre-image; the ceiling (m = 20)
    // does not.
    adaptive_listener(16, 8, 20);
}

#[test]
fn a_valid_ceiling_is_reached_and_held_under_a_solving_flood() {
    // m = 15 is the hardest a 16-bit pre-image admits.
    let mut listener = adaptive_listener(16, 11, 15);
    let posed = solving_flood(&mut listener, 8);
    assert_eq!(posed, [11, 12, 13, 14, 15, 15, 15, 15]);
    assert_eq!(
        listener.policy_stats().difficulty,
        Some(Difficulty::new(1, 15).expect("valid"))
    );
}
