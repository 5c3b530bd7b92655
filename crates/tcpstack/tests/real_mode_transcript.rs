//! Pinned `VerifyMode::Real` transcripts of the two puzzle builders the
//! benchmark installs (`PolicyBuilder::puzzles`, `PolicyBuilder::
//! stateless_puzzles`), so a refactor of the puzzle policy can claim
//! "byte-for-byte" from `cargo test` alone: the golden runs only
//! exercise `VerifyMode::Oracle`, and the benchmark's `DIGEST` lines are
//! not part of tier-1.
//!
//! One fixed secret, one scripted clock, one segment script — SYNs with
//! and without TCP timestamps, valid / corrupted / short / one-proof /
//! future-dated / expired / replayed solution ACKs, challenges solved
//! one second either side of a window rollover, and the accept-queue
//! gate — fed once segment by segment (`on_segment`) and once round by
//! round (`on_segments`) through a one-shard `ShardedListener`. Every
//! reply's `encode()` bytes, every retransmission, the per-round
//! `ListenerStats` and the final `policy_stats()` go into one SHA-256.
//! The four digests below were captured before the three puzzle
//! policies were folded into one; they hold on every hash backend
//! (`PUZZLE_BACKEND=scalar|multilane|shani`).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use netsim::{SimDuration, SimTime};
use puzzle_core::{AlgoId, Challenge, ChallengeParams, Difficulty, ServerSecret, Solver};
use puzzle_crypto::{auto_backend, AutoBackend, HashBackend};
use tcpstack::listener::ListenerOutput;
use tcpstack::{
    FlowKey, ListenerConfig, PolicyBuilder, PuzzleConfig, SegmentBuilder, ShardedListener,
    SolutionOption, TcpFlags, TcpOption, TcpSegment, VerifyMode,
};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const WINDOW_LEN: u32 = 8;

fn puzzle_cfg() -> PuzzleConfig {
    PuzzleConfig {
        difficulty: Difficulty::new(2, 6).expect("valid"),
        preimage_bits: 32,
        expiry: 8,
        verify: VerifyMode::Real,
        hold: SimDuration::from_secs(30),
        verify_workers: 1,
        algo: AlgoId::Prefix,
    }
}

/// How a round reaches the listener.
#[derive(Clone, Copy)]
enum Feed {
    /// One `on_segment` call per segment.
    Sequential,
    /// One `on_segments` call per round.
    Batched,
}

/// What the script does to a solved challenge before sending it.
#[derive(Clone, Copy)]
enum Tamper {
    None,
    /// Flip one bit of the first proof.
    Corrupt,
    /// Drop the last byte of the solutions area.
    Short,
    /// Send one proof where two were asked for.
    OneProof,
    /// Echo a timestamp 100 units ahead of the issued one.
    Future,
}

struct Run {
    listener: ShardedListener<AutoBackend>,
    feed: Feed,
    /// Per client port: `(client ISN, sent TCP timestamps, last SYN-ACK)`.
    flows: BTreeMap<u16, (u32, bool, Option<TcpSegment>)>,
    transcript: Vec<u8>,
}

impl Run {
    fn new(policy: &PolicyBuilder<AutoBackend>, feed: Feed) -> Self {
        let mut cfg = ListenerConfig::new(SERVER_IP, 80);
        // One stateful half-open fills the listen queue (and later
        // retransmits from `poll`); every other SYN is challenged.
        cfg.backlog = 1;
        cfg.accept_backlog = 4;
        Run {
            listener: ShardedListener::with_policy(
                cfg,
                ServerSecret::from_bytes([0x5a; 32]),
                auto_backend(),
                policy,
                1,
            ),
            feed,
            flows: BTreeMap::new(),
            transcript: Vec::new(),
        }
    }

    fn syn(&mut self, port: u16, ts: bool) -> TcpSegment {
        let isn = 0x1000_0000 + u32::from(port) * 7919;
        self.flows.insert(port, (isn, ts, None));
        let mut b = SegmentBuilder::new(port, 80)
            .seq(isn)
            .flags(TcpFlags::SYN)
            .mss(1200 + port % 300);
        if ts {
            b = b.timestamps(u32::from(port), 0);
        }
        b.build()
    }

    /// Really solves the challenge last sent to `port` and builds the
    /// solution ACK, echoing the issue stamp the way a client does: in
    /// `tsecr` when the SYN carried timestamps, embedded otherwise.
    fn solution(&self, port: u16, tamper: Tamper) -> TcpSegment {
        let (isn, ts, reply) = &self.flows[&port];
        let reply = reply.as_ref().expect("flow was answered");
        let copt = reply.challenge().expect("flow was challenged");
        let issued = reply
            .timestamps()
            .map(|(tsval, _)| tsval)
            .or(copt.timestamp)
            .expect("challenge carries its issue stamp");
        let challenge = Challenge::from_wire(
            ChallengeParams {
                difficulty: Difficulty::new(copt.k, copt.m).expect("valid"),
                preimage_bits: copt.l_bits(),
                timestamp: issued,
            },
            copt.preimage.clone(),
        )
        .expect("consistent challenge");
        let mut proofs = Solver::new().solve(&challenge).solution.proofs().to_vec();
        let mut echoed = issued;
        match tamper {
            Tamper::None | Tamper::Short => {}
            Tamper::Corrupt => proofs[0][0] ^= 0x80,
            Tamper::OneProof => proofs.truncate(1),
            Tamper::Future => echoed += 100,
        }
        let mut sol = SolutionOption::build(1400, 7, &proofs, (!ts).then_some(echoed));
        if matches!(tamper, Tamper::Short) {
            sol.data.pop();
        }
        let mut b = SegmentBuilder::new(port, 80)
            .seq(isn.wrapping_add(1))
            .ack_num(reply.seq.wrapping_add(1))
            .flags(TcpFlags::ACK);
        if *ts {
            b = b.timestamps(u32::from(port) + 1, echoed);
        }
        b.option(TcpOption::Solution(sol))
            .payload(b"GET /gettext/64".to_vec())
            .build()
    }

    fn record(&mut self, out: &ListenerOutput) {
        for (dst, reply) in &out.replies {
            let bytes = reply.encode();
            self.transcript.extend_from_slice(&dst.octets());
            self.transcript
                .extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            self.transcript.extend_from_slice(&bytes);
            if reply.flags.contains(TcpFlags::SYN) {
                if let Some(flow) = self.flows.get_mut(&reply.dst_port) {
                    flow.2 = Some(reply.clone());
                }
            }
        }
    }

    /// Feeds one round at `millis` on the scripted clock, then polls
    /// (retransmissions, replay purge at window rollover).
    fn round(&mut self, millis: u64, segs: Vec<TcpSegment>) {
        let now = SimTime::ZERO + SimDuration::from_millis(millis);
        match self.feed {
            Feed::Sequential => {
                for seg in &segs {
                    let out = self.listener.on_segment(now, CLIENT_IP, seg);
                    self.record(&out);
                }
            }
            Feed::Batched => {
                let batch: Vec<_> = segs.into_iter().map(|s| (CLIENT_IP, s)).collect();
                let out = self.listener.on_segments(now, &batch);
                self.record(&out);
            }
        }
        for (_, retx) in self.listener.poll(now) {
            self.transcript.extend_from_slice(&retx.encode());
        }
        let stats = format!("@{millis} {:?}\n", self.listener.stats());
        self.transcript.extend_from_slice(stats.as_bytes());
    }

    /// The application takes the oldest connection and closes it, so a
    /// later segment of that flow reaches the policy again. Which flow
    /// it was goes into the transcript.
    fn accept_and_close(&mut self) -> Option<FlowKey> {
        let flow = self.listener.accept()?;
        self.listener.close(flow);
        self.transcript
            .extend_from_slice(format!("accept {flow:?}\n").as_bytes());
        Some(flow)
    }

    fn digest(mut self) -> String {
        let tail = format!(
            "{:?}\n{:?}\n",
            self.listener.stats(),
            self.listener.policy_stats()
        );
        self.transcript.extend_from_slice(tail.as_bytes());
        let digest = puzzle_crypto::ScalarBackend.sha256(&self.transcript);
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }
}

fn transcript_digest(policy: &PolicyBuilder<AutoBackend>, feed: Feed) -> String {
    let mut r = Run::new(policy, feed);

    // t = 1 s (window 0). Port 1999 takes the one listen-queue slot;
    // 2000..=2009 are challenged, alternating TCP timestamps on/off.
    // Then a bare ACK and a data ACK with no solution.
    let mut segs = vec![r.syn(1999, true)];
    segs.extend((2000..=2009).map(|p| r.syn(p, p % 2 == 0)));
    let stray = |port: u16, data: bool| {
        let mut b = SegmentBuilder::new(port, 80)
            .seq(5)
            .ack_num(9)
            .flags(TcpFlags::ACK);
        if data {
            b = b.payload(b"x".to_vec());
        }
        b.build()
    };
    segs.push(stray(3000, false));
    segs.push(stray(3001, true));
    r.round(1_000, segs);

    // t = 2 s. Two valid solutions (one stamp echoed, one embedded) and
    // every malformed kind.
    let segs = vec![
        r.solution(2000, Tamper::None),
        r.solution(2001, Tamper::None),
        r.solution(2002, Tamper::Corrupt),
        r.solution(2003, Tamper::Short),
        r.solution(2004, Tamper::OneProof),
        r.solution(2005, Tamper::Future),
    ];
    r.round(2_000, segs);

    // t = 3 s. The application takes 2000's connection and closes it;
    // the same solution again is a replay. 2002, 2003 and 2005 now
    // answer properly, filling the accept queue, so 2004's valid
    // solution meets the queue gate — and a SYN arriving then is still
    // challenged (§5). (The batched feed counts every unverified member
    // of a run as a presumptive admission, so there the gate closes two
    // flows earlier; both outcomes are pinned.)
    r.accept_and_close();
    let mut segs = vec![
        r.solution(2000, Tamper::None),
        r.solution(2002, Tamper::None),
        r.solution(2003, Tamper::None),
        r.solution(2005, Tamper::None),
        r.solution(2004, Tamper::None),
    ];
    segs.push(r.syn(2010, true));
    r.round(3_000, segs);

    // t = 7 s: the last second of window 0.
    let segs = vec![r.syn(2011, true), r.syn(2012, false)];
    r.round(7_000, segs);

    // t = 8 s: the first second of window 1. 2011 was issued one second
    // ago, in the previous window.
    r.accept_and_close();
    let segs = vec![r.solution(2011, Tamper::None)];
    r.round(8_000, segs);

    // t = 9 s. 2004 was issued at t = 1: age 8 is the last the clock
    // mode accepts, and window 0 is still the previous window.
    r.accept_and_close();
    let segs = vec![r.solution(2004, Tamper::None)];
    r.round(9_000, segs);

    // t = 10 s. 2006 (issued t = 1) is one second past the clock mode's
    // expiry but still inside the window mode's acceptance window.
    r.accept_and_close();
    let segs = vec![r.solution(2006, Tamper::None)];
    r.round(10_000, segs);

    // t = 15 s: the last second of window 1.
    let segs = vec![r.syn(2013, false)];
    r.round(15_000, segs);

    // t = 16 s: window 2. 2012 (issued t = 7, window 0) has expired in
    // both modes; 2013 (issued a second ago) has not.
    while r.accept_and_close().is_some() {}
    let segs = vec![
        r.solution(2012, Tamper::None),
        r.solution(2013, Tamper::None),
    ];
    r.round(16_000, segs);

    r.digest()
}

#[test]
fn real_mode_transcripts_match_the_pinned_digests() {
    let puzzles = PolicyBuilder::puzzles(puzzle_cfg());
    let stateless = PolicyBuilder::stateless_puzzles(puzzle_cfg(), WINDOW_LEN);
    let actual = [
        transcript_digest(&puzzles, Feed::Sequential),
        transcript_digest(&puzzles, Feed::Batched),
        transcript_digest(&stateless, Feed::Sequential),
        transcript_digest(&stateless, Feed::Batched),
    ];
    let pinned = [
        "e723b04ac004253123954ccaf578508662976ddbc4b37b6812141057b049806b",
        "6951a1b0d6b2b0b9e637b24e8636440b567b1d7a686f775258dd30bd702181a0",
        "2d842695dd5310114695558072b3332d4b3db9793a996dd2c62bc986c68d9240",
        "f89d77f96c226c500e2084851ce7dcab9eba385d02629148cd6147b063736f00",
    ];
    assert_eq!(actual, pinned);
}
