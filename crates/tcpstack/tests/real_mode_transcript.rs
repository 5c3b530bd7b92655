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
//!
//! A second script runs SYN cookies, the SYN cache and
//! `stacked[syncache+puzzles]` through the same harness to pin the
//! *order* in which one batch's replies are issued — every plain and
//! challenge SYN-ACK carries a server ISN drawn from one counter, so a
//! SYN acted on ahead of an earlier, still-deferred one changes bytes.
//! Its six digests were captured while `on_segment` and `on_segments`
//! were still separate code paths.
//!
//! A third set runs the first script under `VerifyMode::Oracle` — the
//! proofs minted as the simulator's keyed oracle proofs instead of
//! brute-forced — for classic puzzles (prefix and collide) and
//! stateless puzzles, with a tail that sends one proof bound to another
//! flow's tuple. Its six digests were captured while oracle verification
//! was still a second copy of the verify path inside the puzzle policy,
//! so they pin that the fold into `Verifier` moved no byte.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use netsim::{SimDuration, SimTime};
use puzzle_core::{
    oracle_proof, AlgoId, Challenge, ChallengeParams, Difficulty, ServerSecret, Solver,
};
use puzzle_crypto::{auto_backend, AutoBackend, HashBackend, ScalarBackend};
use tcpstack::listener::ListenerOutput;
use tcpstack::{
    FlowKey, ListenerConfig, PolicyBuilder, PuzzleConfig, SegmentBuilder, ShardedListener,
    SolutionOption, SynCacheConfig, TcpFlags, TcpOption, TcpSegment, VerifyMode,
};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const WINDOW_LEN: u32 = 8;
const SECRET: [u8; 32] = [0x5a; 32];

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

fn oracle_cfg(algo: AlgoId) -> PuzzleConfig {
    PuzzleConfig {
        verify: VerifyMode::Oracle,
        algo,
        ..puzzle_cfg()
    }
}

/// Where a run's proofs come from.
#[derive(Clone, Copy)]
enum Mint {
    /// Brute force with the real solver.
    Solver,
    /// The simulation oracle's keyed proofs.
    Oracle,
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
    mint: Mint,
    /// Per client port: `(client ISN, sent TCP timestamps, last SYN-ACK)`.
    flows: BTreeMap<u16, (u32, bool, Option<TcpSegment>)>,
    transcript: Vec<u8>,
}

impl Run {
    fn new(policy: &PolicyBuilder<AutoBackend>, feed: Feed, mint: Mint) -> Self {
        let mut cfg = ListenerConfig::new(SERVER_IP, 80);
        // One stateful half-open fills the listen queue (and later
        // retransmits from `poll`); every other SYN is challenged.
        cfg.backlog = 1;
        cfg.accept_backlog = 4;
        Run {
            listener: ShardedListener::with_policy(
                cfg,
                ServerSecret::from_bytes(SECRET),
                auto_backend(),
                policy,
                1,
            ),
            feed,
            mint,
            flows: BTreeMap::new(),
            transcript: Vec::new(),
        }
    }

    fn syn(&mut self, port: u16, ts: bool) -> TcpSegment {
        let isn = 0x1000_0000 + u32::from(port) * 7919;
        // A repeated SYN keeps the last answer: it may draw none.
        self.flows.entry(port).or_insert((isn, ts, None));
        let mut b = SegmentBuilder::new(port, 80)
            .seq(isn)
            .flags(TcpFlags::SYN)
            .mss(1200 + port % 300);
        if ts {
            b = b.timestamps(u32::from(port), 0);
        }
        b.build()
    }

    /// Solves the challenge last sent to `port` — really, or by minting
    /// oracle proofs — and builds the solution ACK, echoing the issue
    /// stamp the way a client does: in `tsecr` when the SYN carried
    /// timestamps, embedded otherwise.
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
        let mut proofs = match self.mint {
            Mint::Solver => Solver::new().solve(&challenge).solution.proofs().to_vec(),
            Mint::Oracle => (1..=copt.k)
                .map(|i| {
                    oracle_proof(
                        &ScalarBackend,
                        copt.algo,
                        &ServerSecret::from_bytes(SECRET),
                        &copt.preimage,
                        i,
                    )
                })
                .collect(),
        };
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

    /// `donor`'s valid solution ACK sent on `port`'s flow: the right
    /// stamp and length, proofs bound to another tuple.
    fn wrong_tuple(&self, port: u16, donor: u16) -> TcpSegment {
        let (isn, _, reply) = &self.flows[&port];
        let mut seg = self.solution(donor, Tamper::None);
        seg.src_port = port;
        seg.seq = isn.wrapping_add(1);
        seg.ack = reply
            .as_ref()
            .expect("flow was answered")
            .seq
            .wrapping_add(1);
        seg
    }

    /// Answers whatever SYN-ACK `port` last received the way a client
    /// does — a solution for a challenge, a plain ACK for a cookie,
    /// cache or stateful SYN-ACK, nothing for a SYN that drew no answer.
    fn complete(&self, port: u16) -> Option<TcpSegment> {
        let (isn, _, reply) = &self.flows[&port];
        let reply = reply.as_ref()?;
        if reply.challenge().is_some() {
            return Some(self.solution(port, Tamper::None));
        }
        Some(
            SegmentBuilder::new(port, 80)
                .seq(isn.wrapping_add(1))
                .ack_num(reply.seq.wrapping_add(1))
                .flags(TcpFlags::ACK)
                .payload(b"GET /gettext/64".to_vec())
                .build(),
        )
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
        let digest = ScalarBackend.sha256(&self.transcript);
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }
}

fn transcript_digest(policy: &PolicyBuilder<AutoBackend>, feed: Feed) -> String {
    let mut r = Run::new(policy, feed, Mint::Solver);
    transcript_script(&mut r);
    r.digest()
}

/// The first script under oracle proofs, then a tail: at t = 17 s two
/// fresh challenged SYNs, at t = 18 s 2015's proofs sent on 2014's flow
/// (a wrong tuple) ahead of 2015's own valid solution.
fn oracle_digest(policy: &PolicyBuilder<AutoBackend>, feed: Feed) -> String {
    let mut r = Run::new(policy, feed, Mint::Oracle);
    transcript_script(&mut r);
    let segs = vec![r.syn(2014, false), r.syn(2015, false)];
    r.round(17_000, segs);
    let segs = vec![r.wrong_tuple(2014, 2015), r.solution(2015, Tamper::None)];
    r.round(18_000, segs);
    r.digest()
}

fn transcript_script(r: &mut Run) {
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
}

/// The ordering script. Queues as above (one listen-queue slot, four
/// accept-queue slots); the SYN cache holds two entries for five
/// seconds. Per policy, what each step meets is noted as
/// cookies / cache / stacked.
fn ordering_digest(policy: &PolicyBuilder<AutoBackend>, feed: Feed) -> String {
    let mut r = Run::new(policy, feed, Mint::Solver);

    // t = 1 s, one batch. 1999 takes the listen-queue slot. 2000 and
    // 2001 draw cookies / fill the cache / fill the cache; from 2002 on
    // it is cookies / drops / challenges — under the stack the policy's
    // answer switches from immediate to deferred in mid-run. 1999's
    // duplicate SYN (a retransmitted SYN-ACK, no new ISN) lands inside
    // that deferred run, and 2000's second SYN comes from a flow that
    // already holds a cache entry.
    let segs = vec![
        r.syn(1999, true),
        r.syn(2000, true),
        r.syn(2001, false),
        r.syn(2002, true),
        r.syn(1999, true),
        r.syn(2003, false),
        r.syn(2000, true),
        r.syn(2004, true),
    ];
    r.round(1_000, segs);

    // t = 2 s. Everyone answers. Under the stack 2000 holds a cache
    // entry *and* was challenged since, so its solution-bearing ACK
    // takes the sequential `on_ack` route; 2001 promotes from the
    // cache; 2002..=2004 solve, and the fifth completion finds the
    // accept queue full. Then a SYN with both queues full: dropped /
    // cached (the bare cache established only two) / challenged.
    let mut segs: Vec<TcpSegment> = (2000..=2004).filter_map(|p| r.complete(p)).collect();
    segs.push(r.syn(2005, true));
    r.round(2_000, segs);

    // t = 3 s, after the application took two connections: the listen
    // queue alone is full. 2006 and 2007: cookies / one cached, one
    // dropped / one cached (2000's entry lingers), one challenged. An
    // RST drops 2006's cache entry in mid-run, so 2010 is cached where
    // 2007 was not. Then 1999 completes and frees the listen queue:
    // 2008 is admitted statefully and 2009 meets a full queue again —
    // except under the stack, where the puzzle layer's hold challenges
    // both.
    r.accept_and_close();
    r.accept_and_close();
    let mut segs = vec![
        r.syn(2006, false),
        r.syn(2007, true),
        SegmentBuilder::new(2006, 80).flags(TcpFlags::RST).build(),
        r.syn(2010, true),
    ];
    segs.extend(r.complete(1999));
    segs.push(r.syn(2008, true));
    segs.push(r.syn(2009, false));
    r.round(3_000, segs);

    // t = 7 s, accept queue emptied: cache entries made at t = 2 are at
    // their expiry instant (an ACK still promotes; the poll that
    // follows reaps), those made at t = 1 are past it. Five answers
    // for four accept-queue slots.
    while r.accept_and_close().is_some() {}
    let segs: Vec<TcpSegment> = [2010, 2005, 2007, 2008, 2009]
        .into_iter()
        .filter_map(|p| r.complete(p))
        .collect();
    r.round(7_000, segs);

    r.digest()
}

#[test]
fn ordering_transcripts_match_the_pinned_digests() {
    let cache = || {
        PolicyBuilder::syn_cache(SynCacheConfig {
            capacity: 2,
            lifetime: SimDuration::from_secs(5),
        })
    };
    let policies = [
        PolicyBuilder::syn_cookies(),
        cache(),
        PolicyBuilder::stacked(vec![cache(), PolicyBuilder::puzzles(puzzle_cfg())]),
    ];
    let actual: Vec<String> = policies
        .iter()
        .flat_map(|p| [Feed::Sequential, Feed::Batched].map(|feed| ordering_digest(p, feed)))
        .collect();
    let pinned = [
        "1787ba7324246b99dfa2abaa08c3f3ad6ec3a77b5d34521b849c03e62c0fe2aa",
        "1787ba7324246b99dfa2abaa08c3f3ad6ec3a77b5d34521b849c03e62c0fe2aa",
        "cce8cc833bacd53c87dd835adbd600dfc336ac573bb3d74281835091b1a9e37b",
        "cce8cc833bacd53c87dd835adbd600dfc336ac573bb3d74281835091b1a9e37b",
        "8d0c544a812c7364263d6e992dc09b617e57ddeefaf3f5958157548162fc6a97",
        "8d0c544a812c7364263d6e992dc09b617e57ddeefaf3f5958157548162fc6a97",
    ];
    assert_eq!(actual, pinned);
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

#[test]
fn oracle_mode_transcripts_match_the_pinned_digests() {
    let policies = [
        PolicyBuilder::puzzles(oracle_cfg(AlgoId::Prefix)),
        PolicyBuilder::puzzles(oracle_cfg(AlgoId::Collide)),
        PolicyBuilder::stateless_puzzles(oracle_cfg(AlgoId::Prefix), WINDOW_LEN),
    ];
    let actual: Vec<String> = policies
        .iter()
        .flat_map(|p| [Feed::Sequential, Feed::Batched].map(|feed| oracle_digest(p, feed)))
        .collect();
    let pinned = [
        "f53cc8bb0e687a130c367c34ea9cd682c3c6293270e9a9beb39b4d2e915feec1",
        "25e28bf8036bcd510b0f4494cc07d529fb803486a5a82db0ed5a891bd3538622",
        "cb70931ac454d9eb50d6148497b0d625875a0e32a8e93e8ed99bdd404b6de040",
        "718a6e8aec52febdf34a77d38064c10a1a67636815ef879c5c5f0bef64b02129",
        "96fe23fe5d2411ee023ef8989e59fc6587c68aec14de95024cb6d8c1a755b1bf",
        "0606657a695031da9b460a649eacfb74e1245fc31eb09ad56b68b6dff22da8c4",
    ];
    assert_eq!(actual, pinned);
}
