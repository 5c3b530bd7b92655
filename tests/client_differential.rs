//! One client, three hosts: the same scripted server segments, fed to a
//! `tcpstack::ClientConn` and to one-flow `BotFleet` and `ClientFleet`
//! nodes (through `netsim::harness::NodeHarness`), must draw
//! byte-identical client segments.
//!
//! The reference side drives `ClientConn` the way each fleet behaves:
//! a solving host answers a challenge with `provide_solution`, a
//! non-solving one with `acknowledge_plain`, and a `ClientFleet` sends
//! its request right behind the completing ACK. The solve itself (the
//! proofs and how long they took) is the host's cost model, not the
//! protocol, so the reference takes both from the fleet's solution ACK.
//!
//! One difference is by design and asserted as such: a `BotFleet` never
//! retransmits its SYN (the flood tools it models reap an attempt at
//! their connection timeout instead), so on the retransmit timeline it
//! sends the first SYN only.

use std::net::Ipv4Addr;

use tcp_puzzles::hostsim::fleet::{flow_addr, flow_port};
use tcp_puzzles::hostsim::{
    BotFleet, BotFleetParams, ClientFleet, ClientFleetParams, FleetAttack, SolveBehavior,
    SolveStrategy,
};
use tcp_puzzles::netsim::harness::NodeHarness;
use tcp_puzzles::netsim::{Node, Packet, SimDuration, SimTime};
use tcp_puzzles::puzzle_core::AlgoId;
use tcp_puzzles::tcpstack::{
    ChallengeOption, ClientConfig, ClientConn, ClientEvent, SegmentBuilder, TcpFlags, TcpOption,
    TcpSegment,
};

const FLEET_BASE: Ipv4Addr = Ipv4Addr::new(10, 64, 0, 0);
const SERVER: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
const SERVER_PORT: u16 = 80;
const SERVER_ISN: u32 = 9_000;
const REQUEST_SIZE: usize = 1_000;
/// Every script ends this long after the first SYN: past the last SYN
/// retransmission (1 + 2 + 4 s) and the give-up at 15 s.
const SCRIPT_END: SimDuration = SimDuration::from_secs(20);

/// One client segment on the wire: when, from where, to where, bytes.
type Sent = (SimTime, Ipv4Addr, Ipv4Addr, Vec<u8>);

fn sent(at: SimTime, pkt: &Packet<TcpSegment>) -> Sent {
    (at, pkt.src, pkt.dst, pkt.payload.encode())
}

/// A server segment to the client, built from the client's ISN.
type Make = fn(u32) -> TcpSegment;

/// A script: server segments at offsets from the client's first SYN.
struct Script {
    name: &'static str,
    steps: Vec<(SimDuration, Make)>,
}

fn to_client() -> SegmentBuilder {
    SegmentBuilder::new(SERVER_PORT, flow_port(0))
}

fn challenge(timestamp: Option<u32>) -> TcpOption {
    TcpOption::Challenge(ChallengeOption {
        k: 1,
        m: 4,
        preimage: vec![1, 2, 3, 4],
        timestamp,
        algo: AlgoId::Prefix,
    })
}

fn plain_synack(isn: u32) -> TcpSegment {
    to_client()
        .seq(SERVER_ISN)
        .ack_num(isn.wrapping_add(1))
        .flags(TcpFlags::SYN | TcpFlags::ACK)
        .mss(1460)
        .timestamps(4_242, 0)
        .build()
}

fn challenge_ts_synack(isn: u32) -> TcpSegment {
    to_client()
        .seq(SERVER_ISN)
        .ack_num(isn.wrapping_add(1))
        .flags(TcpFlags::SYN | TcpFlags::ACK)
        .mss(1460)
        .timestamps(55, 0)
        .option(challenge(None))
        .build()
}

fn challenge_embedded_synack(isn: u32) -> TcpSegment {
    to_client()
        .seq(SERVER_ISN)
        .ack_num(isn.wrapping_add(1))
        .flags(TcpFlags::SYN | TcpFlags::ACK)
        .mss(1460)
        .option(challenge(Some(77)))
        .build()
}

fn wrong_ack_synack(isn: u32) -> TcpSegment {
    to_client()
        .seq(SERVER_ISN)
        .ack_num(isn.wrapping_add(2))
        .flags(TcpFlags::SYN | TcpFlags::ACK)
        .build()
}

fn data(isn: u32) -> TcpSegment {
    to_client()
        .seq(SERVER_ISN.wrapping_add(1))
        .ack_num(isn.wrapping_add(1))
        .flags(TcpFlags::ACK)
        .payload(vec![b'x'; 600])
        .build()
}

fn data_fin(isn: u32) -> TcpSegment {
    to_client()
        .seq(SERVER_ISN.wrapping_add(601))
        .ack_num(isn.wrapping_add(1))
        .flags(TcpFlags::ACK | TcpFlags::PSH | TcpFlags::FIN)
        .payload(vec![b'x'; 400])
        .build()
}

fn rst(isn: u32) -> TcpSegment {
    to_client()
        .seq(SERVER_ISN.wrapping_add(1))
        .ack_num(isn.wrapping_add(1))
        .flags(TcpFlags::RST)
        .build()
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn scripts() -> Vec<Script> {
    vec![
        Script {
            name: "plain, data, data+FIN",
            steps: vec![
                (ms(100), plain_synack),
                (ms(300), data),
                (ms(400), data_fin),
            ],
        },
        Script {
            name: "challenge with TS option, data+FIN",
            steps: vec![(ms(100), challenge_ts_synack), (ms(2_000), data_fin)],
        },
        Script {
            name: "challenge with embedded timestamp, data+FIN",
            steps: vec![(ms(100), challenge_embedded_synack), (ms(2_000), data_fin)],
        },
        Script {
            name: "wrong ACK number ignored, then plain",
            steps: vec![(ms(100), wrong_ack_synack), (ms(200), plain_synack)],
        },
        Script {
            name: "plain, then RST",
            steps: vec![(ms(100), plain_synack), (ms(500), rst)],
        },
        Script {
            name: "RST in SYN-SENT",
            steps: vec![(ms(100), rst)],
        },
        Script {
            name: "no answer: SYN retransmissions, then give up",
            steps: vec![],
        },
    ]
}

/// How a host answers the handshake.
#[derive(Clone, Copy, Debug)]
struct Behavior {
    solves: bool,
    sends_request: bool,
    retransmits: bool,
}

/// Runs `script` against a one-flow fleet node. Returns what it sent,
/// timed by the harness clock.
fn run_fleet<N: Node<TcpSegment>>(node: &mut N, script: &Script, seed: u64) -> Vec<Sent> {
    let mut h: NodeHarness<TcpSegment> = NodeHarness::new(seed);
    let mut out = Vec::new();
    fn drain(h: &mut NodeHarness<TcpSegment>, out: &mut Vec<Sent>) {
        let now = h.now();
        out.extend(h.drain_outbox().map(|p| sent(now, &p)));
    }
    fn step_until<N: Node<TcpSegment>>(
        h: &mut NodeHarness<TcpSegment>,
        node: &mut N,
        to: SimTime,
        out: &mut Vec<Sent>,
    ) {
        while let Some(at) = h.next_timer_at().filter(|&at| at <= to) {
            h.advance_to(node, at);
            drain(h, out);
        }
        h.advance_to(node, to);
    }
    h.start(node);
    while out.is_empty() {
        let at = h.next_timer_at().expect("the fleet arms its first send");
        h.advance_to(node, at);
        drain(&mut h, &mut out);
    }
    let (t0, isn) = (out[0].0, first_syn(&out).seq);
    let mut at = t0;
    for &(offset, make) in &script.steps {
        at += offset;
        step_until(&mut h, node, at, &mut out);
        h.deliver(
            node,
            Packet::new(SERVER, flow_addr(FLEET_BASE, 0), make(isn)),
        );
        drain(&mut h, &mut out);
    }
    step_until(&mut h, node, t0 + SCRIPT_END, &mut out);
    out
}

fn first_syn(trace: &[Sent]) -> TcpSegment {
    let syn = TcpSegment::decode(&trace[0].3).expect("fleet segments decode");
    assert!(syn.flags.contains(TcpFlags::SYN), "a flow opens with a SYN");
    syn
}

/// Runs `script` against a `ClientConn` driven like a host with
/// `behavior`, starting from the fleet's first SYN. Proofs and solve
/// completion time come from the fleet's solution ACK, if it sent one.
fn run_reference(script: &Script, behavior: Behavior, fleet: &[Sent]) -> Vec<Sent> {
    let (t0, isn) = (fleet[0].0, first_syn(fleet).seq);
    let src = flow_addr(FLEET_BASE, 0);
    let cfg = ClientConfig::new(src, flow_port(0), SERVER, SERVER_PORT);
    let (mut conn, syn) = ClientConn::connect(cfg, isn, t0);
    let mut out = vec![(t0, src, SERVER, syn.encode())];
    let request = format!("GET /gettext/{REQUEST_SIZE}").into_bytes();
    let poll_until = |conn: &mut ClientConn, to: SimTime, out: &mut Vec<Sent>| {
        while let Some(at) = conn.next_deadline().filter(|&at| at <= to) {
            let (retx, _) = conn.poll(at);
            if let (Some(seg), true) = (retx, behavior.retransmits) {
                out.push((at, src, SERVER, seg.encode()));
            }
        }
    };
    let mut at = t0;
    for &(offset, make) in &script.steps {
        at += offset;
        poll_until(&mut conn, at, &mut out);
        let (reply, events) = conn.on_segment(at, &make(isn));
        if let Some(seg) = reply {
            out.push((at, src, SERVER, seg.encode()));
        }
        for event in events {
            match event {
                ClientEvent::Established if behavior.sends_request => {
                    out.push((at, src, SERVER, conn.send(request.clone()).encode()));
                }
                ClientEvent::Challenged { .. } => {
                    let (done, ack) = if behavior.solves {
                        let (done, proofs) = fleet_solution(fleet);
                        (done, conn.provide_solution(done, &proofs))
                    } else {
                        (at, conn.acknowledge_plain(at))
                    };
                    out.push((done, src, SERVER, ack.encode()));
                    if behavior.sends_request {
                        out.push((done, src, SERVER, conn.send(request.clone()).encode()));
                    }
                }
                _ => {}
            }
        }
    }
    poll_until(&mut conn, t0 + SCRIPT_END, &mut out);
    out.sort_by_key(|s| s.0);
    out
}

/// When the fleet sent its solution ACK, and the proofs it carried.
fn fleet_solution(fleet: &[Sent]) -> (SimTime, Vec<Vec<u8>>) {
    fleet
        .iter()
        .find_map(|(at, _, _, bytes)| {
            let seg = TcpSegment::decode(bytes).expect("fleet segments decode");
            let sol = seg.solution()?;
            let (proofs, _) = sol.split(1, 32, AlgoId::Prefix, false).ok()?;
            Some((*at, proofs))
        })
        .expect("a solving fleet sends a solution ACK")
}

fn bot_fleet(solve: Option<SolveStrategy>) -> BotFleet {
    BotFleet::new(BotFleetParams {
        addr_base: FLEET_BASE,
        target_addr: SERVER,
        target_port: SERVER_PORT,
        // At most one attempt per 50 s: the pacer's interval is at least
        // half of 1 / rate, far past the script's end.
        attack: FleetAttack::ConnFlood {
            rate: 0.01,
            solve,
            conn_timeout: SimDuration::from_secs(60),
            ack_delay: SimDuration::ZERO,
        },
        flows: 1,
        hash_rate: 400_000.0,
        start: SimTime::ZERO,
        stop: SimTime::from_secs(10_000),
    })
}

fn client_fleet(behavior: SolveBehavior) -> ClientFleet {
    ClientFleet::new(ClientFleetParams {
        addr_base: FLEET_BASE,
        server_addr: SERVER,
        server_port: SERVER_PORT,
        flows: 1,
        // One arrival per ~1000 s: the script sees a single request.
        request_rate: 0.001,
        request_size: REQUEST_SIZE,
        behavior,
        hash_rate: 400_000.0,
        request_timeout: SimDuration::from_secs(60),
    })
}

fn assert_same(host: &str, script: &Script, fleet: &[Sent], reference: &[Sent]) {
    let show = |trace: &[Sent]| -> Vec<String> {
        trace
            .iter()
            .map(|(at, _, _, bytes)| {
                let seg = TcpSegment::decode(bytes).expect("client segments decode");
                format!("{at:?} {seg:?}")
            })
            .collect()
    };
    assert_eq!(
        fleet,
        reference,
        "{host} vs ClientConn on '{}':\nfleet     {:#?}\nreference {:#?}",
        script.name,
        show(fleet),
        show(reference)
    );
}

#[test]
fn bot_fleets_send_client_conn_bytes() {
    for (host, solve, seed) in [
        ("solving BotFleet", Some(SolveStrategy::Real), 11),
        ("stock BotFleet", None, 12),
    ] {
        let behavior = Behavior {
            solves: solve.is_some(),
            sends_request: false,
            retransmits: false,
        };
        for script in scripts() {
            let fleet = run_fleet(&mut bot_fleet(solve.clone()), &script, seed);
            let reference = run_reference(&script, behavior, &fleet);
            assert_same(host, &script, &fleet, &reference);
        }
    }
}

#[test]
fn client_fleets_send_client_conn_bytes() {
    for (host, behavior, seed) in [
        (
            "solving ClientFleet",
            SolveBehavior::Solve(SolveStrategy::Real),
            21,
        ),
        ("non-solving ClientFleet", SolveBehavior::Ignore, 22),
    ] {
        let drive = Behavior {
            solves: matches!(behavior, SolveBehavior::Solve(_)),
            sends_request: true,
            retransmits: true,
        };
        for script in scripts() {
            let fleet = run_fleet(&mut client_fleet(behavior.clone()), &script, seed);
            let reference = run_reference(&script, drive, &fleet);
            assert_same(host, &script, &fleet, &reference);
        }
    }
}

/// The retransmit timeline really retransmits: three SYNs after the
/// first, at 1, 3 and 7 s, then nothing.
#[test]
fn client_fleet_retransmits_on_the_client_conn_schedule() {
    let script = scripts().pop().expect("retransmit script");
    let fleet = run_fleet(&mut client_fleet(SolveBehavior::Ignore), &script, 31);
    let t0 = fleet[0].0;
    let offsets: Vec<u64> = fleet
        .iter()
        .map(|s| (s.0.since(t0).as_secs_f64() * 1e3).round() as u64)
        .collect();
    assert_eq!(offsets, vec![0, 1_000, 3_000, 7_000]);
    // A BotFleet sends the first SYN only (the difference by design).
    let bots = run_fleet(&mut bot_fleet(None), &script, 32);
    assert_eq!(bots.len(), 1);
}
