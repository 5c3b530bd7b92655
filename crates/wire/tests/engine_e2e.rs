//! Deterministic in-memory end-to-end: `LoadEngine` fleets against a
//! `ServerEngine`, frames shuttled by hand on a [`ManualClock`] — the
//! whole live path minus the sockets. This is the runtime-seam payoff:
//! the exact event-loop cores the binaries run, tested without I/O,
//! timing, or threads.

use std::net::{Ipv4Addr, SocketAddr};

use experiments::scenario::DefenseSpec;
use hostsim::mix::{self, MixParams};
use hostsim::SolveStrategy;
use netsim::{SimDuration, SimTime};
use puzzle_core::SolveCostModel;
use tcpstack::{SegmentBuilder, SolutionOption, TcpFlags, TcpOption, TcpSegment, TCP_HEADER_LEN};
use wire::{
    decode_frame, secret_from_seed, LoadEngine, ManualClock, ServerConfig, ServerEngine, WireClock,
    FRAME_HEADER_LEN,
};

const SERVER_ENDPOINT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

fn oracle_solve(secret_seed: u64) -> SolveStrategy {
    SolveStrategy::Oracle {
        secret: secret_from_seed(secret_seed),
        cost_model: SolveCostModel::UniformPlacement,
    }
}

fn mix_params(lane: u8, secret_seed: u64) -> MixParams {
    let mut p = MixParams::new(
        Ipv4Addr::new(198, 18 + lane, 0, 0),
        SERVER_ENDPOINT,
        80,
        oracle_solve(secret_seed),
    );
    p.rate = 200.0;
    p.flows = 256;
    p.request_size = 2_000;
    p
}

/// Runs `load` against `server` for `secs` of simulated time in 1 ms
/// steps, shuttling frames both ways in memory.
fn run_in_memory(server: &mut ServerEngine, load: &mut LoadEngine, secs: u64) {
    let clock = ManualClock::new();
    let peer: SocketAddr = "127.0.0.1:5555".parse().unwrap();
    load.start();
    let steps = secs * 1_000;
    for _ in 0..steps {
        clock.advance(SimDuration::from_millis(1));
        let now = clock.now();
        let mut to_server: Vec<Vec<u8>> = Vec::new();
        load.advance(now, &mut |bytes| to_server.push(bytes.to_vec()));
        for frame in &to_server {
            server.ingest_datagram(peer, frame);
        }
        let mut to_load: Vec<Vec<u8>> = Vec::new();
        server.flush(now, &mut |_peer, bytes| to_load.push(bytes.to_vec()));
        for frame in &to_load {
            let (endpoint, seg) = decode_frame(frame).expect("server emits valid frames");
            load.deliver(now, endpoint, seg);
        }
    }
    assert_eq!(server.stats().unaddressed_replies, 0);
}

fn server_engine(defense: &str, secret_seed: u64) -> ServerEngine {
    let spec = DefenseSpec::by_name(defense).expect("registered defense");
    let cfg = ServerConfig::new(spec.builder().clone(), secret_from_seed(secret_seed));
    ServerEngine::new(&cfg)
}

#[test]
fn clients_complete_requests_under_puzzles() {
    let mut server = server_engine("nash", 7);
    let mut load = LoadEngine::new(
        SERVER_ENDPOINT,
        vec![(
            "clients".to_string(),
            mix::by_name("clients", &mix_params(0, 7)).unwrap(),
        )],
        42,
    );
    run_in_memory(&mut server, &mut load, 10);

    let report = load.report();
    assert!(
        report.completed >= 100,
        "expected substantial completions, got {report:?}"
    );
    assert!(
        report.completed as f64 >= 0.95 * (report.completed + report.failed) as f64,
        "completion ratio too low: {} completed / {} failed",
        report.completed,
        report.failed
    );
    assert!(report.goodput_bytes > 0.0);
    assert!(
        !report.latency_samples.is_empty(),
        "wire-boundary latency tracking produced no samples"
    );
    assert!(
        report.latency_quantile(0.5).unwrap() < 5.0,
        "median completion latency implausibly high"
    );

    let stats = server.stats();
    assert_eq!(stats.listener.established_total(), report.handshakes);
    assert_eq!(stats.requests_served, report.completed);
    assert_eq!(stats.listener.decode_errors, 0);
    assert!(stats.datagrams_tx > 0 && stats.datagrams_rx > 0);
}

#[test]
fn clients_complete_requests_under_stateless_puzzles() {
    let mut server = server_engine("stateless-puzzles", 9);
    let mut load = LoadEngine::new(
        SERVER_ENDPOINT,
        vec![(
            "clients".to_string(),
            mix::by_name("clients", &mix_params(0, 9)).unwrap(),
        )],
        43,
    );
    run_in_memory(&mut server, &mut load, 10);

    let report = load.report();
    assert!(
        report.completed >= 100,
        "expected substantial completions, got {report:?}"
    );
    assert!(
        report.completed as f64 >= 0.95 * (report.completed + report.failed) as f64,
        "completion ratio too low: {} completed / {} failed",
        report.completed,
        report.failed
    );
}

#[test]
fn spoofed_syn_flood_establishes_nothing() {
    let mut server = server_engine("none", 5);
    let mut p = mix_params(0, 5);
    p.rate = 2_000.0;
    let mut load = LoadEngine::new(
        SERVER_ENDPOINT,
        vec![(
            "syn-flood".to_string(),
            mix::by_name("syn-flood", &p).unwrap(),
        )],
        44,
    );
    run_in_memory(&mut server, &mut load, 5);

    let report = load.report();
    assert!(
        report.attack_packets > 1_000,
        "flood barely sent: {report:?}"
    );
    assert_eq!(report.handshakes, 0);
    assert_eq!(report.completed, 0);

    let stats = server.stats();
    assert_eq!(stats.listener.established_total(), 0);
    assert_eq!(stats.requests_served, 0);
    assert!(stats.listener.syns_received > 1_000);
}

#[test]
fn clients_survive_alongside_syn_flood_under_puzzles() {
    let mut server = server_engine("nash", 11);
    let mut flood = mix_params(1, 11);
    flood.rate = 2_000.0;
    let mut load = LoadEngine::new(
        SERVER_ENDPOINT,
        vec![
            (
                "clients".to_string(),
                mix::by_name("clients", &mix_params(0, 11)).unwrap(),
            ),
            (
                "syn-flood".to_string(),
                mix::by_name("syn-flood", &flood).unwrap(),
            ),
        ],
        45,
    );
    run_in_memory(&mut server, &mut load, 10);

    let report = load.report();
    assert!(
        report.completed as f64 >= 0.95 * (report.completed + report.failed) as f64,
        "puzzles failed to protect legit clients: {} completed / {} failed",
        report.completed,
        report.failed
    );
    assert!(report.completed >= 100);
    assert!(report.attack_packets > 1_000);
    // The flood engaged the puzzle path: challenges went out.
    assert!(server.stats().listener.challenges_sent > 0);
}

/// One recorded engine run: per flush, the clock and the datagrams in;
/// every reply out, in order.
struct Recording {
    script: Vec<(SimTime, Vec<Vec<u8>>)>,
    replies: Vec<Vec<u8>>,
    most_served_per_flush: u64,
}

/// Runs `load` against `server` for `flushes` flushes `step` apart,
/// feeding replies back to the load, and records both directions.
fn record(
    server: &mut ServerEngine,
    load: &mut LoadEngine,
    flushes: usize,
    step: SimDuration,
) -> Recording {
    let peer: SocketAddr = "127.0.0.1:5555".parse().unwrap();
    let mut rec = Recording {
        script: Vec::new(),
        replies: Vec::new(),
        most_served_per_flush: 0,
    };
    let clock = ManualClock::new();
    load.start();
    for _ in 0..flushes {
        clock.advance(step);
        let now = clock.now();
        let mut ingress = Vec::new();
        load.advance(now, &mut |bytes| ingress.push(bytes.to_vec()));
        for frame in &ingress {
            server.ingest_datagram(peer, frame);
        }
        let served_before = server.stats().requests_served;
        let from = rec.replies.len();
        server.flush(now, &mut |_, bytes| rec.replies.push(bytes.to_vec()));
        rec.most_served_per_flush = rec
            .most_served_per_flush
            .max(server.stats().requests_served - served_before);
        for frame in &rec.replies[from..] {
            let (endpoint, seg) = decode_frame(frame).expect("server emits valid frames");
            load.deliver(now, endpoint, seg);
        }
        rec.script.push((now, ingress));
    }
    assert_eq!(server.stats().unaddressed_replies, 0);
    rec
}

/// Replays `script` into `server`, following the `i`-th recorded
/// datagram with `garbage[i % garbage.len()]` (none if `garbage` is
/// empty), and returns the replies.
fn replay(
    server: &mut ServerEngine,
    script: &[(SimTime, Vec<Vec<u8>>)],
    garbage: &[Vec<u8>],
) -> Vec<Vec<u8>> {
    let peer: SocketAddr = "127.0.0.1:5555".parse().unwrap();
    let mut replies = Vec::new();
    let mut i = 0;
    for (now, ingress) in script {
        for frame in ingress {
            server.ingest_datagram(peer, frame);
            if !garbage.is_empty() {
                server.ingest_datagram(peer, &garbage[i % garbage.len()]);
            }
            i += 1;
        }
        server.flush(*now, &mut |_, bytes| replies.push(bytes.to_vec()));
    }
    assert_eq!(server.stats().unaddressed_replies, 0);
    replies
}

/// Ledger finding 5: requests are served in arrival order, never in a
/// hash map's, so two engines fed the same datagrams agree reply for
/// reply and not just as sets. Flushes here are 20 ms apart at 2000
/// clients/s, so each serves dozens of requests and their order shows.
#[test]
fn identical_input_yields_byte_identical_reply_sequence() {
    let mut p = mix_params(0, 13);
    p.rate = 2_000.0;
    let mut load = LoadEngine::new(
        SERVER_ENDPOINT,
        vec![("clients".to_string(), mix::by_name("clients", &p).unwrap())],
        46,
    );
    let rec = record(
        &mut server_engine("nash", 13),
        &mut load,
        50,
        SimDuration::from_millis(20),
    );
    assert!(
        rec.most_served_per_flush >= 8,
        "no flush served enough requests for their order to matter: {}",
        rec.most_served_per_flush
    );

    // Replay into a fresh engine: same secret, same clock script.
    let replayed = replay(&mut server_engine("nash", 13), &rec.script, &[]);
    assert_eq!(rec.replies.len(), replayed.len());
    assert!(
        rec.replies == replayed,
        "reply sequences differ between two engines fed identical input"
    );
}

/// Datagrams the engine must drop without a trace, each failing at a
/// different depth — several only after the decode has overwritten the
/// ingress slot's options or payload.
fn garbage_datagrams() -> Vec<Vec<u8>> {
    let framed = |seg: &TcpSegment| {
        let mut out = Vec::new();
        wire::encode_frame(Ipv4Addr::new(203, 0, 113, 9), seg, &mut out);
        out
    };
    let solution_ack = SegmentBuilder::new(4000, 80)
        .seq(1)
        .ack_num(2)
        .flags(TcpFlags::ACK)
        .timestamps(1, 2)
        .option(TcpOption::Solution(SolutionOption::build(
            1460,
            7,
            &[vec![1; 4], vec![2; 4]],
            None,
        )))
        .payload(vec![b'x'; 700])
        .build();
    let mut bad_offset = framed(&solution_ack);
    bad_offset[FRAME_HEADER_LEN + 12] = 4 << 4;
    // Timestamps and the solution decode into the slot, then the option
    // kind in the trailing pad byte has no length byte.
    let mut late_option_error = framed(&solution_ack);
    let pad = FRAME_HEADER_LEN + TCP_HEADER_LEN + solution_ack.options_len() - 1;
    late_option_error[pad] = 8;
    // Decodes completely, then fails the port check.
    let mut wrong_port = solution_ack.clone();
    wrong_port.dst_port = 81;
    vec![
        b"not a frame".to_vec(),
        vec![0xD5, 9, 0, 0, 0, 0], // bad version
        framed(&solution_ack)[..FRAME_HEADER_LEN + 30].to_vec(), // cut in the options
        bad_offset,
        late_option_error,
        framed(&wrong_port),
    ]
}

/// Ingress-slot reuse is unobservable: the same recorded stream with a
/// rejected datagram after every genuine one gives byte-identical
/// replies, and the rejects show up only as decode errors — on a
/// handshake workload and on a SYN flood, where every datagram is
/// either a decode error or a SYN.
#[test]
fn interleaved_garbage_leaves_replies_byte_identical() {
    let garbage = garbage_datagrams();
    for (defense, mix_name, seed) in [
        ("nash", "clients", 17),
        ("stateless-puzzles", "syn-flood", 19),
    ] {
        let mut p = mix_params(0, seed);
        p.rate = 2_000.0;
        let mut load = LoadEngine::new(
            SERVER_ENDPOINT,
            vec![(mix_name.to_string(), mix::by_name(mix_name, &p).unwrap())],
            seed,
        );
        let rec = record(
            &mut server_engine(defense, seed),
            &mut load,
            30,
            SimDuration::from_millis(20),
        );
        let received: usize = rec.script.iter().map(|(_, ingress)| ingress.len()).sum();
        assert!(received > 500, "{defense}: stream too small: {received}");

        let mut clean = server_engine(defense, seed);
        let clean_replies = replay(&mut clean, &rec.script, &[]);
        let mut dirty = server_engine(defense, seed);
        let dirty_replies = replay(&mut dirty, &rec.script, &garbage);
        assert!(
            clean_replies == rec.replies && dirty_replies == rec.replies,
            "{defense}: garbage changed the reply sequence"
        );

        let (clean, dirty) = (clean.stats(), dirty.stats());
        let n = received as u64;
        assert_eq!(dirty.datagrams_rx, clean.datagrams_rx + n, "{defense}");
        assert_eq!(
            dirty.listener.decode_errors,
            clean.listener.decode_errors + n
        );
        let mut scrubbed = dirty.listener;
        scrubbed.decode_errors = clean.listener.decode_errors;
        assert!(
            scrubbed == clean.listener,
            "{defense}: listener counters moved"
        );
        if mix_name == "syn-flood" {
            assert_eq!(
                dirty.listener.decode_errors + dirty.listener.syns_received,
                dirty.datagrams_rx
            );
        }
    }
}

#[test]
fn undecodable_datagrams_count_as_decode_errors() {
    let mut server = server_engine("none", 3);
    let peer: SocketAddr = "127.0.0.1:5555".parse().unwrap();
    server.ingest_datagram(peer, b"not a frame");
    server.ingest_datagram(peer, &[0xD5, 9, 0, 0, 0, 0]); // bad version
    server.ingest_datagram(peer, &[]);
    let mut sunk = 0u32;
    server.flush(SimTime::ZERO, &mut |_, _| sunk += 1);
    let stats = server.stats();
    assert_eq!(stats.listener.decode_errors, 3);
    assert_eq!(stats.datagrams_rx, 3);
    assert_eq!(stats.unaddressed_replies, 0);
    assert_eq!(sunk, 0);
}

/// Ingests `datagrams`, each from its own UDP peer, flushes at `now`,
/// and returns every reply decoded, with the peer it was sent to.
fn step(
    server: &mut ServerEngine,
    now: SimTime,
    datagrams: &[(SocketAddr, &[u8])],
) -> Vec<(SocketAddr, Ipv4Addr, TcpSegment)> {
    for (from, frame) in datagrams {
        server.ingest_datagram(*from, frame);
    }
    let mut replies = Vec::new();
    server.flush(now, &mut |peer, bytes| {
        let (endpoint, seg) = decode_frame(bytes).expect("server emits valid frames");
        replies.push((peer, endpoint, seg));
    });
    replies
}

/// A SYN-ACK that `poll` retransmits in a flush where its flow sent
/// nothing still reaches the UDP peer the SYN came from. A flow whose
/// next datagram comes from a new UDP peer is answered there, and so
/// are its later retransmissions.
#[test]
fn retransmits_and_rebound_flows_reach_their_latest_peer() {
    let mut server = server_engine("none", 29);
    let old: SocketAddr = "127.0.0.1:6001".parse().unwrap();
    let new: SocketAddr = "127.0.0.1:6002".parse().unwrap();
    let client = Ipv4Addr::new(198, 51, 100, 7);
    let syn = |port: u16| {
        let seg = SegmentBuilder::new(port, 80)
            .seq(1_000)
            .flags(TcpFlags::SYN)
            .build();
        let mut frame = Vec::new();
        wire::encode_frame(client, &seg, &mut frame);
        frame
    };
    let (stays, rebinds) = (syn(4001), syn(4002));
    let synack_to =
        |replies: &[(SocketAddr, Ipv4Addr, TcpSegment)], port: u16| -> Vec<SocketAddr> {
            replies
                .iter()
                .filter(|(_, endpoint, seg)| *endpoint == client && seg.dst_port == port)
                .inspect(|(_, _, seg)| assert_eq!(seg.flags, TcpFlags::SYN | TcpFlags::ACK))
                .map(|(peer, _, _)| *peer)
                .collect()
        };

    let clock = ManualClock::new();
    clock.advance(SimDuration::from_millis(1));
    let first = step(&mut server, clock.now(), &[(old, &stays), (old, &rebinds)]);
    assert_eq!(first.len(), 2);
    assert_eq!(synack_to(&first, 4001), [old]);
    assert_eq!(synack_to(&first, 4002), [old]);

    // The duplicate SYN from the new peer is answered with the SYN-ACK
    // again, at the new peer.
    clock.advance(SimDuration::from_millis(10));
    let dup = step(&mut server, clock.now(), &[(new, &rebinds)]);
    assert_eq!(dup.len(), 1);
    assert_eq!(synack_to(&dup, 4002), [new]);

    // Nothing more from either flow: only `poll` sends from here on.
    let mut retx = Vec::new();
    while clock.now() < SimTime::from_secs(4) {
        clock.advance(SimDuration::from_millis(100));
        retx.extend(step(&mut server, clock.now(), &[]));
    }
    assert_eq!(retx.len(), 4, "{retx:?}");
    assert_eq!(synack_to(&retx, 4001), [old, old]);
    assert_eq!(synack_to(&retx, 4002), [new, new]);
    let stats = server.stats();
    assert_eq!(stats.listener.synacks_sent, 7);
    assert_eq!(stats.unaddressed_replies, 0);
}
