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
use wire::{
    decode_frame, secret_from_seed, LoadEngine, ManualClock, ServerConfig, ServerEngine, WireClock,
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

/// Ledger finding 5: requests are served in arrival order, never in a
/// hash map's, so two engines fed the same datagrams agree reply for
/// reply and not just as sets. Flushes here are 20 ms apart at 2000
/// clients/s, so each serves dozens of requests and their order shows.
#[test]
fn identical_input_yields_byte_identical_reply_sequence() {
    let peer: SocketAddr = "127.0.0.1:5555".parse().unwrap();
    let step = SimDuration::from_millis(20);
    let mut p = mix_params(0, 13);
    p.rate = 2_000.0;
    let mut load = LoadEngine::new(
        SERVER_ENDPOINT,
        vec![("clients".to_string(), mix::by_name("clients", &p).unwrap())],
        46,
    );

    // Record: per flush, the datagrams in and the replies out.
    let mut first = server_engine("nash", 13);
    let mut script: Vec<(SimTime, Vec<Vec<u8>>)> = Vec::new();
    let mut recorded: Vec<Vec<u8>> = Vec::new();
    let mut most_served_per_flush = 0;
    let clock = ManualClock::new();
    load.start();
    for _ in 0..50 {
        clock.advance(step);
        let now = clock.now();
        let mut ingress = Vec::new();
        load.advance(now, &mut |bytes| ingress.push(bytes.to_vec()));
        for frame in &ingress {
            first.ingest_datagram(peer, frame);
        }
        let served_before = first.stats().requests_served;
        let from = recorded.len();
        first.flush(now, &mut |_, bytes| recorded.push(bytes.to_vec()));
        most_served_per_flush =
            most_served_per_flush.max(first.stats().requests_served - served_before);
        for frame in &recorded[from..] {
            let (endpoint, seg) = decode_frame(frame).expect("server emits valid frames");
            load.deliver(now, endpoint, seg);
        }
        script.push((now, ingress));
    }
    assert!(
        most_served_per_flush >= 8,
        "no flush served enough requests for their order to matter: {most_served_per_flush}"
    );

    // Replay into a fresh engine: same secret, same clock script.
    let mut second = server_engine("nash", 13);
    let mut replayed: Vec<Vec<u8>> = Vec::new();
    for (now, ingress) in &script {
        for frame in ingress {
            second.ingest_datagram(peer, frame);
        }
        second.flush(*now, &mut |_, bytes| replayed.push(bytes.to_vec()));
    }
    assert_eq!(recorded.len(), replayed.len());
    assert!(
        recorded == replayed,
        "reply sequences differ between two engines fed identical input"
    );
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
    assert_eq!(sunk, 0);
}
