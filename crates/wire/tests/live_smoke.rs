//! Live-socket smoke: `live_load`'s engine against `live_server`'s over
//! a real loopback UDP socket with wall-clock time — the whole stack
//! the binaries run, asserted end to end.
//!
//! `#[ignore]`d by default (they burn real seconds and depend on the
//! scheduler); CI's `live-smoke` leg opts in with
//! `cargo test -q --release -- --ignored live_smoke`.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use experiments::scenario::DefenseSpec;
use hostsim::mix::{self, FleetSpec, MixParams};
use hostsim::SolveStrategy;
use netsim::SimDuration;
use puzzle_core::SolveCostModel;
use wire::{
    secret_from_seed, LiveLoad, LiveServer, LoadEngine, LoadReport, ServerConfig, WallClock,
    WireServerStats,
};

const SERVER_ENDPOINT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SECRET_SEED: u64 = 1;

fn mix_params(lane: u8) -> MixParams {
    let mut p = MixParams::new(
        Ipv4Addr::new(198, 18 + lane, 0, 0),
        SERVER_ENDPOINT,
        80,
        SolveStrategy::Oracle {
            secret: secret_from_seed(SECRET_SEED),
            cost_model: SolveCostModel::UniformPlacement,
        },
    );
    p.flows = 512;
    p.request_size = 2_000;
    p
}

/// Stands up a server on an ephemeral loopback port, drives the given
/// mixes against it for `secs` wall seconds, and returns both sides'
/// numbers.
fn run_live(
    defense: &str,
    mixes: Vec<(String, FleetSpec)>,
    secs: u64,
) -> (LoadReport, WireServerStats) {
    let spec = DefenseSpec::by_name(defense).expect("registered defense");
    let cfg = ServerConfig::new(spec.builder().clone(), secret_from_seed(SECRET_SEED));
    let server = LiveServer::bind("127.0.0.1:0", &cfg).expect("bind loopback");
    let addr = server.local_addr().expect("local_addr");

    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || server.run(&WallClock::new(), &stop))
    };

    let engine = LoadEngine::new(SERVER_ENDPOINT, mixes, 42);
    let live = LiveLoad::connect(addr, engine).expect("connect loopback");
    let report = live.run(&WallClock::new(), SimDuration::from_secs(secs));

    // Give in-flight datagrams a beat to drain before freezing stats.
    std::thread::sleep(std::time::Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    let stats = server_thread.join().expect("server thread");
    (report, stats)
}

fn assert_legit_completion(defense: &str) {
    let clients = {
        let mut p = mix_params(0);
        p.rate = 300.0;
        mix::by_name("clients", &p).unwrap()
    };
    // A background flood keeps the defence genuinely engaged (puzzles
    // issue opportunistically under pressure), like the paper's
    // protected-client experiments.
    let flood = {
        let mut p = mix_params(1);
        p.rate = 1_000.0;
        mix::by_name("syn-flood", &p).unwrap()
    };
    let (report, stats) = run_live(
        defense,
        vec![
            ("clients".to_string(), clients),
            ("syn-flood".to_string(), flood),
        ],
        5,
    );

    let attempted = report.completed + report.failed;
    assert!(
        report.completed >= 50,
        "[{defense}] too few completions to be meaningful: {report:?}"
    );
    assert!(
        report.completed as f64 >= 0.95 * attempted as f64,
        "[{defense}] legit completion below 95%: {} of {} ({} failed)",
        report.completed,
        attempted,
        report.failed
    );
    assert!(
        stats.listener.established_total() > 0,
        "[{defense}] server saw no established handshakes"
    );
    // SYN → FIN includes the fleet's modelled solve (a few ms) and the
    // generator's own timer granularity (a socket time-out rounds up to
    // scheduler ticks), but no batch-fill wait on the server.
    let p50 = report
        .latency_quantile(0.5)
        .expect("completions carry latency samples");
    assert!(
        p50 < 0.020,
        "[{defense}] median SYN→FIN latency {:.1} ms at 300 clients/s",
        p50 * 1e3
    );
}

#[test]
#[ignore = "real sockets + wall clock; CI's live-smoke leg opts in"]
fn live_smoke_puzzles_legit_completion() {
    assert_legit_completion("puzzles");
}

#[test]
#[ignore = "real sockets + wall clock; CI's live-smoke leg opts in"]
fn live_smoke_stateless_puzzles_legit_completion() {
    assert_legit_completion("stateless-puzzles");
}

#[test]
#[ignore = "real sockets + wall clock; CI's live-smoke leg opts in"]
fn live_smoke_syn_flood_alone_completes_nothing() {
    let flood = {
        let mut p = mix_params(0);
        p.rate = 2_000.0;
        mix::by_name("syn-flood", &p).unwrap()
    };
    let (report, stats) = run_live("puzzles", vec![("syn-flood".to_string(), flood)], 5);

    assert!(
        report.attack_packets > 1_000,
        "flood barely ran: {report:?}"
    );
    assert_eq!(report.handshakes, 0, "spoofed flood believed a handshake");
    assert_eq!(report.completed, 0);
    assert_eq!(
        stats.listener.established_total(),
        0,
        "pure spoofed SYN flood must establish nothing: {:?}",
        stats.listener
    );
    assert_eq!(stats.requests_served, 0);
}
