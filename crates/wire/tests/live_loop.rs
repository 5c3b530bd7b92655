//! `LiveServer::run` over a real loopback socket, driven by hand: what
//! the run-to-completion loop owes its callers whatever the load —
//! prompt shutdown when idle, a handshake that waits for nobody, and a
//! per-wake cap that counts datagrams rather than decoded frames.
//!
//! Unlike `live_smoke` these burn milliseconds, not seconds, so they
//! run in the default suite.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netsim::SimTime;
use puzzle_core::{Challenge, ChallengeParams, Difficulty, Solver};
use tcpstack::{
    ClientConfig, ClientConn, ClientEvent, PolicyBuilder, PuzzleConfig, TcpFlags, TcpSegment,
};
use wire::{
    decode_frame, encode_frame, secret_from_seed, LiveServer, ServerConfig, WallClock,
    WireServerStats, MAX_FRAME_LEN,
};

const SERVER_ENDPOINT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT_ENDPOINT: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 7);
const RESPONSE_BYTES: usize = 1000;

/// Real verification of a cheap puzzle (k = 2, m = 6: ~64 hashes per
/// sub-puzzle to solve), and `backlog = 0` so every SYN is challenged.
fn challenge_every_syn() -> ServerConfig {
    let puzzle = PuzzleConfig {
        difficulty: Difficulty::new(2, 6).expect("static difficulty"),
        ..PuzzleConfig::default()
    };
    let mut cfg = ServerConfig::new(PolicyBuilder::puzzles(puzzle), secret_from_seed(1));
    cfg.backlog = 0;
    cfg
}

struct Running {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<WireServerStats>,
}

impl Running {
    fn start(server: LiveServer) -> Running {
        let addr = server.local_addr().expect("local_addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || server.run(&WallClock::new(), &flag));
        Running { addr, stop, thread }
    }

    fn stop(self) -> WireServerStats {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("server thread")
    }
}

/// A client socket that fails the test rather than hang it.
fn client_socket(server: SocketAddr) -> UdpSocket {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    socket.connect(server).expect("connect client");
    socket
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("set_read_timeout");
    socket
}

fn send(socket: &UdpSocket, seg: &TcpSegment) {
    let mut frame = Vec::new();
    encode_frame(CLIENT_ENDPOINT, seg, &mut frame);
    socket.send(&frame).expect("send");
}

fn recv(socket: &UdpSocket) -> Option<TcpSegment> {
    let mut buf = [0u8; MAX_FRAME_LEN + 64];
    let n = socket.recv(&mut buf).ok()?;
    Some(decode_frame(&buf[..n]).expect("server frames decode").1)
}

#[test]
fn idle_server_stops_within_two_poll_intervals() {
    let cfg = challenge_every_syn();
    let server = Running::start(LiveServer::bind("127.0.0.1:0", &cfg).expect("bind"));
    // Long enough for the loop to be parked in its blocking read.
    std::thread::sleep(Duration::from_millis(20));
    let asked = Instant::now();
    let stats = server.stop();
    let took = asked.elapsed();
    assert!(
        took < Duration::from_nanos(2 * cfg.poll_interval.as_nanos()),
        "idle server took {took:?} to notice stop (poll interval {:?})",
        cfg.poll_interval
    );
    assert_eq!(stats.datagrams_rx, 0);
}

#[test]
fn lone_handshake_completes_without_waiting_for_a_batch() {
    let server = Running::start(LiveServer::bind("127.0.0.1:0", &challenge_every_syn()).unwrap());
    let socket = client_socket(server.addr);
    let now = SimTime::ZERO;
    let client = ClientConfig::new(CLIENT_ENDPOINT, 40_000, SERVER_ENDPOINT, 80);

    let started = Instant::now();
    let (mut conn, syn) = ClientConn::connect(client, 0x1234_5678, now);
    send(&socket, &syn);
    let mut challenged = false;
    let mut finished = false;
    while !finished {
        let seg = recv(&socket).expect("server went quiet mid-handshake");
        for event in conn.on_segment(now, &seg).1 {
            match event {
                ClientEvent::Challenged {
                    challenge,
                    issued_at,
                } => {
                    challenged = true;
                    let params = ChallengeParams {
                        difficulty: Difficulty::new(challenge.k, challenge.m).unwrap(),
                        preimage_bits: challenge.l_bits(),
                        timestamp: issued_at,
                    };
                    let puzzle = Challenge::from_wire(params, challenge.preimage.clone()).unwrap();
                    let solved = Solver::new().solve(&puzzle);
                    send(
                        &socket,
                        &conn.provide_solution(now, solved.solution.proofs()),
                    );
                    send(
                        &socket,
                        &conn.send(format!("GET /gettext/{RESPONSE_BYTES}").into_bytes()),
                    );
                }
                ClientEvent::Data { fin, .. } => finished |= fin,
                other => panic!("unexpected client event {other:?}"),
            }
        }
    }
    let took = started.elapsed();

    assert!(challenged, "backlog 0 must challenge the SYN");
    assert_eq!(conn.bytes_received(), RESPONSE_BYTES);
    assert!(
        took < Duration::from_millis(50),
        "a lone handshake took {took:?}: something waits for a batch or a time-out"
    );
    let stats = server.stop();
    assert_eq!(stats.requests_served, 1);
    assert_eq!(stats.listener.established_total(), 1);
    assert_eq!(stats.listener.decode_errors, 0);
}

#[test]
fn garbage_burst_neither_starves_nor_miscounts() {
    const GARBAGE: u64 = 400;
    let live = LiveServer::bind("127.0.0.1:0", &challenge_every_syn()).expect("bind");
    let socket = client_socket(live.local_addr().expect("local_addr"));
    let garbage = |range: std::ops::Range<u64>| {
        for i in range {
            socket.send(&i.to_le_bytes()).expect("send garbage");
        }
    };
    // Queued before the loop runs — a default socket buffer holds one
    // cap's worth — and topped up while it drains, so the first wake
    // hits the cap with garbage still arriving.
    garbage(0..300);
    let server = Running::start(live);
    garbage(300..GARBAGE);

    let client = ClientConfig::new(CLIENT_ENDPOINT, 40_001, SERVER_ENDPOINT, 80);
    let (_, syn) = ClientConn::connect(client, 0x9ABC_DEF0, SimTime::ZERO);
    // The kernel may drop the SYN while the buffer is still full.
    let mut syns_sent = 0;
    let reply = loop {
        assert!(syns_sent < 10, "no challenge after {syns_sent} SYNs");
        send(&socket, &syn);
        syns_sent += 1;
        if let Some(seg) = recv(&socket) {
            break seg;
        }
    };
    assert!(
        reply.flags.contains(TcpFlags::SYN | TcpFlags::ACK),
        "expected the challenge SYN-ACK, got {reply:?}"
    );

    let stats = server.stop();
    let l = &stats.listener;
    assert!(l.decode_errors > 0 && l.decode_errors <= GARBAGE);
    assert!((1..=syns_sent).contains(&l.syns_received));
    assert_eq!(
        l.decode_errors + l.syns_received,
        stats.datagrams_rx,
        "every datagram received is either decoded or a decode error"
    );
}
