//! The load generator: `hostsim` fleets replayed over a socket.
//!
//! Each configured mix (a [`hostsim::mix`] name — spoofed SYN flood,
//! solving conn-flood, Poisson legit clients, …) becomes one *lane*: the
//! real `BotFleet`/`ClientFleet` node driven by a
//! [`netsim::harness::NodeHarness`] instead of the simulation engine.
//! The fleets' behaviour — pacing, challenge solving, retransmission,
//! give-up timers — is exactly the code the pinned sim scenarios run;
//! only the transport differs: outbound packets become UDP frames, and
//! inbound frames are routed back to the owning lane by source block.
//!
//! Like the server, the engine is sans-socket ([`LoadEngine`]) with a
//! socket loop ([`LiveLoad`]) on top, split along the runtime seam.

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};

use hostsim::fleet::{BotFleet, ClientFleet};
use hostsim::mix::FleetSpec;
use netsim::harness::NodeHarness;
use netsim::{Packet, SimDuration, SimTime};
use tcpstack::{TcpFlags, TcpSegment};

use crate::clock::WireClock;
use crate::frame::{decode_frame, encode_frame, MAX_FRAME_LEN};

/// One mix driven by its own harness.
struct Lane {
    name: String,
    /// High 16 bits of the lane's `/16` source block, for routing
    /// replies back to the owning fleet.
    prefix: u16,
    node: LaneNode,
    harness: NodeHarness<TcpSegment>,
}

enum LaneNode {
    Bots(Box<BotFleet>),
    Clients(Box<ClientFleet>),
}

fn prefix_of(addr: Ipv4Addr) -> u16 {
    (u32::from(addr) >> 16) as u16
}

/// In-flight completion-latency entry for one client flow slot.
struct Attempt {
    isn: u32,
    start: SimTime,
}

/// Everything measured at the wire boundary plus the fleets' own
/// counters, aggregated across lanes.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Client requests started / completed / failed (fleet counters).
    pub started: u64,
    /// Requests whose full response arrived.
    pub completed: u64,
    /// Requests that failed (reset, timeout, retries exhausted).
    pub failed: u64,
    /// Handshakes: client connections established plus handshakes the
    /// bot fleets believe completed.
    pub handshakes: u64,
    /// Challenges solved across all lanes.
    pub solves: u64,
    /// Attack packets sent by bot lanes.
    pub attack_packets: u64,
    /// Application bytes received by client lanes.
    pub goodput_bytes: f64,
    /// SYN→FIN completion latencies in seconds, measured at the wire
    /// boundary (unsorted).
    pub latency_samples: Vec<f64>,
    /// Datagrams sent / received on the socket.
    pub datagrams_tx: u64,
    /// Datagrams received from the server.
    pub datagrams_rx: u64,
    /// Per-lane fleet-stats renderings, for the CLI report.
    pub lanes: Vec<(String, String)>,
}

impl LoadReport {
    /// The `q`-quantile (0..=1) of the completion latencies, if any
    /// were collected.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        if self.latency_samples.is_empty() {
            return None;
        }
        let mut sorted = self.latency_samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx])
    }

    /// Renders the measured summary over `elapsed` wall seconds.
    pub fn render(&self, elapsed: f64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let rate = |n: u64| n as f64 / elapsed.max(1e-9);
        let _ = writeln!(
            out,
            "elapsed {elapsed:.2}s  datagrams tx/rx {}/{}",
            self.datagrams_tx, self.datagrams_rx
        );
        let _ = writeln!(
            out,
            "handshakes {} ({:.0}/s)  completed {} ({:.0}/s)  failed {}  started {}",
            self.handshakes,
            rate(self.handshakes),
            self.completed,
            rate(self.completed),
            self.failed,
            self.started,
        );
        let _ = writeln!(
            out,
            "goodput {:.0} B ({:.0} B/s)  solves {}  attack packets {} ({:.0}/s)",
            self.goodput_bytes,
            self.goodput_bytes / elapsed.max(1e-9),
            self.solves,
            self.attack_packets,
            rate(self.attack_packets),
        );
        match (
            self.latency_quantile(0.50),
            self.latency_quantile(0.90),
            self.latency_quantile(0.99),
        ) {
            (Some(p50), Some(p90), Some(p99)) => {
                let _ = writeln!(
                    out,
                    "completion latency p50 {:.1} ms  p90 {:.1} ms  p99 {:.1} ms  ({} samples)",
                    p50 * 1e3,
                    p90 * 1e3,
                    p99 * 1e3,
                    self.latency_samples.len()
                );
            }
            _ => {
                let _ = writeln!(out, "completion latency: no completed requests");
            }
        }
        for (name, stats) in &self.lanes {
            let _ = writeln!(out, "  [{name}] {stats}");
        }
        out
    }
}

/// The sans-socket load core: lanes of harness-driven fleets, with
/// wire-boundary latency tracking.
pub struct LoadEngine {
    lanes: Vec<Lane>,
    server_addr: Ipv4Addr,
    /// `(client addr, client port)` → in-flight attempt, client lanes
    /// only.
    attempts: HashMap<(Ipv4Addr, u16), Attempt>,
    latency_samples: Vec<f64>,
    datagrams_tx: u64,
    datagrams_rx: u64,
    scratch: Vec<u8>,
}

impl LoadEngine {
    /// Builds one lane per named mix. `seed` keeps each lane's RNG
    /// stream deterministic (lane index is folded in, so identical
    /// mixes differ).
    pub fn new(server_addr: Ipv4Addr, mixes: Vec<(String, FleetSpec)>, seed: u64) -> Self {
        let lanes = mixes
            .into_iter()
            .enumerate()
            .map(|(i, (name, spec))| {
                let (prefix, node) = match spec {
                    FleetSpec::Bots(p) => (prefix_of(p.addr_base), {
                        LaneNode::Bots(Box::new(BotFleet::new(p)))
                    }),
                    FleetSpec::Clients(p) => (prefix_of(p.addr_base), {
                        LaneNode::Clients(Box::new(ClientFleet::new(p)))
                    }),
                };
                Lane {
                    name,
                    prefix,
                    node,
                    harness: NodeHarness::new(seed.wrapping_add(i as u64).wrapping_mul(0x9E37)),
                }
            })
            .collect();
        LoadEngine {
            lanes,
            server_addr,
            attempts: HashMap::new(),
            latency_samples: Vec::new(),
            datagrams_tx: 0,
            datagrams_rx: 0,
            scratch: Vec::new(),
        }
    }

    /// Runs every lane's `on_start` (arming the first pacer timers).
    pub fn start(&mut self) {
        for lane in &mut self.lanes {
            match &mut lane.node {
                LaneNode::Bots(n) => lane.harness.start(n.as_mut()),
                LaneNode::Clients(n) => lane.harness.start(n.as_mut()),
            }
        }
    }

    /// Advances every lane to `now` (firing due pacer/solve/timeout
    /// timers) and emits everything the fleets sent as encoded frames
    /// through `sink`.
    pub fn advance(&mut self, now: SimTime, sink: &mut dyn FnMut(&[u8])) {
        for lane in &mut self.lanes {
            let clients = matches!(lane.node, LaneNode::Clients(_));
            match &mut lane.node {
                LaneNode::Bots(n) => lane.harness.advance_to(n.as_mut(), now),
                LaneNode::Clients(n) => lane.harness.advance_to(n.as_mut(), now),
            }
            for pkt in lane.harness.drain_outbox() {
                let seg = &pkt.payload;
                if clients && seg.flags == TcpFlags::SYN {
                    // New attempt vs retransmission: same ISN keeps the
                    // original start time.
                    let key = (pkt.src, seg.src_port);
                    match self.attempts.get(&key) {
                        Some(a) if a.isn == seg.seq => {}
                        _ => {
                            self.attempts.insert(
                                key,
                                Attempt {
                                    isn: seg.seq,
                                    start: now,
                                },
                            );
                        }
                    }
                }
                self.scratch.clear();
                encode_frame(pkt.src, seg, &mut self.scratch);
                sink(&self.scratch);
                self.datagrams_tx += 1;
            }
        }
    }

    /// Routes one server frame back to the owning lane and delivers it
    /// to the fleet. Responses the fleet produces immediately (ACKs,
    /// solved challenges) land in its outbox and go out on the next
    /// [`LoadEngine::advance`].
    pub fn deliver(&mut self, now: SimTime, endpoint: Ipv4Addr, seg: TcpSegment) {
        self.datagrams_rx += 1;
        let prefix = prefix_of(endpoint);
        let Some(lane) = self.lanes.iter_mut().find(|l| l.prefix == prefix) else {
            return; // Not ours (stale flow from a previous run).
        };
        if matches!(lane.node, LaneNode::Clients(_)) && seg.flags.contains(TcpFlags::FIN) {
            if let Some(a) = self.attempts.remove(&(endpoint, seg.dst_port)) {
                self.latency_samples.push(now.since(a.start).as_secs_f64());
            }
        }
        let pkt = Packet::new(self.server_addr, endpoint, seg);
        match &mut lane.node {
            LaneNode::Bots(n) => lane.harness.deliver(n.as_mut(), pkt),
            LaneNode::Clients(n) => lane.harness.deliver(n.as_mut(), pkt),
        }
    }

    /// Earliest pending fleet timer across lanes (idle-pacing hint).
    pub fn next_timer_at(&mut self) -> Option<SimTime> {
        self.lanes
            .iter_mut()
            .filter_map(|l| l.harness.next_timer_at())
            .min()
    }

    /// Aggregated counters and latency samples.
    pub fn report(&self) -> LoadReport {
        let mut r = LoadReport {
            datagrams_tx: self.datagrams_tx,
            datagrams_rx: self.datagrams_rx,
            latency_samples: self.latency_samples.clone(),
            ..Default::default()
        };
        for lane in &self.lanes {
            match &lane.node {
                LaneNode::Bots(n) => {
                    let s = n.stats();
                    r.handshakes += s.believed_established;
                    r.solves += s.solves;
                    r.attack_packets += s.packets_sent;
                    r.lanes.push((lane.name.clone(), format!("{s:?}")));
                }
                LaneNode::Clients(n) => {
                    let s = n.stats();
                    r.started += s.started;
                    r.completed += s.completed;
                    r.failed += s.failed;
                    r.handshakes += s.established;
                    r.solves += s.solves;
                    r.goodput_bytes += n.goodput().total();
                    r.lanes.push((lane.name.clone(), format!("{s:?}")));
                }
            }
        }
        r
    }
}

/// The socket front of the load generator.
pub struct LiveLoad {
    socket: UdpSocket,
    engine: LoadEngine,
}

impl LiveLoad {
    /// Binds an ephemeral local UDP socket connected to `server`.
    ///
    /// # Errors
    ///
    /// Returns any socket bind/connect error.
    pub fn connect(server: SocketAddr, engine: LoadEngine) -> io::Result<LiveLoad> {
        let bind_addr = if server.is_ipv4() {
            "0.0.0.0:0"
        } else {
            "[::]:0"
        };
        let socket = UdpSocket::bind(bind_addr)?;
        socket.connect(server)?;
        Ok(LiveLoad { socket, engine })
    }

    /// Drives the fleets against the server for `duration` (by
    /// `clock`), then returns the final report. Single-threaded: each
    /// turn of the loop advances the fleets (sending what they emit),
    /// then waits for one reply — no longer than until the next fleet
    /// timer, which is read afresh every turn because `deliver` arms new
    /// ones (a solved challenge's ACK is a timer).
    ///
    /// # Panics
    ///
    /// Panics if socket configuration (read timeout) fails.
    pub fn run<C: WireClock>(mut self, clock: &C, duration: SimDuration) -> LoadReport {
        let socket = &self.socket;
        let deadline = clock.now() + duration;
        let mut buf = [0u8; MAX_FRAME_LEN + 64];
        self.engine.start();
        loop {
            let now = clock.now();
            if now >= deadline {
                break;
            }
            self.engine.advance(now, &mut |bytes| {
                let _ = socket.send(bytes);
            });
            let next = self
                .engine
                .next_timer_at()
                .unwrap_or(deadline)
                .min(deadline);
            // The read time-out is the idle pacer. A zero time-out is
            // rejected by the socket API, and one read per turn keeps
            // replies flowing when the fleets are behind schedule.
            let wait = std::time::Duration::from_nanos(next.since(clock.now()).as_nanos().max(1));
            socket
                .set_read_timeout(Some(wait))
                .expect("set_read_timeout");
            // A time-out or a transient socket error: back to the timers.
            if let Ok(n) = socket.recv(&mut buf) {
                if let Ok((endpoint, seg)) = decode_frame(&buf[..n]) {
                    self.engine.deliver(clock.now(), endpoint, seg);
                }
            }
        }
        self.engine.report()
    }
}
