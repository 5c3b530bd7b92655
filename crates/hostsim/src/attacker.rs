//! Botnet member behaviours: the paper's attack suite.
//!
//! * **SYN flood** (Experiment 2, first scenario): SYNs from randomized
//!   spoofed sources at a constant rate (`hping3`-style); the handshake is
//!   never completed, so SYN-ACKs die in the network.
//! * **Connection flood** (Experiments 2–5): real-address connection
//!   attempts at a target rate bounded by a concurrency window
//!   (`nping`-style). Optionally solves challenges (the paper's "SA"
//!   solving attacker) at its CPU's hash rate — which is precisely what
//!   rate-limits it.
//! * **Replay flood** (§7): completes one legitimate solving handshake,
//!   captures its own solution ACK, and replays it verbatim.
//! * **Solution flood** (§7): fires forged ACKs with random "solutions"
//!   to burn server verification CPU.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::cpu::Cpu;
use crate::solve::SolveStrategy;
use netsim::rng::SimRng;
use netsim::{Context, IfaceId, Packet, SimDuration, SimTime, TimerId};
use puzzle_core::ConnectionTuple;
use simmetrics::{IntervalSeries, SampleSeries};
use tcpstack::client::{CLIENT_MSS, CLIENT_WSCALE};
use tcpstack::{
    ClientConfig, ClientConn, ClientEvent, SegmentBuilder, SolutionOption, TcpFlags, TcpOption,
    TcpSegment,
};

const K_START: u64 = 1;
const K_SEND: u64 = 2;
const K_CONNTO: u64 = 3;
const K_SOLVE: u64 = 4;
const K_TICK: u64 = 5;
const K_DELAYACK: u64 = 6;

const fn tag(kind: u64, payload: u64) -> u64 {
    (kind << 56) | payload
}

/// A random spoofed source in the RFC 2544 benchmarking space
/// (198.18/15), which the Fig. 16 topology never routes.
pub(crate) fn spoofed_source(rng: &mut SimRng) -> Ipv4Addr {
    Ipv4Addr::new(
        198,
        18 + (rng.below(2) as u8),
        rng.below(256) as u8,
        rng.below(256) as u8,
    )
}

/// An `hping3`-style flood SYN to `target_port`: random ephemeral source
/// port, random ISN, an MSS option and nothing else. The caller picks
/// the source address first.
pub(crate) fn flood_syn(rng: &mut SimRng, target_port: u16) -> TcpSegment {
    SegmentBuilder::new(rng.range_u64(1024, 65_536) as u16, target_port)
        .seq(rng.next_u32())
        .flags(TcpFlags::SYN)
        .mss(CLIENT_MSS)
        .build()
}

/// A forged solution ACK to `target_port`, drawn in this order: `k`
/// random proofs of `sol_len` bytes, the source address (`src`), a random
/// ephemeral port, sequence and ACK number. The TS option echoes the
/// server's puzzle clock, so only the proofs fail verification.
pub(crate) fn forged_solution_ack(
    rng: &mut SimRng,
    (k, sol_len): (u8, usize),
    target_port: u16,
    now: SimTime,
    src: impl FnOnce(&mut SimRng) -> Ipv4Addr,
) -> (Ipv4Addr, TcpSegment) {
    let proofs: Vec<Vec<u8>> = (0..k)
        .map(|_| {
            let mut p = vec![0u8; sol_len];
            rng.fill_bytes(&mut p);
            p
        })
        .collect();
    let sol = SolutionOption::build(CLIENT_MSS, CLIENT_WSCALE, &proofs, None);
    let src = src(rng);
    let ack = SegmentBuilder::new(rng.range_u64(1024, 65_536) as u16, target_port)
        .seq(rng.next_u32())
        .ack_num(rng.next_u32())
        .flags(TcpFlags::ACK)
        .timestamps(1, tcpstack::puzzle_clock(now))
        .option(TcpOption::Solution(sol))
        .build();
    (src, ack)
}

/// The attack vector this bot executes.
#[derive(Clone, Debug)]
pub enum AttackKind {
    /// Half-open SYN flood with randomized spoofed sources.
    SynFlood {
        /// SYNs per second.
        rate: f64,
        /// Spoof random source addresses (198.18/15) when true; use the
        /// bot's own address otherwise.
        spoof: bool,
    },
    /// Handshake-completing connection flood from the bot's real address.
    ConnFlood {
        /// Target connection attempts per second.
        rate: f64,
        /// `Some(strategy)` for a solving attacker ("SA"); `None` for a
        /// stock flooder that ignores challenges ("NA").
        solve: Option<SolveStrategy>,
        /// Maximum in-flight connection attempts (the tool's socket
        /// window; this is what caps the measured rate in Figs. 13–14).
        concurrency: usize,
        /// Per-attempt give-up timeout.
        conn_timeout: SimDuration,
        /// Delay between receiving a SYN-ACK and sending the completing
        /// ACK. Userspace flood tools lag the kernel fast path; the
        /// paper's own Fig. 10 shows the listen queue *saturated* during
        /// its connection flood, which requires the attacker's half-open
        /// connections to linger — this parameter models that.
        ack_delay: SimDuration,
    },
    /// Captures its own valid solution ACK and replays it.
    ReplayFlood {
        /// Replays per second.
        rate: f64,
        /// Strategy for the single legitimate solve.
        solve: SolveStrategy,
    },
    /// Forged ACKs with random solution bytes (verification-CPU attack).
    SolutionFlood {
        /// Forged ACKs per second.
        rate: f64,
        /// `k` to fake (match the server's difficulty for maximum cost).
        k: u8,
        /// Solution length in bytes (server's `l/8`).
        sol_len: usize,
    },
}

/// Bot configuration.
#[derive(Clone, Debug)]
pub struct AttackerParams {
    /// The bot's own address.
    pub addr: Ipv4Addr,
    /// Victim address.
    pub target_addr: Ipv4Addr,
    /// Victim port.
    pub target_port: u16,
    /// Attack vector.
    pub kind: AttackKind,
    /// The bot's SHA-256 throughput (paper: equal to or better than the
    /// clients').
    pub hash_rate: f64,
    /// Attack start time.
    pub start: SimTime,
    /// Attack stop time.
    pub stop: SimTime,
}

/// What the bot measures about itself.
#[derive(Clone, Debug)]
pub struct AttackerMetrics {
    /// SYN/replay/forged-ACK packets sent per 1 s bin — the "measured
    /// attack rate" of Figs. 13a/14a.
    pub packets_sent: IntervalSeries,
    /// Connections the bot believes it established.
    pub believed_established: u64,
    /// Same, binned per second.
    pub established_series: IntervalSeries,
    /// Challenges solved (solving attackers).
    pub solves: u64,
    /// CPU utilization samples (Fig. 9's attacker curve).
    pub cpu_util: SampleSeries,
    /// RSTs received (deception discovered / conns torn down).
    pub resets: u64,
}

impl AttackerMetrics {
    fn new() -> Self {
        AttackerMetrics {
            packets_sent: IntervalSeries::new(1.0),
            believed_established: 0,
            established_series: IntervalSeries::new(1.0),
            solves: 0,
            cpu_util: SampleSeries::new(),
            resets: 0,
        }
    }
}

struct InFlight {
    conn: ClientConn,
    pending_proofs: Option<Vec<Vec<u8>>>,
    /// ACK held back by the tool's `ack_delay`.
    deferred_ack: Option<TcpSegment>,
}

/// A botnet member.
#[derive(Debug)]
pub struct AttackerHost {
    params: AttackerParams,
    cpu: Cpu,
    metrics: AttackerMetrics,
    in_flight: HashMap<u16, InFlight>,
    next_port: u16,
    /// Captured solution ACK for replay attacks.
    captured: Option<TcpSegment>,
    active: bool,
}

impl std::fmt::Debug for InFlight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InFlight(..)")
    }
}

impl AttackerHost {
    /// Builds a bot from its parameters.
    pub fn new(params: AttackerParams) -> Self {
        AttackerHost {
            cpu: Cpu::new(params.hash_rate),
            metrics: AttackerMetrics::new(),
            in_flight: HashMap::new(),
            next_port: 20_000,
            captured: None,
            active: false,
            params,
        }
    }

    /// The bot's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.params.addr
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &AttackerMetrics {
        &self.metrics
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = if self.next_port >= 65_000 {
            20_000
        } else {
            self.next_port + 1
        };
        p
    }

    /// Next send delay: mean `1/rate` with ±50% uniform jitter. Without
    /// jitter, identical bots phase-lock into synchronized bursts (their
    /// socket windows all refill at the same instants), leaving periodic
    /// quiet windows no real botnet exhibits.
    fn jittered_interval(rate: f64, rng: &mut netsim::rng::SimRng) -> SimDuration {
        SimDuration::from_secs_f64((0.5 + rng.next_f64()) / rate)
    }

    fn send_from(&mut self, ctx: &mut Context<'_, TcpSegment>, src: Ipv4Addr, seg: TcpSegment) {
        self.metrics.packets_sent.incr(ctx.now().as_secs_f64());
        ctx.send(IfaceId(0), Packet::new(src, self.params.target_addr, seg));
    }

    /// One firing of the attack's send loop.
    fn fire(&mut self, ctx: &mut Context<'_, TcpSegment>) {
        let now = ctx.now();
        match self.params.kind {
            AttackKind::SynFlood { spoof, .. } => {
                let src = if spoof {
                    spoofed_source(ctx.rng())
                } else {
                    self.params.addr
                };
                let syn = flood_syn(ctx.rng(), self.params.target_port);
                self.send_from(ctx, src, syn);
            }
            AttackKind::ConnFlood {
                concurrency,
                conn_timeout,
                ..
            } => {
                if self.in_flight.len() < concurrency {
                    let (port, syn) = self.open_conn(ctx);
                    ctx.set_timer(conn_timeout, tag(K_CONNTO, port as u64));
                    self.send_from(ctx, self.params.addr, syn);
                }
            }
            AttackKind::ReplayFlood { .. } => {
                if let Some(seg) = self.captured.clone() {
                    self.send_from(ctx, self.params.addr, seg);
                }
            }
            AttackKind::SolutionFlood { k, sol_len, .. } => {
                let addr = self.params.addr;
                let (src, ack) = forged_solution_ack(
                    ctx.rng(),
                    (k, sol_len),
                    self.params.target_port,
                    now,
                    |_| addr,
                );
                self.send_from(ctx, src, ack);
            }
        }
    }

    fn rate(&self) -> f64 {
        match &self.params.kind {
            AttackKind::SynFlood { rate, .. }
            | AttackKind::ConnFlood { rate, .. }
            | AttackKind::ReplayFlood { rate, .. }
            | AttackKind::SolutionFlood { rate, .. } => *rate,
        }
    }

    /// Opens a connection from the next free port. Returns the port and
    /// the SYN to send.
    fn open_conn(&mut self, ctx: &mut Context<'_, TcpSegment>) -> (u16, TcpSegment) {
        let port = self.alloc_port();
        let cfg = ClientConfig::new(
            self.params.addr,
            port,
            self.params.target_addr,
            self.params.target_port,
        );
        let isn = ctx.rng().next_u32();
        let (conn, syn) = ClientConn::connect(cfg, isn, ctx.now());
        let entry = InFlight {
            conn,
            pending_proofs: None,
            deferred_ack: None,
        };
        self.in_flight.insert(port, entry);
        (port, syn)
    }

    /// The configured ACK lag for connection floods (zero otherwise).
    fn ack_delay(&self) -> SimDuration {
        match self.params.kind {
            AttackKind::ConnFlood { ack_delay, .. } => ack_delay,
            _ => SimDuration::ZERO,
        }
    }

    fn handle_conn_events(
        &mut self,
        ctx: &mut Context<'_, TcpSegment>,
        port: u16,
        events: Vec<ClientEvent>,
    ) {
        let now = ctx.now();
        for ev in events {
            match ev {
                ClientEvent::Established => {
                    self.metrics.believed_established += 1;
                    self.metrics.established_series.incr(now.as_secs_f64());
                }
                ClientEvent::Challenged {
                    challenge,
                    issued_at,
                } => {
                    let solve = match &self.params.kind {
                        AttackKind::ConnFlood { solve, .. } => solve.as_ref(),
                        AttackKind::ReplayFlood { solve, .. } => Some(solve),
                        _ => None,
                    };
                    match solve {
                        Some(strategy) => {
                            // A solving bot keeps flooding SYNs but its
                            // solver can only keep up with so many
                            // challenges: skip solves whose queueing delay
                            // would outlive the attempt (the connection
                            // would be reaped before the ACK went out).
                            // This is the CPU ceiling the paper measures
                            // in Figs. 13–14 (~2 completions/s per bot).
                            let backlog_limit = match self.params.kind {
                                AttackKind::ConnFlood { conn_timeout, .. } => conn_timeout / 2,
                                _ => SimDuration::from_secs(1),
                            };
                            if self.cpu.busy_until() > now + backlog_limit {
                                continue;
                            }
                            let tuple = ConnectionTuple::new(
                                self.params.addr,
                                port,
                                self.params.target_addr,
                                self.params.target_port,
                                0,
                            );
                            let solved = strategy.solve(&tuple, &challenge, issued_at, ctx.rng());
                            let done = self.cpu.schedule_hashes(now, solved.hashes as f64);
                            if let Some(entry) = self.in_flight.get_mut(&port) {
                                entry.pending_proofs = Some(solved.proofs);
                            }
                            self.metrics.solves += 1;
                            ctx.set_timer(done.since(now), tag(K_SOLVE, port as u64));
                        }
                        None => {
                            // Stock flooder: plain ACK (after the tool's
                            // lag), then holds the deceived connection.
                            let delay = self.ack_delay();
                            if let Some(entry) = self.in_flight.get_mut(&port) {
                                let ack = entry.conn.acknowledge_plain(now);
                                if delay > SimDuration::ZERO {
                                    entry.deferred_ack = Some(ack);
                                    ctx.set_timer(delay, tag(K_DELAYACK, port as u64));
                                } else {
                                    self.send_from(ctx, self.params.addr, ack);
                                }
                                self.metrics.believed_established += 1;
                                self.metrics.established_series.incr(now.as_secs_f64());
                            }
                        }
                    }
                }
                ClientEvent::Reset => {
                    self.metrics.resets += 1;
                    self.in_flight.remove(&port);
                }
                ClientEvent::Data { .. } | ClientEvent::TimedOut => {}
            }
        }
    }
}

impl netsim::Node<TcpSegment> for AttackerHost {
    fn on_start(&mut self, ctx: &mut Context<'_, TcpSegment>) {
        ctx.set_timer(self.params.start.since(SimTime::ZERO), tag(K_START, 0));
        ctx.set_timer(SimDuration::from_secs(1), tag(K_TICK, 0));
    }

    fn on_packet(
        &mut self,
        ctx: &mut Context<'_, TcpSegment>,
        _iface: IfaceId,
        pkt: Packet<TcpSegment>,
    ) {
        let port = pkt.payload.dst_port;
        let Some(entry) = self.in_flight.get_mut(&port) else {
            return;
        };
        let (reply, events) = entry.conn.on_segment(ctx.now(), &pkt.payload);
        if let Some(seg) = reply {
            // Handshake-completing ACKs honour the tool's lag.
            let delay = self.ack_delay();
            if delay > SimDuration::ZERO && seg.flags.contains(TcpFlags::ACK) {
                if let Some(entry) = self.in_flight.get_mut(&port) {
                    entry.deferred_ack = Some(seg);
                    ctx.set_timer(delay, tag(K_DELAYACK, port as u64));
                }
            } else {
                self.send_from(ctx, self.params.addr, seg);
            }
        }
        self.handle_conn_events(ctx, port, events);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TcpSegment>, _id: TimerId, t: u64) {
        let now = ctx.now();
        let port = (t & 0xffff) as u16;
        match t >> 56 {
            K_START => {
                self.active = true;
                if matches!(self.params.kind, AttackKind::ReplayFlood { .. }) {
                    // The one legitimate connection that mints the
                    // solution to replay.
                    let (_, syn) = self.open_conn(ctx);
                    self.send_from(ctx, self.params.addr, syn);
                }
                let first = Self::jittered_interval(self.rate(), ctx.rng());
                ctx.set_timer(first, tag(K_SEND, 0));
            }
            K_SEND => {
                if now >= self.params.stop {
                    self.active = false;
                    return;
                }
                self.fire(ctx);
                let next = Self::jittered_interval(self.rate(), ctx.rng());
                ctx.set_timer(next, tag(K_SEND, 0));
            }
            K_CONNTO => {
                self.in_flight.remove(&port);
            }
            K_DELAYACK => {
                if let Some(entry) = self.in_flight.get_mut(&port) {
                    if let Some(seg) = entry.deferred_ack.take() {
                        self.send_from(ctx, self.params.addr, seg);
                    }
                }
            }
            K_SOLVE => {
                if let Some(entry) = self.in_flight.get_mut(&port) {
                    if let Some(proofs) = entry.pending_proofs.take() {
                        let ack = entry.conn.provide_solution(now, &proofs);
                        if matches!(self.params.kind, AttackKind::ReplayFlood { .. }) {
                            self.captured = Some(ack.clone());
                        }
                        self.send_from(ctx, self.params.addr, ack);
                        self.metrics.believed_established += 1;
                        self.metrics.established_series.incr(now.as_secs_f64());
                    }
                }
            }
            K_TICK => {
                let secs = now.as_secs_f64();
                if now.as_nanos() >= 1_000_000_000 {
                    let from = now.saturating_sub(SimDuration::from_secs(1));
                    self.metrics
                        .cpu_util
                        .push(secs, self.cpu.utilization(from, now));
                    self.cpu
                        .prune_before(now.saturating_sub(SimDuration::from_secs(2)));
                }
                ctx.set_timer(SimDuration::from_secs(1), tag(K_TICK, 0));
            }
            _ => {}
        }
    }
}
