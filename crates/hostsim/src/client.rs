//! A benign client: Poisson request arrivals over the puzzle-aware stack.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::cpu::Cpu;
use crate::solve::SolveStrategy;
use netsim::{Context, IfaceId, Packet, SimDuration, TimerId};
use puzzle_core::ConnectionTuple;
use simmetrics::{IntervalSeries, SampleSeries};
use tcpstack::{ClientConfig, ClientConn, ClientEvent, TcpSegment};

const K_NEWREQ: u64 = 1;
const K_RETX: u64 = 2;
const K_SOLVE: u64 = 3;
const K_TIMEOUT: u64 = 4;
const K_TICK: u64 = 5;

const fn tag(kind: u64, payload: u64) -> u64 {
    (kind << 56) | payload
}

/// Whether this host cooperates with the puzzle protocol.
#[derive(Clone, Debug)]
pub enum SolveBehavior {
    /// Solve challenges with the given strategy (the paper's "SC" —
    /// solving client).
    Solve(SolveStrategy),
    /// Acknowledge without solving — a host without the kernel patch
    /// (the paper's "NC" in Experiment 5).
    Ignore,
}

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientParams {
    /// Our address.
    pub addr: Ipv4Addr,
    /// Server address.
    pub server_addr: Ipv4Addr,
    /// Server port.
    pub server_port: u16,
    /// Mean request rate `r_c` (requests/second, exponential
    /// inter-arrivals; the paper uses 20).
    pub request_rate: f64,
    /// Bytes requested per connection (the paper uses 10,000).
    pub request_size: usize,
    /// Cooperation behaviour.
    pub behavior: SolveBehavior,
    /// SHA-256 throughput of this device, per core.
    pub hash_rate: f64,
    /// Solver cores. The paper's clients are quad-core workstations whose
    /// kernel patch solves per-connection — concurrent handshakes solve in
    /// parallel. (Attack tools drive a single solver thread; see
    /// `AttackerParams`.)
    pub cores: usize,
    /// Give-up deadline per request.
    pub request_timeout: SimDuration,
    /// `Some(c)` turns the client into an `ab`-style closed-loop load
    /// generator: it keeps exactly `c` requests in flight, starting a new
    /// one the moment one finishes (used by the Fig. 3b stress test).
    /// `None` (the default) is the paper's open-loop Poisson client.
    pub closed_loop: Option<usize>,
}

impl ClientParams {
    /// The paper's default client: 20 req/s of 10 kB, solving with the
    /// given strategy, on the given device profile.
    pub fn new(
        addr: Ipv4Addr,
        server_addr: Ipv4Addr,
        behavior: SolveBehavior,
        hash_rate: f64,
    ) -> Self {
        ClientParams {
            addr,
            server_addr,
            server_port: 80,
            request_rate: 20.0,
            request_size: 10_000,
            behavior,
            hash_rate,
            cores: 4,
            request_timeout: SimDuration::from_secs(10),
            closed_loop: None,
        }
    }
}

/// Per-request outcome record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestOutcome {
    /// When the request started (seconds).
    pub started: f64,
    /// Handshake latency in seconds, if the connection established.
    pub connect_secs: Option<f64>,
    /// Whether the full response arrived.
    pub completed: bool,
}

/// Everything the figures measure at a client.
#[derive(Clone, Debug)]
pub struct ClientMetrics {
    /// Application bytes received per 1 s bin (Figs. 7, 8, 12).
    pub bytes_rx: IntervalSeries,
    /// Requests started per 1 s bin.
    pub attempts: IntervalSeries,
    /// Requests completed per 1 s bin (Fig. 15's numerator).
    pub completions: IntervalSeries,
    /// Per-request records (Fig. 6 uses `connect_secs`).
    pub requests: Vec<RequestOutcome>,
    /// CPU utilization samples (Fig. 9).
    pub cpu_util: SampleSeries,
    /// Counters.
    pub started: u64,
    /// Connections that (locally) established.
    pub established: u64,
    /// Requests whose full response arrived.
    pub completed: u64,
    /// Requests that failed (reset, timeout, or gave up).
    pub failed: u64,
    /// Challenges solved.
    pub solves: u64,
}

impl ClientMetrics {
    fn new() -> Self {
        ClientMetrics {
            bytes_rx: IntervalSeries::new(1.0),
            attempts: IntervalSeries::new(1.0),
            completions: IntervalSeries::new(1.0),
            requests: Vec::new(),
            cpu_util: SampleSeries::new(),
            started: 0,
            established: 0,
            completed: 0,
            failed: 0,
            solves: 0,
        }
    }

    /// Connection times in seconds for established connections.
    pub fn connection_times(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter_map(|r| r.connect_secs)
            .collect()
    }
}

struct ConnEntry {
    conn: ClientConn,
    /// Index into `metrics.requests`.
    record: usize,
    timeout_timer: TimerId,
    pending_proofs: Option<Vec<Vec<u8>>>,
}

/// The benign client behaviour.
#[derive(Debug)]
pub struct ClientHost {
    params: ClientParams,
    cpu: Cpu,
    metrics: ClientMetrics,
    conns: HashMap<u16, ConnEntry>,
    next_port: u16,
}

impl std::fmt::Debug for ConnEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConnEntry(record={})", self.record)
    }
}

impl ClientHost {
    /// Builds a client from its parameters.
    pub fn new(params: ClientParams) -> Self {
        ClientHost {
            cpu: Cpu::with_cores(params.hash_rate, params.cores),
            metrics: ClientMetrics::new(),
            conns: HashMap::new(),
            next_port: 10_000,
            params,
        }
    }

    /// The client's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.params.addr
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = if self.next_port >= 60_000 {
            10_000
        } else {
            self.next_port + 1
        };
        p
    }

    fn send_seg(&self, ctx: &mut Context<'_, TcpSegment>, seg: TcpSegment) {
        ctx.send(
            IfaceId(0),
            Packet::new(self.params.addr, self.params.server_addr, seg),
        );
    }

    fn start_request(&mut self, ctx: &mut Context<'_, TcpSegment>) {
        let now = ctx.now();
        let port = self.alloc_port();
        let isn = ctx.rng().next_u32();
        let cfg = ClientConfig::new(
            self.params.addr,
            port,
            self.params.server_addr,
            self.params.server_port,
        );
        let (conn, syn) = ClientConn::connect(cfg, isn, now);
        let record = self.metrics.requests.len();
        self.metrics.requests.push(RequestOutcome {
            started: now.as_secs_f64(),
            connect_secs: None,
            completed: false,
        });
        self.metrics.started += 1;
        self.metrics.attempts.incr(now.as_secs_f64());
        let timeout_timer = ctx.set_timer(self.params.request_timeout, tag(K_TIMEOUT, port as u64));
        if let Some(deadline) = conn.next_deadline() {
            ctx.set_timer(deadline.since(now), tag(K_RETX, port as u64));
        }
        self.conns.insert(
            port,
            ConnEntry {
                conn,
                record,
                timeout_timer,
                pending_proofs: None,
            },
        );
        self.send_seg(ctx, syn);
    }

    fn note_established(&mut self, port: u16) {
        if let Some(entry) = self.conns.get(&port) {
            self.metrics.established += 1;
            if let Some(d) = entry.conn.connection_time() {
                self.metrics.requests[entry.record].connect_secs = Some(d.as_secs_f64());
            }
        }
    }

    fn send_request_payload(&mut self, ctx: &mut Context<'_, TcpSegment>, port: u16) {
        let size = self.params.request_size;
        if let Some(entry) = self.conns.get_mut(&port) {
            let payload = format!("GET /gettext/{size}").into_bytes();
            let seg = entry.conn.send(payload);
            self.send_seg(ctx, seg);
        }
    }

    fn finish(&mut self, ctx: &mut Context<'_, TcpSegment>, port: u16, completed: bool) {
        if let Some(entry) = self.conns.remove(&port) {
            ctx.cancel_timer(entry.timeout_timer);
            if completed {
                self.metrics.completed += 1;
                self.metrics.completions.incr(ctx.now().as_secs_f64());
                self.metrics.requests[entry.record].completed = true;
            } else {
                self.metrics.failed += 1;
            }
            // Closed-loop generator: immediately replace the finished
            // request to hold the concurrency level.
            if self.params.closed_loop.is_some() {
                self.start_request(ctx);
            }
        }
    }

    fn handle_events(
        &mut self,
        ctx: &mut Context<'_, TcpSegment>,
        port: u16,
        events: Vec<ClientEvent>,
    ) {
        let now = ctx.now();
        for ev in events {
            match ev {
                ClientEvent::Established => {
                    self.note_established(port);
                    self.send_request_payload(ctx, port);
                }
                ClientEvent::Challenged {
                    challenge,
                    issued_at,
                } => {
                    match &self.params.behavior {
                        SolveBehavior::Solve(strategy) => {
                            // Don't queue a solve that would finish after
                            // the request's give-up deadline — the user
                            // (or the kernel's solver thread) abandons
                            // stale work instead of head-of-line blocking
                            // every later request. This is the client-side
                            // face of the CPU rate limit the puzzles are
                            // designed to impose (§6.2: ~2 requests/s).
                            if self.cpu.busy_until() > now + self.params.request_timeout / 2 {
                                self.finish(ctx, port, false);
                                continue;
                            }
                            let tuple = ConnectionTuple::new(
                                self.params.addr,
                                port,
                                self.params.server_addr,
                                self.params.server_port,
                                0, // informational; the oracle binds via the pre-image
                            );
                            let solved = strategy.solve(&tuple, &challenge, issued_at, ctx.rng());
                            let done = self.cpu.schedule_hashes(now, solved.hashes as f64);
                            if let Some(entry) = self.conns.get_mut(&port) {
                                entry.pending_proofs = Some(solved.proofs);
                            }
                            self.metrics.solves += 1;
                            ctx.set_timer(done.since(now), tag(K_SOLVE, port as u64));
                        }
                        SolveBehavior::Ignore => {
                            // Unpatched host: plain ACK, then the request.
                            if let Some(entry) = self.conns.get_mut(&port) {
                                let ack = entry.conn.acknowledge_plain(now);
                                self.send_seg(ctx, ack);
                            }
                            self.note_established(port);
                            self.send_request_payload(ctx, port);
                        }
                    }
                }
                ClientEvent::Data { len, fin } => {
                    self.metrics.bytes_rx.add(now.as_secs_f64(), len as f64);
                    if fin {
                        self.finish(ctx, port, true);
                    }
                }
                ClientEvent::Reset | ClientEvent::TimedOut => {
                    self.finish(ctx, port, false);
                }
            }
        }
    }
}

impl netsim::Node<TcpSegment> for ClientHost {
    fn on_start(&mut self, ctx: &mut Context<'_, TcpSegment>) {
        match self.params.closed_loop {
            Some(concurrency) => {
                for _ in 0..concurrency {
                    self.start_request(ctx);
                }
            }
            None => {
                let first = SimDuration::from_secs_f64(ctx.rng().exp_f64(self.params.request_rate));
                ctx.set_timer(first, tag(K_NEWREQ, 0));
            }
        }
        ctx.set_timer(SimDuration::from_secs(1), tag(K_TICK, 0));
    }

    fn on_packet(
        &mut self,
        ctx: &mut Context<'_, TcpSegment>,
        _iface: IfaceId,
        pkt: Packet<TcpSegment>,
    ) {
        let port = pkt.payload.dst_port;
        let Some(entry) = self.conns.get_mut(&port) else {
            return;
        };
        let (reply, events) = entry.conn.on_segment(ctx.now(), &pkt.payload);
        if let Some(seg) = reply {
            self.send_seg(ctx, seg);
        }
        self.handle_events(ctx, port, events);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TcpSegment>, _id: TimerId, t: u64) {
        let now = ctx.now();
        let port = (t & 0xffff) as u16;
        match t >> 56 {
            K_NEWREQ => {
                self.start_request(ctx);
                let next = SimDuration::from_secs_f64(ctx.rng().exp_f64(self.params.request_rate));
                ctx.set_timer(next, tag(K_NEWREQ, 0));
            }
            K_RETX => {
                let Some(entry) = self.conns.get_mut(&port) else {
                    return;
                };
                let (retx, events) = entry.conn.poll(now);
                if let Some(seg) = retx {
                    self.send_seg(ctx, seg);
                }
                if let Some(entry) = self.conns.get(&port) {
                    if let Some(deadline) = entry.conn.next_deadline() {
                        ctx.set_timer(deadline.since(now), tag(K_RETX, port as u64));
                    }
                }
                self.handle_events(ctx, port, events);
            }
            K_SOLVE => {
                if let Some(entry) = self.conns.get_mut(&port) {
                    if let Some(proofs) = entry.pending_proofs.take() {
                        let ack = entry.conn.provide_solution(now, &proofs);
                        self.send_seg(ctx, ack);
                        self.note_established(port);
                        self.send_request_payload(ctx, port);
                    }
                }
            }
            K_TIMEOUT
                // Give up on the request if it is still pending.
                if self.conns.contains_key(&port) => {
                    self.finish(ctx, port, false);
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
