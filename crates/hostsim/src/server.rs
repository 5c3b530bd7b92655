//! The victim server: listener + prefork-style worker-pool application.
//!
//! Reproduces the paper's deployment (§6): an apache2-style server whose
//! application accepts `gettext/<size>` requests and returns `size` bytes.
//! The application follows apache's prefork shape — a connection *is* a
//! worker:
//!
//! * a free worker `accept()`s the oldest established connection; with no
//!   free workers the accept queue backs up (and, upstream, completing
//!   handshakes stick in the listen queue — how floods clog the stack);
//! * a worker whose connection has not yet sent a request **parks** on a
//!   read with `read_timeout` (apache's `Timeout`). Dead flood
//!   connections pin workers for exactly that long, so the sustainable
//!   flood-completion rate is `workers / read_timeout` — calibrated to
//!   the ~225 completions/s the paper measures against cookies (Fig. 11);
//! * request service time is exponential at per-worker rate
//!   `service_rate / workers`, so the pool's aggregate capacity is the
//!   stress-test plateau µ (Fig. 3b);
//! * the response is sent in MSS-sized chunks with FIN on the last.
//!
//! CPU time for issuance (the listener's exact `issue_hashes` count:
//! challenge pre-image + keyed ISN mint = 3 hashes per challenge, cookie
//! MAC = 2, stateful/SYN-cache ISN mint = 2) and verification (2 hashes
//! for a rejected solution — pre-image + first failing proof; `1 + k`
//! for an accepted one) is charged to the server's [`Cpu`] at its
//! 10.8 MH/s profile, feeding the Fig. 9 utilization series.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::cpu::Cpu;
use crate::profiles::SERVER_HASH_RATE;
use netsim::{Context, IfaceId, Packet, SimDuration, SimTime, TimerId};
use puzzle_core::ServerSecret;
use simmetrics::{IntervalSeries, SampleSeries};
use tcpstack::{
    FlowKey, ListenerConfig, ListenerEvent, ListenerStats, PolicyBuilder, ShardedListener,
    TcpSegment,
};

/// Timer tag kinds (high byte of the tag).
const K_TICK: u64 = 1;
const K_POLL: u64 = 2;
const K_READTO: u64 = 3;
const K_SERVICE: u64 = 4;

const fn tag(kind: u64, payload: u64) -> u64 {
    (kind << 56) | payload
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerParams {
    /// The server's address.
    pub addr: Ipv4Addr,
    /// Listening port.
    pub port: u16,
    /// Listen-queue capacity (backlog).
    pub backlog: usize,
    /// Accept-queue capacity.
    pub accept_backlog: usize,
    /// Defence policy factory: each server builds a fresh live policy
    /// bound to its listener's secret and backend. Compose with
    /// [`PolicyBuilder::stacked`] or go closed-loop with
    /// [`PolicyBuilder::adaptive_puzzles`].
    pub defense: PolicyBuilder<puzzle_crypto::AutoBackend>,
    /// Worker pool size (apache's MaxRequestWorkers; a connection holds a
    /// worker from accept to close).
    pub workers: usize,
    /// How long a worker waits for a request before dropping the
    /// connection (apache's `Timeout`).
    pub read_timeout: SimDuration,
    /// Aggregate application service rate µ (requests/second).
    pub service_rate: f64,
    /// Server SHA-256 throughput for puzzle work.
    pub hash_rate: f64,
    /// The puzzle/cookie secret.
    pub secret: ServerSecret,
    /// Listener shards (RSS-style per-core partitioning; rounded up to a
    /// power of two). `1` — the default — is the single serial listener
    /// every pre-sharding golden digest was captured under; higher
    /// values split the backlogs and admission path across N independent
    /// [`ShardedListener`] shards.
    pub shards: usize,
    /// How a multi-shard listener steps its shards
    /// ([`tcpstack::ShardPipeline`]): `Auto` — the default — runs the
    /// persistent worker pipeline when the host has more than one
    /// hardware thread and steps in-line otherwise; `Persistent` /
    /// `Inline` force one path (useful to exercise the worker pipeline
    /// deterministically, e.g. the golden suite's persistent-pipeline
    /// leg on a single-core host). Simulation output is byte-identical
    /// across modes — only where the stepping runs changes.
    pub pipeline: tcpstack::ShardPipeline,
}

impl ServerParams {
    /// Defaults matching the paper's deployment: µ = 1100 req/s over a
    /// 150-worker pool (apache's default MaxRequestWorkers) with a 5 s
    /// read timeout. Dead flood connections drain at
    /// `workers/read_timeout = 30/s`; once the accept queue backs up
    /// behind a poisoned pool, admission latency exceeds a client's
    /// patience — the cookie-mode collapse of Figs. 8 and 11. 10.8 MH/s
    /// crypto per §7.
    pub fn new(
        addr: Ipv4Addr,
        port: u16,
        defense: PolicyBuilder<puzzle_crypto::AutoBackend>,
    ) -> Self {
        ServerParams {
            addr,
            port,
            backlog: 1024,
            accept_backlog: 1024,
            defense,
            workers: 150,
            read_timeout: SimDuration::from_secs(5),
            service_rate: crate::profiles::PAPER_MU,
            hash_rate: SERVER_HASH_RATE,
            secret: ServerSecret::from_bytes([0x5e; 32]),
            shards: 1,
            pipeline: tcpstack::ShardPipeline::Auto,
        }
    }
}

/// Everything the figures measure at the server.
#[derive(Clone, Debug)]
pub struct ServerMetrics {
    /// Application bytes sent per 1 s bin (Figs. 7–8 server throughput).
    pub bytes_tx: IntervalSeries,
    /// Requests fully served.
    pub requests_served: u64,
    /// Worker read timeouts (connections that never sent a request).
    pub read_timeouts: u64,
    /// `(time, client address)` for every established connection — the
    /// source-attributable rate data behind Figs. 11, 13, 14.
    pub established_log: Vec<(f64, Ipv4Addr)>,
    /// Listen-queue depth samples (Fig. 10).
    pub listen_depth: SampleSeries,
    /// Accept-queue depth samples (Fig. 10).
    pub accept_depth: SampleSeries,
    /// Busy-worker samples.
    pub busy_workers: SampleSeries,
    /// CPU utilization samples (Fig. 9).
    pub cpu_util: SampleSeries,
    /// SYN-ACKs-with-challenge per second (the Fig. 8 sparkline).
    pub challenge_rate: SampleSeries,
    /// Plain SYN-ACKs per second (the sparkline's dark ticks).
    pub plain_synack_rate: SampleSeries,
    /// Difficulty bits `m` in force over time (adaptive controller).
    pub difficulty_m: SampleSeries,
    /// Peak of the defence policy's retained per-flow state
    /// ([`tcpstack::PolicyStats::state_bytes`]), sampled once per
    /// second. The near-stateless policy's headline observable: O(the
    /// acceptance window) where classic puzzles and the SYN cache grow
    /// with flow count.
    pub peak_defense_state_bytes: u64,
}

impl ServerMetrics {
    fn new() -> Self {
        ServerMetrics {
            bytes_tx: IntervalSeries::new(1.0),
            requests_served: 0,
            read_timeouts: 0,
            established_log: Vec::new(),
            listen_depth: SampleSeries::new(),
            accept_depth: SampleSeries::new(),
            busy_workers: SampleSeries::new(),
            cpu_util: SampleSeries::new(),
            challenge_rate: SampleSeries::new(),
            plain_synack_rate: SampleSeries::new(),
            difficulty_m: SampleSeries::new(),
            peak_defense_state_bytes: 0,
        }
    }

    /// Established connections per second attributed to `addrs`, binned at
    /// `interval` seconds — e.g. the attackers' effective rate (Fig. 11).
    pub fn established_rate_for(&self, addrs: &[Ipv4Addr], interval: f64) -> IntervalSeries {
        let mut s = IntervalSeries::new(interval);
        for (t, addr) in &self.established_log {
            if addrs.contains(addr) {
                s.incr(*t);
            }
        }
        s
    }
}

/// A worker occupied by a flow, in one of two phases.
#[derive(Clone, Copy, Debug)]
enum WorkerPhase {
    /// Waiting for the request: read-timeout timer and its job id.
    Reading(TimerId, u64),
    /// Serving (service-completion timer armed).
    Serving,
}

/// The server host behaviour.
#[derive(Debug)]
pub struct ServerHost {
    params: ServerParams,
    /// The listening socket — [`ServerParams::shards`] RSS-style shards
    /// behind one facade (a transparent single listener at `shards: 1`)
    /// — hashing through the process-wide auto-selected backend
    /// (SHA-NI → multi-lane → scalar; overridable via `PUZZLE_BACKEND`).
    /// Every backend is digest-identical, so simulation results do not
    /// depend on the selection — only the CPU time burned per
    /// verification does.
    listener: ShardedListener<puzzle_crypto::AutoBackend>,
    cpu: Cpu,
    metrics: ServerMetrics,
    free_workers: usize,
    /// Worker state per accepted flow.
    busy: HashMap<FlowKey, WorkerPhase>,
    /// Response size for flows currently in service.
    serving_size: HashMap<FlowKey, usize>,
    /// Requests that arrived before a worker picked up the flow.
    pending_requests: HashMap<FlowKey, usize>,
    /// Timer payload → flow resolution.
    jobs: HashMap<u64, FlowKey>,
    next_job: u64,
    /// Listener stats at the previous CPU accounting point.
    prev_stats: ListenerStats,
    /// Listener stats at the previous sparkline sample.
    prev_tick_stats: ListenerStats,
}

impl ServerHost {
    /// Builds the server from its parameters.
    pub fn new(params: ServerParams) -> Self {
        let mut lcfg = ListenerConfig::new(params.addr, params.port);
        lcfg.backlog = params.backlog;
        lcfg.accept_backlog = params.accept_backlog;
        let listener = ShardedListener::with_policy_pipeline(
            lcfg,
            params.secret.clone(),
            puzzle_crypto::auto_backend(),
            &params.defense,
            params.shards,
            params.pipeline,
        );
        ServerHost {
            cpu: Cpu::new(params.hash_rate),
            listener,
            metrics: ServerMetrics::new(),
            free_workers: params.workers,
            busy: HashMap::new(),
            serving_size: HashMap::new(),
            pending_requests: HashMap::new(),
            jobs: HashMap::new(),
            next_job: 0,
            prev_stats: ListenerStats::default(),
            prev_tick_stats: ListenerStats::default(),
            params,
        }
    }

    /// The server's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.params.addr
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Listener counters.
    pub fn listener_stats(&self) -> ListenerStats {
        self.listener.stats()
    }

    /// Live queue depths `(listen, accept)`.
    pub fn queue_depths(&self) -> (usize, usize) {
        self.listener.queue_depths()
    }

    /// Workers currently occupied.
    pub fn busy_workers(&self) -> usize {
        self.params.workers - self.free_workers
    }

    /// Runtime difficulty tuning (sysctl analogue). Returns whether the
    /// installed defence policy applied it — `false` for policies
    /// without a difficulty knob (and for closed-loop policies, which
    /// own the knob themselves).
    pub fn set_difficulty(&mut self, difficulty: puzzle_core::Difficulty) -> bool {
        self.listener.set_difficulty(difficulty)
    }

    fn alloc_job(&mut self, flow: FlowKey) -> u64 {
        self.next_job += 1;
        self.jobs.insert(self.next_job, flow);
        self.next_job
    }

    fn send_all(&self, ctx: &mut Context<'_, TcpSegment>, replies: Vec<(Ipv4Addr, TcpSegment)>) {
        for (dst, seg) in replies {
            ctx.send(IfaceId(0), Packet::new(self.params.addr, dst, seg));
        }
    }

    /// Charges defence crypto work since the last call to the CPU model.
    ///
    /// The listener's counters are the single source of truth:
    /// `issue_hashes` is the exact issuance-side charge (challenge
    /// pre-image = 1, cookie MAC = 2, server-ISN mint = 2 — so a
    /// challenge costs 3 in total, refining the paper's g(p) = 1 to what
    /// the stack actually computes) and `verify_hashes` is the exact
    /// per-solution charge reported by the verification chokepoint
    /// (1 + checked proofs; replay-cache hits are free), so the CPU
    /// model tracks the paper's accounting without re-estimating it.
    fn account_crypto(&mut self, now: SimTime) {
        let s = self.listener.stats();
        let p = self.prev_stats;
        let issue = (s.issue_hashes - p.issue_hashes) as f64; // exact charge
        let verify = (s.verify_hashes - p.verify_hashes) as f64; // exact charge
        let hashes = issue + verify;
        if hashes > 0.0 {
            self.cpu.schedule_hashes(now, hashes);
        }
        self.prev_stats = s;
    }

    fn handle_events(&mut self, ctx: &mut Context<'_, TcpSegment>, events: Vec<ListenerEvent>) {
        let now = ctx.now();
        for ev in events {
            match ev {
                ListenerEvent::Established { flow, .. } => {
                    self.metrics
                        .established_log
                        .push((now.as_secs_f64(), flow.addr));
                }
                ListenerEvent::Data { flow, payload, fin } => {
                    if let Some(size) = parse_gettext_request(&payload) {
                        match self.busy.get(&flow) {
                            Some(WorkerPhase::Reading(timer, job)) => {
                                ctx.cancel_timer(*timer);
                                self.jobs.remove(&{ *job });
                                self.start_service(ctx, flow, size);
                            }
                            Some(WorkerPhase::Serving) => {} // duplicate request
                            None => {
                                self.pending_requests.insert(flow, size);
                            }
                        }
                    } else if fin {
                        // Peer closed without a (parseable) request.
                        if let Some(WorkerPhase::Reading(timer, job)) = self.busy.remove(&flow) {
                            ctx.cancel_timer(timer);
                            self.jobs.remove(&job);
                            self.free_workers += 1;
                            self.listener.close(flow);
                        } else {
                            self.pending_requests.remove(&flow);
                        }
                    }
                }
                // Queue-pressure events are visible through listener stats;
                // nothing to do here.
                ListenerEvent::SynDropped { .. }
                | ListenerEvent::AckIgnoredQueueFull { .. }
                | ListenerEvent::SolutionRejected { .. }
                | ListenerEvent::AcceptOverflow { .. }
                | ListenerEvent::ResetSent { .. } => {}
            }
        }
        self.dispatch_workers(ctx);
    }

    /// Assigns free workers to queued connections.
    fn dispatch_workers(&mut self, ctx: &mut Context<'_, TcpSegment>) {
        while self.free_workers > 0 {
            let Some(flow) = self.listener.accept() else {
                break;
            };
            self.free_workers -= 1;
            if let Some(size) = self.pending_requests.remove(&flow) {
                self.busy.insert(flow, WorkerPhase::Serving);
                self.arm_service(ctx, flow, size);
            } else {
                let job = self.alloc_job(flow);
                let timer = ctx.set_timer(self.params.read_timeout, tag(K_READTO, job));
                self.busy.insert(flow, WorkerPhase::Reading(timer, job));
            }
        }
    }

    /// Transition a Reading worker to Serving (request arrived).
    fn start_service(&mut self, ctx: &mut Context<'_, TcpSegment>, flow: FlowKey, size: usize) {
        self.busy.insert(flow, WorkerPhase::Serving);
        self.arm_service(ctx, flow, size);
    }

    fn arm_service(&mut self, ctx: &mut Context<'_, TcpSegment>, flow: FlowKey, size: usize) {
        self.serving_size.insert(flow, size);
        let worker_rate = self.params.service_rate / self.params.workers as f64;
        let dur = SimDuration::from_secs_f64(ctx.rng().exp_f64(worker_rate));
        let job = self.alloc_job(flow);
        ctx.set_timer(dur, tag(K_SERVICE, job));
    }
}

impl netsim::Node<TcpSegment> for ServerHost {
    fn on_start(&mut self, ctx: &mut Context<'_, TcpSegment>) {
        ctx.set_timer(SimDuration::from_secs(1), tag(K_TICK, 0));
        ctx.set_timer(SimDuration::from_millis(100), tag(K_POLL, 0));
    }

    fn on_packet(
        &mut self,
        ctx: &mut Context<'_, TcpSegment>,
        _iface: IfaceId,
        pkt: Packet<TcpSegment>,
    ) {
        if pkt.payload.dst_port != self.params.port {
            return;
        }
        let out = self.listener.on_segment(ctx.now(), pkt.src, &pkt.payload);
        self.account_crypto(ctx.now());
        self.send_all(ctx, out.replies);
        self.handle_events(ctx, out.events);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TcpSegment>, _id: TimerId, t: u64) {
        let now = ctx.now();
        match t >> 56 {
            K_TICK => {
                let secs = now.as_secs_f64();
                let (lq, aq) = self.listener.queue_depths();
                self.metrics.listen_depth.push(secs, lq as f64);
                self.metrics.accept_depth.push(secs, aq as f64);
                self.metrics
                    .busy_workers
                    .push(secs, (self.params.workers - self.free_workers) as f64);
                if now.as_nanos() >= 1_000_000_000 {
                    let from = now.saturating_sub(SimDuration::from_secs(1));
                    self.metrics
                        .cpu_util
                        .push(secs, self.cpu.utilization(from, now));
                    self.cpu
                        .prune_before(now.saturating_sub(SimDuration::from_secs(2)));
                }
                let s = self.listener.stats();
                let p = self.prev_tick_stats;
                self.metrics
                    .challenge_rate
                    .push(secs, (s.challenges_sent - p.challenges_sent) as f64);
                self.metrics
                    .plain_synack_rate
                    .push(secs, (s.synacks_sent - p.synacks_sent) as f64);
                // Closed-loop difficulty control (§7 extension) runs
                // inside the listener's policy tick (`PuzzleDefense`
                // under an `AdaptiveDifficulty` controller); sample the
                // difficulty it holds in force for the metrics series.
                let ps = self.listener.policy_stats();
                if ps.adaptive {
                    if let Some(d) = ps.difficulty {
                        self.metrics.difficulty_m.push(secs, d.m() as f64);
                    }
                }
                self.metrics.peak_defense_state_bytes = self
                    .metrics
                    .peak_defense_state_bytes
                    .max(ps.state_bytes as u64);
                self.prev_tick_stats = s;
                ctx.set_timer(SimDuration::from_secs(1), tag(K_TICK, 0));
            }
            K_POLL => {
                let retx = self.listener.poll(now);
                self.send_all(ctx, retx);
                ctx.set_timer(SimDuration::from_millis(100), tag(K_POLL, 0));
            }
            K_READTO => {
                if let Some(flow) = self.jobs.remove(&(t & 0x00ff_ffff_ffff_ffff)) {
                    if matches!(self.busy.get(&flow), Some(WorkerPhase::Reading(..))) {
                        self.busy.remove(&flow);
                        self.free_workers += 1;
                        self.metrics.read_timeouts += 1;
                        self.listener.close(flow);
                        self.pending_requests.remove(&flow);
                        self.dispatch_workers(ctx);
                    }
                }
            }
            K_SERVICE => {
                if let Some(flow) = self.jobs.remove(&(t & 0x00ff_ffff_ffff_ffff)) {
                    if matches!(self.busy.get(&flow), Some(WorkerPhase::Serving)) {
                        let size = self.serving_size.remove(&flow).unwrap_or(0);
                        let segs = self.listener.send_data(flow, size, true);
                        self.send_all(ctx, segs);
                        self.busy.remove(&flow);
                        self.free_workers += 1;
                        self.metrics.requests_served += 1;
                        self.metrics.bytes_tx.add(now.as_secs_f64(), size as f64);
                        self.dispatch_workers(ctx);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Parses the demo application's request line: `GET /gettext/<size>`.
/// Returns the requested byte count.
pub fn parse_gettext_request(payload: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(payload).ok()?;
    let rest = text.strip_prefix("GET /gettext/")?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing() {
        assert_eq!(parse_gettext_request(b"GET /gettext/10000"), Some(10_000));
        assert_eq!(parse_gettext_request(b"GET /gettext/5 HTTP/1.1"), Some(5));
        assert_eq!(parse_gettext_request(b"GET /other/5"), None);
        assert_eq!(parse_gettext_request(b"GET /gettext/"), None);
        assert_eq!(parse_gettext_request(&[0xff, 0xfe]), None);
    }

    #[test]
    fn established_rate_attribution() {
        let mut m = ServerMetrics::new();
        let a = Ipv4Addr::new(10, 0, 0, 9);
        let b = Ipv4Addr::new(10, 0, 0, 8);
        for i in 0..10 {
            m.established_log.push((i as f64 * 0.5, a));
        }
        m.established_log.push((0.2, b));
        let series = m.established_rate_for(&[a], 1.0);
        assert_eq!(series.total(), 10.0);
        assert_eq!(series.sum_between(0.0, 1.0), 2.0);
        let both = m.established_rate_for(&[a, b], 1.0);
        assert_eq!(both.total(), 11.0);
    }

    #[test]
    fn dead_connection_drain_rate_matches_pool_over_timeout() {
        let p = ServerParams::new(Ipv4Addr::new(10, 0, 0, 1), 80, PolicyBuilder::none());
        let drain = p.workers as f64 / p.read_timeout.as_secs_f64();
        // Slow enough that a backed-up accept queue exceeds client patience.
        assert!((drain - 30.0).abs() < 2.0, "drain {drain}");
    }
}
