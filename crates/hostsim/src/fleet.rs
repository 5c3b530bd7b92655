//! Aggregated fleet actors: N flows' worth of traffic from one node.
//!
//! The per-host actors ([`crate::AttackerHost`], [`crate::ClientHost`])
//! model one machine each — faithful, but a simulation node, link, and
//! routing entry per bot caps scenarios at a few hundred endpoints. The
//! fleet actors aggregate an entire botnet (or client population) into
//! a single node: per-flow protocol state lives in flat parallel arrays
//! indexed by flow id, packets map back to their flow arithmetically
//! from `(dst addr, dst port)` (no hash map on the fast path), and one
//! pacing timer drives the aggregate send rate. This is what takes
//! scenarios from hundreds of endpoints to 10⁵–10⁶ flows.
//!
//! Addressing: a fleet owns a `/16` block. Flow `i` maps to address
//! `base + 1 + i / PORTS_PER_ADDR` and port `PORT_BASE + i %
//! PORTS_PER_ADDR`, so one prefix route steers the whole fleet and a
//! million flows fit in ~21 addresses.
//!
//! Fidelity: a fleet flow speaks the per-host actors' handshake by
//! construction. Each flow keeps a `tcpstack::FlowRecord` in the flat
//! table, and every protocol decision — accepting a SYN-ACK, the echoed
//! timestamp, each SYN, ACK, solution ACK and request, the SYN
//! retransmission schedule — is a call into `tcpstack::client`'s core,
//! the same one `ClientConn` runs. The flood segments no client sends
//! (spoofed SYNs, forged solutions) come from the builders the per-host
//! bots use. The solve-latency model is the hosts' too: `hashes /
//! hash_rate` per single-threaded flow. So servers cannot tell a fleet
//! from the equivalent host population — only the simulator's cost per
//! endpoint changes. `tests/client_differential.rs` checks the bytes.

use std::net::Ipv4Addr;

use crate::attacker::{flood_syn, forged_solution_ack, spoofed_source};
use crate::client::SolveBehavior;
use crate::solve::SolveStrategy;
use netsim::{Context, IfaceId, Packet, SimDuration, SimTime, TimerId};
use puzzle_core::ConnectionTuple;
use simmetrics::IntervalSeries;
use tcpstack::client::{syn_retransmit, SYN_TIMEOUT};
use tcpstack::{ChallengeOption, FlowRecord, SynAck, TcpFlags, TcpSegment};

/// First port a fleet flow uses on its address.
pub const PORT_BASE: u16 = 1024;
/// Flows carried per fleet address (ports `PORT_BASE ..`).
pub const PORTS_PER_ADDR: usize = 50_000;

const K_START: u64 = 1;
const K_SEND: u64 = 2;
const K_CONNTO: u64 = 3;
const K_DELAYACK: u64 = 4;
const K_SOLVE: u64 = 5;
const K_RETX: u64 = 6;
const K_CAPTURE: u64 = 7;

/// Timer tag: kind byte, full 32-bit slot epoch, 24-bit flow index.
///
/// The epoch is carried whole: an earlier layout packed only its low 24
/// bits, so after 2²⁴ reuses of one slot a stale timer's tag aliased the
/// live epoch and fired on the wrong flow incarnation. A fleet's flow
/// count is bounded by its `/16` block (≤ 255 × [`PORTS_PER_ADDR`] <
/// 2²⁴), so the index is the field that fits in 24 bits.
const fn tag(kind: u64, epoch: u32, idx: u32) -> u64 {
    debug_assert!(idx <= 0xff_ffff, "flow index exceeds the 24-bit tag field");
    (kind << 56) | ((epoch as u64) << 24) | (idx as u64 & 0xff_ffff)
}

const fn tag_kind(t: u64) -> u64 {
    t >> 56
}

const fn tag_epoch(t: u64) -> u32 {
    ((t >> 24) & 0xffff_ffff) as u32
}

const fn tag_idx(t: u64) -> u32 {
    (t & 0xff_ffff) as u32
}

/// RFC 7323-style wraparound-aware TSval ordering: `a` is at-or-after
/// `b` on the 32-bit circle (i.e. within half the space ahead of it).
/// This is the comparison TSval consumers must use — after the wire
/// clock (`tcpstack::client::ts_ms`) wraps every 2³² ms ≈ 49.7 days, a
/// numerically *smaller* TSval is the newer one.
pub fn tsval_newer_eq(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) < 1 << 31
}

/// Maps flow `i` within `base`'s block to its source address.
pub fn flow_addr(base: Ipv4Addr, i: usize) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(base) + 1 + (i / PORTS_PER_ADDR) as u32)
}

/// Maps flow `i` to its source port.
pub fn flow_port(i: usize) -> u16 {
    PORT_BASE + (i % PORTS_PER_ADDR) as u16
}

/// Inverse of [`flow_addr`]/[`flow_port`]: the flow a packet addressed
/// to `(addr, port)` belongs to, if it is one of `flows`.
fn flow_index(base: Ipv4Addr, flows: usize, addr: Ipv4Addr, port: u16) -> Option<usize> {
    let offset = u32::from(addr).checked_sub(u32::from(base) + 1)? as usize;
    let port = (port as usize).checked_sub(PORT_BASE as usize)?;
    if port >= PORTS_PER_ADDR {
        return None;
    }
    let idx = offset * PORTS_PER_ADDR + port;
    (idx < flows).then_some(idx)
}

/// Per-flow lifecycle state (one byte per flow).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
enum FlowState {
    /// Unused slot, available from the free list.
    #[default]
    Idle,
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// Solving a challenge (solve-completion timer armed).
    Solving,
    /// ACK held back by the tool's lag (delayed-ACK timer armed).
    AckPending,
    /// Believes itself established; holds the connection open.
    Holding,
}

/// Flat per-flow state: parallel vectors indexed by flow id. A slot is
/// 1 + 4 + 12 bytes of fixed state plus a side vector of pending proofs
/// that is empty except mid-solve.
#[derive(Debug, Default)]
struct FlowTable {
    state: Vec<FlowState>,
    /// Generation counter: bumped on every release so stale timers
    /// (reaped flow, reused slot) can be recognized and dropped.
    epoch: Vec<u32>,
    /// Each flow's handshake record, which `tcpstack::client` reads and
    /// updates.
    rec: Vec<FlowRecord>,
    /// Proofs awaiting the solve-completion timer.
    pending_proofs: Vec<Vec<Vec<u8>>>,
    /// Idle slots (stack).
    free: Vec<u32>,
}

impl FlowTable {
    /// `flows` idle flows; panics if that is zero or overflows a fleet's
    /// `/16` block.
    fn new(flows: usize) -> Self {
        assert!(flows > 0, "fleet needs at least one flow");
        assert!(
            flows <= PORTS_PER_ADDR * 255,
            "fleet of {flows} flows overflows its /16 block"
        );
        FlowTable {
            state: vec![FlowState::Idle; flows],
            epoch: vec![0; flows],
            rec: vec![FlowRecord::default(); flows],
            pending_proofs: vec![Vec::new(); flows],
            free: (0..flows as u32).rev().collect(),
        }
    }

    fn len(&self) -> usize {
        self.state.len()
    }

    /// The busy flow of `base`'s block that `pkt` is addressed to.
    fn busy_flow(&self, base: Ipv4Addr, pkt: &Packet<TcpSegment>) -> Option<usize> {
        let idx = flow_index(base, self.len(), pkt.dst, pkt.payload.dst_port)?;
        (self.state[idx] != FlowState::Idle).then_some(idx)
    }

    /// Claims an idle flow, if any.
    fn claim(&mut self, isn: u32) -> Option<usize> {
        let idx = self.free.pop()? as usize;
        self.state[idx] = FlowState::SynSent;
        self.rec[idx] = FlowRecord::new(isn);
        idx.into()
    }

    /// Releases a flow back to the free list, invalidating its timers.
    fn release(&mut self, idx: usize) {
        debug_assert_ne!(self.state[idx], FlowState::Idle);
        self.state[idx] = FlowState::Idle;
        self.epoch[idx] = self.epoch[idx].wrapping_add(1);
        self.pending_proofs[idx].clear();
        self.free.push(idx as u32);
    }

    /// Solves `copt` for flow `idx` (connection `tuple`) single-threaded
    /// at `hash_rate`: parks the proofs and arms the solve-completion
    /// timer, whose firing sends the solution ACK. The latency is the
    /// whole cost model.
    fn begin_solve(
        &mut self,
        ctx: &mut Context<'_, TcpSegment>,
        idx: usize,
        tuple: &ConnectionTuple,
        strategy: &SolveStrategy,
        copt: &ChallengeOption,
        hash_rate: f64,
    ) {
        let solved = strategy.solve(tuple, copt, self.rec[idx].issued_at, ctx.rng());
        let latency = SimDuration::from_secs_f64(solved.hashes as f64 / hash_rate);
        self.pending_proofs[idx] = solved.proofs;
        self.state[idx] = FlowState::Solving;
        ctx.set_timer(latency, tag(K_SOLVE, self.epoch[idx], idx as u32));
    }

    /// Flow `idx`'s solution ACK, carrying the proofs its solve parked.
    fn solution_ack(&mut self, idx: usize, ports: (u16, u16), now: SimTime) -> TcpSegment {
        let proofs = std::mem::take(&mut self.pending_proofs[idx]);
        self.rec[idx].build_solution_ack(ports, now, &proofs, true)
    }

    /// Whether timer tag `t` still refers to the flow's current tenancy.
    /// The tag carries the full 32-bit epoch, so this is an exact match
    /// — a stale timer can never alias a reused slot.
    fn tag_live(&self, t: u64) -> Option<usize> {
        let idx = tag_idx(t) as usize;
        (idx < self.state.len()
            && self.state[idx] != FlowState::Idle
            && self.epoch[idx] == tag_epoch(t))
        .then_some(idx)
    }
}

// ---------------------------------------------------------------------
// Bot fleet
// ---------------------------------------------------------------------

/// The attack an aggregated fleet drives. Rates are *aggregate* across
/// the whole fleet (packets or attempts per second), unlike the
/// per-bot rates of [`crate::AttackKind`].
#[derive(Clone, Debug)]
pub enum FleetAttack {
    /// Half-open SYN flood; optionally from randomized spoofed sources.
    SynFlood {
        /// Aggregate SYNs per second.
        rate: f64,
        /// Spoof random 198.18/15 sources when true.
        spoof: bool,
    },
    /// Handshake-completing connection flood. Concurrency is bounded by
    /// the fleet's flow count (each flow is one socket).
    ConnFlood {
        /// Aggregate connection attempts per second.
        rate: f64,
        /// `Some` for a solving fleet ("SA"), `None` for stock bots.
        solve: Option<SolveStrategy>,
        /// Per-attempt give-up timeout.
        conn_timeout: SimDuration,
        /// Lag between SYN-ACK and the completing ACK (see
        /// [`crate::AttackKind::ConnFlood`]).
        ack_delay: SimDuration,
    },
    /// Every flow mints one legitimate solution, then the fleet replays
    /// the captured ACKs round-robin.
    ReplayFlood {
        /// Aggregate replays per second.
        rate: f64,
        /// Strategy for the per-flow legitimate solves.
        solve: SolveStrategy,
    },
    /// Forged ACKs with random solution bytes from rotating sources.
    SolutionFlood {
        /// Aggregate forged ACKs per second.
        rate: f64,
        /// `k` to fake.
        k: u8,
        /// Bytes per fake solution (`l/8`).
        sol_len: usize,
    },
}

impl FleetAttack {
    fn rate(&self) -> f64 {
        match self {
            FleetAttack::SynFlood { rate, .. }
            | FleetAttack::ConnFlood { rate, .. }
            | FleetAttack::ReplayFlood { rate, .. }
            | FleetAttack::SolutionFlood { rate, .. } => *rate,
        }
    }

    /// Short label for scenario-matrix cells.
    pub fn label(&self) -> &'static str {
        match self {
            FleetAttack::SynFlood { .. } => "syn-flood",
            FleetAttack::ConnFlood { solve: None, .. } => "conn-flood",
            FleetAttack::ConnFlood { solve: Some(_), .. } => "conn-flood-solving",
            FleetAttack::ReplayFlood { .. } => "replay-flood",
            FleetAttack::SolutionFlood { .. } => "solution-flood",
        }
    }
}

/// Bot-fleet configuration.
#[derive(Clone, Debug)]
pub struct BotFleetParams {
    /// Base of the fleet's `/16` source block (host bits zero).
    pub addr_base: Ipv4Addr,
    /// Victim address.
    pub target_addr: Ipv4Addr,
    /// Victim port.
    pub target_port: u16,
    /// The attack, with aggregate rates.
    pub attack: FleetAttack,
    /// Number of flows (sockets) the fleet drives.
    pub flows: usize,
    /// Per-flow SHA-256 throughput (each flow solves single-threaded).
    pub hash_rate: f64,
    /// Attack start.
    pub start: SimTime,
    /// Attack stop.
    pub stop: SimTime,
}

/// Counters a bot fleet keeps about itself. `Debug` output feeds the
/// golden-run digests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BotFleetStats {
    /// Attack packets sent (SYNs, ACKs, replays, forgeries).
    pub packets_sent: u64,
    /// Connection attempts started.
    pub attempts: u64,
    /// Attempts suppressed because every flow was busy.
    pub window_full: u64,
    /// Handshakes the fleet believes completed.
    pub believed_established: u64,
    /// Challenges solved.
    pub solves: u64,
    /// RSTs received.
    pub resets: u64,
    /// Attempts reaped by the connection timeout.
    pub timeouts: u64,
}

/// An aggregated botnet on one simulation node.
#[derive(Debug)]
pub struct BotFleet {
    params: BotFleetParams,
    flows: FlowTable,
    stats: BotFleetStats,
    /// Attack packets per 1 s bin (the fleet's measured rate).
    packets_series: IntervalSeries,
    /// Captured solution ACKs (replay fleets) with the source address
    /// they verify under, replayed round-robin.
    captured: Vec<(Ipv4Addr, TcpSegment)>,
    replay_cursor: usize,
    /// Flows per pacer firing (≥ 1; batches keep the pacer at ≤ ~1 kHz
    /// so timer overhead stays flat as the aggregate rate grows).
    batch: u64,
}

impl BotFleet {
    /// Builds a fleet from its parameters.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero or overflows the `/16` address block.
    pub fn new(params: BotFleetParams) -> Self {
        let rate = params.attack.rate();
        BotFleet {
            flows: FlowTable::new(params.flows),
            stats: BotFleetStats::default(),
            packets_series: IntervalSeries::new(1.0),
            captured: Vec::new(),
            replay_cursor: 0,
            batch: (rate / 1000.0).ceil().max(1.0) as u64,
            params,
        }
    }

    /// The fleet's address-block base.
    pub fn addr_base(&self) -> Ipv4Addr {
        self.params.addr_base
    }

    /// Flow count.
    pub fn flows(&self) -> usize {
        self.flows.len()
    }

    /// Collected counters.
    pub fn stats(&self) -> &BotFleetStats {
        &self.stats
    }

    /// Attack packets per second, binned.
    pub fn packet_series(&self) -> &IntervalSeries {
        &self.packets_series
    }

    fn send(&mut self, ctx: &mut Context<'_, TcpSegment>, src: Ipv4Addr, seg: TcpSegment) {
        self.stats.packets_sent += 1;
        self.packets_series.incr(ctx.now().as_secs_f64());
        ctx.send(IfaceId(0), Packet::new(src, self.params.target_addr, seg));
    }

    /// Flow `idx`'s (our port, server port).
    fn ports(&self, idx: usize) -> (u16, u16) {
        (flow_port(idx), self.params.target_port)
    }

    /// Sends flow `idx`'s plain ACK and holds the connection.
    fn hold(&mut self, ctx: &mut Context<'_, TcpSegment>, idx: usize) {
        self.flows.state[idx] = FlowState::Holding;
        let ack = self.flows.rec[idx].build_plain_ack(self.ports(idx));
        self.send(ctx, flow_addr(self.params.addr_base, idx), ack);
    }

    /// Opens a connection attempt on a free flow: draws its ISN and sends
    /// the SYN. `None` when every flow is busy.
    fn open_flow(&mut self, ctx: &mut Context<'_, TcpSegment>) -> Option<usize> {
        let isn = ctx.rng().next_u32();
        let idx = self.flows.claim(isn)?;
        self.stats.attempts += 1;
        let syn = self.flows.rec[idx].build_syn(self.ports(idx), ctx.now(), true);
        self.send(ctx, flow_addr(self.params.addr_base, idx), syn);
        Some(idx)
    }

    /// One aggregate-pacer firing: `batch` sends.
    fn fire(&mut self, ctx: &mut Context<'_, TcpSegment>) {
        /// The per-send parameters of each attack, all `Copy` — lifted
        /// out of [`FleetAttack`] so the hot loop never clones the
        /// strategy (which carries the oracle secret).
        #[derive(Clone, Copy)]
        enum Plan {
            Syn { spoof: bool },
            Conn { conn_timeout: SimDuration },
            Replay,
            Solution { k: u8, sol_len: usize },
        }
        let plan = match &self.params.attack {
            FleetAttack::SynFlood { spoof, .. } => Plan::Syn { spoof: *spoof },
            FleetAttack::ConnFlood { conn_timeout, .. } => Plan::Conn {
                conn_timeout: *conn_timeout,
            },
            FleetAttack::ReplayFlood { .. } => Plan::Replay,
            FleetAttack::SolutionFlood { k, sol_len, .. } => Plan::Solution {
                k: *k,
                sol_len: *sol_len,
            },
        };
        // Unspoofed floods send from a random flow's address.
        let (base, flows) = (self.params.addr_base, self.flows.len() as u64);
        let flow_src = |rng: &mut netsim::rng::SimRng| flow_addr(base, rng.below(flows) as usize);
        for _ in 0..self.batch {
            match plan {
                Plan::Syn { spoof } => {
                    let src = if spoof {
                        spoofed_source(ctx.rng())
                    } else {
                        flow_src(ctx.rng())
                    };
                    let syn = flood_syn(ctx.rng(), self.params.target_port);
                    self.send(ctx, src, syn);
                }
                Plan::Conn { conn_timeout } => match self.open_flow(ctx) {
                    Some(idx) => {
                        let epoch = self.flows.epoch[idx];
                        ctx.set_timer(conn_timeout, tag(K_CONNTO, epoch, idx as u32));
                    }
                    None => self.stats.window_full += 1,
                },
                Plan::Replay => {
                    if !self.captured.is_empty() {
                        self.replay_cursor = (self.replay_cursor + 1) % self.captured.len();
                        let (src, seg) = self.captured[self.replay_cursor].clone();
                        self.send(ctx, src, seg);
                    }
                }
                Plan::Solution { k, sol_len } => {
                    let now = ctx.now();
                    let (src, ack) = forged_solution_ack(
                        ctx.rng(),
                        (k, sol_len),
                        self.params.target_port,
                        now,
                        flow_src,
                    );
                    self.send(ctx, src, ack);
                }
            }
        }
    }

    /// Interval to the next pacer firing: mean `batch/rate`, ±50%
    /// jitter (same desynchronization argument as the per-host bots).
    fn next_interval(&self, ctx: &mut Context<'_, TcpSegment>) -> SimDuration {
        let mean = self.batch as f64 / self.params.attack.rate();
        SimDuration::from_secs_f64(mean * (0.5 + ctx.rng().next_f64()))
    }

    fn on_synack(&mut self, ctx: &mut Context<'_, TcpSegment>, idx: usize, seg: &TcpSegment) {
        if self.flows.state[idx] != FlowState::SynSent {
            return;
        }
        let Some(synack) = self.flows.rec[idx].on_synack(seg) else {
            return;
        };
        let delay = match (&self.params.attack, synack) {
            (
                FleetAttack::ConnFlood {
                    solve: Some(strategy),
                    ..
                }
                | FleetAttack::ReplayFlood {
                    solve: strategy, ..
                },
                SynAck::Challenged(copt),
            ) => {
                let tuple = ConnectionTuple::new(
                    flow_addr(self.params.addr_base, idx),
                    flow_port(idx),
                    self.params.target_addr,
                    self.params.target_port,
                    0,
                );
                let hash_rate = self.params.hash_rate;
                self.flows
                    .begin_solve(ctx, idx, &tuple, strategy, copt, hash_rate);
                self.stats.solves += 1;
                return;
            }
            // Stock flooder (or no challenge demanded): complete the
            // handshake with a plain ACK after the tool's lag.
            (FleetAttack::ConnFlood { ack_delay, .. }, _) => *ack_delay,
            // A replay capture got no challenge: just hold the connection.
            (FleetAttack::ReplayFlood { .. }, SynAck::Plain) => SimDuration::ZERO,
            (FleetAttack::SynFlood { .. } | FleetAttack::SolutionFlood { .. }, _) => return,
        };
        self.stats.believed_established += 1;
        if delay > SimDuration::ZERO {
            self.flows.state[idx] = FlowState::AckPending;
            ctx.set_timer(delay, tag(K_DELAYACK, self.flows.epoch[idx], idx as u32));
        } else {
            self.hold(ctx, idx);
        }
    }
}

impl netsim::Node<TcpSegment> for BotFleet {
    fn on_start(&mut self, ctx: &mut Context<'_, TcpSegment>) {
        ctx.set_timer(self.params.start.since(SimTime::ZERO), tag(K_START, 0, 0));
    }

    fn on_packet(
        &mut self,
        ctx: &mut Context<'_, TcpSegment>,
        _iface: IfaceId,
        pkt: Packet<TcpSegment>,
    ) {
        let Some(idx) = self.flows.busy_flow(self.params.addr_base, &pkt) else {
            return;
        };
        let seg = &pkt.payload;
        if seg.flags.contains(TcpFlags::RST) {
            self.stats.resets += 1;
            self.flows.release(idx);
            return;
        }
        if seg.flags.contains(TcpFlags::SYN | TcpFlags::ACK) {
            // `pkt` is owned by this frame, so the segment can be
            // borrowed straight through the handshake path.
            self.on_synack(ctx, idx, &pkt.payload);
        }
        // Data/FIN on held connections is ignored: bots never read.
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TcpSegment>, _id: TimerId, t: u64) {
        let now = ctx.now();
        match tag_kind(t) {
            K_START => {
                if let FleetAttack::ReplayFlood { .. } = self.params.attack {
                    // Stagger the capture handshakes across one second
                    // before the replay pacer starts.
                    for i in 0..self.flows.len() {
                        let jitter = SimDuration::from_secs_f64(ctx.rng().next_f64().min(0.999));
                        ctx.set_timer(jitter, tag(K_CAPTURE, 0, i as u32));
                    }
                    ctx.set_timer(SimDuration::from_secs(1), tag(K_SEND, 0, 0));
                } else {
                    let first = self.next_interval(ctx);
                    ctx.set_timer(first, tag(K_SEND, 0, 0));
                }
            }
            K_SEND => {
                if now >= self.params.stop {
                    return;
                }
                self.fire(ctx);
                let next = self.next_interval(ctx);
                ctx.set_timer(next, tag(K_SEND, 0, 0));
            }
            K_CAPTURE => {
                // One capture handshake per timer; the slot choice is
                // arbitrary, so take whichever the free list hands out.
                self.open_flow(ctx);
            }
            K_CONNTO => {
                if let Some(idx) = self.flows.tag_live(t) {
                    self.stats.timeouts += 1;
                    self.flows.release(idx);
                }
            }
            K_DELAYACK => {
                if let Some(idx) = self.flows.tag_live(t) {
                    if self.flows.state[idx] == FlowState::AckPending {
                        self.hold(ctx, idx);
                    }
                }
            }
            K_SOLVE => {
                if let Some(idx) = self.flows.tag_live(t) {
                    if self.flows.state[idx] == FlowState::Solving {
                        let ack = self.flows.solution_ack(idx, self.ports(idx), now);
                        if matches!(self.params.attack, FleetAttack::ReplayFlood { .. }) {
                            self.captured
                                .push((flow_addr(self.params.addr_base, idx), ack.clone()));
                        }
                        self.flows.state[idx] = FlowState::Holding;
                        self.stats.believed_established += 1;
                        let src = flow_addr(self.params.addr_base, idx);
                        self.send(ctx, src, ack);
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Client fleet
// ---------------------------------------------------------------------

/// Client-fleet configuration: a benign population on one node.
#[derive(Clone, Debug)]
pub struct ClientFleetParams {
    /// Base of the fleet's `/16` source block.
    pub addr_base: Ipv4Addr,
    /// Server address.
    pub server_addr: Ipv4Addr,
    /// Server port.
    pub server_port: u16,
    /// Concurrent request slots (the population's socket budget).
    pub flows: usize,
    /// Aggregate request rate (requests/second, Poisson).
    pub request_rate: f64,
    /// Bytes requested per connection.
    pub request_size: usize,
    /// Whether the population solves challenges.
    pub behavior: SolveBehavior,
    /// Per-flow SHA-256 throughput.
    pub hash_rate: f64,
    /// Give-up deadline per request.
    pub request_timeout: SimDuration,
}

impl ClientFleetParams {
    /// A population equivalent to `n` paper clients (20 req/s each).
    pub fn population(
        addr_base: Ipv4Addr,
        server_addr: Ipv4Addr,
        n: usize,
        behavior: SolveBehavior,
    ) -> Self {
        ClientFleetParams {
            addr_base,
            server_addr,
            server_port: 80,
            flows: (n * 64).max(256),
            request_rate: n as f64 * 20.0,
            request_size: 10_000,
            behavior,
            hash_rate: crate::profiles::CLIENT_CPUS[0].hash_rate,
            request_timeout: SimDuration::from_secs(10),
        }
    }
}

/// Counters a client fleet keeps. `Debug` output feeds the golden-run
/// digests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClientFleetStats {
    /// Requests started.
    pub started: u64,
    /// Requests suppressed because every flow was busy.
    pub window_full: u64,
    /// Connections (locally) established.
    pub established: u64,
    /// Requests whose full response arrived.
    pub completed: u64,
    /// Requests that failed (reset, reaped, or SYN retries exhausted).
    pub failed: u64,
    /// Challenges solved.
    pub solves: u64,
}

/// An aggregated benign-client population on one simulation node.
#[derive(Debug)]
pub struct ClientFleet {
    params: ClientFleetParams,
    flows: FlowTable,
    stats: ClientFleetStats,
    /// Application bytes received per 1 s bin (the goodput series).
    bytes_rx: IntervalSeries,
    /// SYN retransmissions sent, per flow.
    retries: Vec<u8>,
}

impl ClientFleet {
    /// Builds a client fleet.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero or overflows the `/16` block.
    pub fn new(params: ClientFleetParams) -> Self {
        ClientFleet {
            flows: FlowTable::new(params.flows),
            stats: ClientFleetStats::default(),
            bytes_rx: IntervalSeries::new(1.0),
            retries: vec![0; params.flows],
            params,
        }
    }

    /// The fleet's address-block base.
    pub fn addr_base(&self) -> Ipv4Addr {
        self.params.addr_base
    }

    /// Collected counters.
    pub fn stats(&self) -> &ClientFleetStats {
        &self.stats
    }

    /// Application bytes received per second, binned (goodput).
    pub fn goodput(&self) -> &IntervalSeries {
        &self.bytes_rx
    }

    fn send(&self, ctx: &mut Context<'_, TcpSegment>, idx: usize, seg: TcpSegment) {
        let src = flow_addr(self.params.addr_base, idx);
        ctx.send(IfaceId(0), Packet::new(src, self.params.server_addr, seg));
    }

    /// Flow `idx`'s (our port, server port).
    fn ports(&self, idx: usize) -> (u16, u16) {
        (flow_port(idx), self.params.server_port)
    }

    fn start_request(&mut self, ctx: &mut Context<'_, TcpSegment>) {
        let isn = ctx.rng().next_u32();
        let Some(idx) = self.flows.claim(isn) else {
            self.stats.window_full += 1;
            return;
        };
        self.stats.started += 1;
        self.retries[idx] = 0;
        let syn = self.flows.rec[idx].build_syn(self.ports(idx), ctx.now(), true);
        self.send(ctx, idx, syn);
        let epoch = self.flows.epoch[idx];
        ctx.set_timer(SYN_TIMEOUT, tag(K_RETX, epoch, idx as u32));
        ctx.set_timer(
            self.params.request_timeout,
            tag(K_CONNTO, epoch, idx as u32),
        );
    }

    fn finish(&mut self, idx: usize, completed: bool) {
        if completed {
            self.stats.completed += 1;
        } else {
            self.stats.failed += 1;
        }
        self.flows.release(idx);
    }

    fn establish_and_request(&mut self, ctx: &mut Context<'_, TcpSegment>, idx: usize) {
        self.flows.state[idx] = FlowState::Holding;
        self.stats.established += 1;
        let size = self.params.request_size;
        let payload = format!("GET /gettext/{size}").into_bytes();
        let req = self.flows.rec[idx].build_request(self.ports(idx), payload);
        self.send(ctx, idx, req);
    }
}

impl netsim::Node<TcpSegment> for ClientFleet {
    fn on_start(&mut self, ctx: &mut Context<'_, TcpSegment>) {
        let first = SimDuration::from_secs_f64(ctx.rng().exp_f64(self.params.request_rate));
        ctx.set_timer(first, tag(K_SEND, 0, 0));
    }

    fn on_packet(
        &mut self,
        ctx: &mut Context<'_, TcpSegment>,
        _iface: IfaceId,
        pkt: Packet<TcpSegment>,
    ) {
        let Some(idx) = self.flows.busy_flow(self.params.addr_base, &pkt) else {
            return;
        };
        let now = ctx.now();
        let seg = &pkt.payload;
        if seg.flags.contains(TcpFlags::RST) {
            self.finish(idx, false);
            return;
        }
        if seg.flags.contains(TcpFlags::SYN | TcpFlags::ACK) {
            if self.flows.state[idx] != FlowState::SynSent {
                return;
            }
            match (self.flows.rec[idx].on_synack(seg), &self.params.behavior) {
                (Some(SynAck::Challenged(copt)), SolveBehavior::Solve(strategy)) => {
                    let tuple = ConnectionTuple::new(
                        flow_addr(self.params.addr_base, idx),
                        flow_port(idx),
                        self.params.server_addr,
                        self.params.server_port,
                        0,
                    );
                    let hash_rate = self.params.hash_rate;
                    self.flows
                        .begin_solve(ctx, idx, &tuple, strategy, copt, hash_rate);
                    self.stats.solves += 1;
                }
                // Plain ACK (non-adopter answers a challenge with one
                // too), then the request rides immediately.
                (Some(_), _) => {
                    let ack = self.flows.rec[idx].build_plain_ack(self.ports(idx));
                    self.send(ctx, idx, ack);
                    self.establish_and_request(ctx, idx);
                }
                (None, _) => {}
            }
            return;
        }
        if self.flows.state[idx] == FlowState::Holding
            && (!seg.payload.is_empty() || seg.flags.contains(TcpFlags::FIN))
        {
            self.bytes_rx
                .add(now.as_secs_f64(), seg.payload.len() as f64);
            if seg.flags.contains(TcpFlags::FIN) {
                self.finish(idx, true);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TcpSegment>, _id: TimerId, t: u64) {
        let now = ctx.now();
        match tag_kind(t) {
            K_SEND => {
                self.start_request(ctx);
                let next = SimDuration::from_secs_f64(ctx.rng().exp_f64(self.params.request_rate));
                ctx.set_timer(next, tag(K_SEND, 0, 0));
            }
            K_RETX => {
                if let Some(idx) = self.flows.tag_live(t) {
                    if self.flows.state[idx] != FlowState::SynSent {
                        return;
                    }
                    let Some(timeout) = syn_retransmit(self.retries[idx].into()) else {
                        self.finish(idx, false);
                        return;
                    };
                    self.retries[idx] += 1;
                    let syn = self.flows.rec[idx].build_syn(self.ports(idx), now, true);
                    self.send(ctx, idx, syn);
                    ctx.set_timer(timeout, tag(K_RETX, self.flows.epoch[idx], idx as u32));
                }
            }
            K_CONNTO => {
                if let Some(idx) = self.flows.tag_live(t) {
                    self.finish(idx, false);
                }
            }
            K_SOLVE => {
                if let Some(idx) = self.flows.tag_live(t) {
                    if self.flows.state[idx] == FlowState::Solving {
                        let ack = self.flows.solution_ack(idx, self.ports(idx), now);
                        self.send(ctx, idx, ack);
                        self.establish_and_request(ctx, idx);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_addressing_round_trips() {
        let base = Ipv4Addr::new(10, 64, 0, 0);
        for i in [
            0usize,
            1,
            PORTS_PER_ADDR - 1,
            PORTS_PER_ADDR,
            123_456,
            999_999,
        ] {
            let (a, p) = (flow_addr(base, i), flow_port(i));
            assert_eq!(flow_index(base, 1_000_000, a, p), Some(i), "flow {i}");
        }
        // Outside the fleet: wrong port range, wrong address.
        assert_eq!(flow_index(base, 10, flow_addr(base, 0), 80), None);
        assert_eq!(
            flow_index(base, 10, Ipv4Addr::new(10, 63, 255, 255), PORT_BASE),
            None
        );
        // Flow id past the fleet size.
        assert_eq!(
            flow_index(base, 10, flow_addr(base, 10), flow_port(10)),
            None
        );
    }

    #[test]
    fn flow_table_claim_release_cycles() {
        let mut t = FlowTable::new(3);
        let a = t.claim(1).unwrap();
        let b = t.claim(2).unwrap();
        let c = t.claim(3).unwrap();
        assert_eq!(t.claim(4), None, "window exhausted");
        let tag_a = tag(K_CONNTO, t.epoch[a], a as u32);
        t.release(b);
        assert_eq!(t.tag_live(tag_a), Some(a));
        // Released flow's old tag is dead even after the slot is reused.
        let tag_b = tag(K_CONNTO, t.epoch[b].wrapping_sub(1), b as u32);
        assert_eq!(t.claim(5), Some(b));
        assert_eq!(t.tag_live(tag_b), None);
        let _ = c;
    }

    #[test]
    fn ephemeral_port_range_includes_65535() {
        // Regression: `range_u64`'s upper bound is exclusive, so the old
        // `range_u64(1024, 65_535)` sampler could never mint port 65535.
        // The fixed bound (65_536) covers the whole ephemeral range.
        let mut rng = netsim::rng::SimRng::seed_from(42);
        let mut hit_top = false;
        for _ in 0..1_000_000 {
            let port = rng.range_u64(1024, 65_536) as u16;
            assert!(port >= 1024);
            hit_top |= port == 65_535;
        }
        assert!(hit_top, "port 65535 must be reachable");
    }

    #[test]
    fn tag_packs_and_unpacks() {
        // Full 32-bit epoch and the largest 24-bit flow index round-trip.
        let t = tag(K_SOLVE, 0xdead_beef, 0xff_ffff);
        assert_eq!(tag_kind(t), K_SOLVE);
        assert_eq!(tag_epoch(t), 0xdead_beef);
        assert_eq!(tag_idx(t), 0xff_ffff);
    }

    #[test]
    fn epochs_straddling_2_pow_24_do_not_alias() {
        // Regression: the old layout carried only the low 24 epoch bits,
        // so epoch 2^24 aliased epoch 0 and a stale timer from 2^24
        // releases ago fired on the wrong flow incarnation.
        let mut t = FlowTable::new(2);
        let idx = t.claim(1).unwrap();
        t.epoch[idx] = 0xff_ffff; // one release below the boundary
        let stale = tag(K_CONNTO, t.epoch[idx], idx as u32);
        t.release(idx); // epoch -> 0x100_0000
        assert_eq!(t.claim(2), Some(idx));
        assert_eq!(t.epoch[idx], 0x100_0000);
        assert_eq!(t.tag_live(stale), None, "pre-boundary tag must be dead");
        // A tag minted at the post-boundary epoch is live — and distinct
        // from an epoch-0 tag, which the masked layout confused it with.
        let live = tag(K_CONNTO, t.epoch[idx], idx as u32);
        assert_eq!(t.tag_live(live), Some(idx));
        let epoch_zero = tag(K_CONNTO, 0, idx as u32);
        assert_ne!(live, epoch_zero);
        assert_eq!(t.tag_live(epoch_zero), None, "2^24 must not alias 0");
    }

    #[test]
    fn ts_clock_survives_the_u32_millisecond_wrap() {
        // 2^32 ms ≈ 49.7 sim-days. The simulation clock keeps counting
        // (it is 64-bit), while the wire TSval wraps modulo 2^32 and stays
        // monotone under the RFC 7323 wraparound-aware comparison.
        use tcpstack::client::ts_ms;
        let wrap_ms: u64 = 1 << 32;
        let mut prev = SimTime::from_millis(wrap_ms - 50);
        for step in 1..=20u64 {
            let now = SimTime::from_millis(wrap_ms - 50 + step * 10);
            assert!(
                tsval_newer_eq(ts_ms(now), ts_ms(prev)),
                "wire TSval {} must be RFC-newer than {}",
                ts_ms(now),
                ts_ms(prev)
            );
            assert!(
                !tsval_newer_eq(ts_ms(prev), ts_ms(now).wrapping_add(1)),
                "ordering is strict across the wrap"
            );
            prev = now;
        }
        // Directly across the boundary the raw numeric comparison inverts…
        let (before, after) = (
            ts_ms(SimTime::from_millis(wrap_ms - 1)),
            ts_ms(SimTime::from_millis(wrap_ms + 1)),
        );
        assert!(after < before, "numeric order inverts at the wrap");
        // …but the wraparound-aware one does not.
        assert!(tsval_newer_eq(after, before));
        assert!(!tsval_newer_eq(before, after));
    }

    #[test]
    fn fleet_tsvals_stay_monotone_past_the_wrap() {
        // A fleet stepped past the 49.7-day wrap point keeps stamping
        // SYNs (and echoing, via `issued_at`) timestamps that are
        // monotone in the RFC 7323 sense.
        let mut fleet = BotFleet::new(BotFleetParams {
            addr_base: Ipv4Addr::new(10, 64, 0, 0),
            target_addr: Ipv4Addr::new(10, 1, 0, 1),
            target_port: 80,
            attack: FleetAttack::ConnFlood {
                rate: 100.0,
                solve: None,
                conn_timeout: SimDuration::from_secs(1),
                ack_delay: SimDuration::ZERO,
            },
            flows: 4,
            hash_rate: 400_000.0,
            start: SimTime::ZERO,
            stop: SimTime::from_secs(1),
        });
        let idx = fleet.flows.claim(7).unwrap();
        let wrap_ms: u64 = 1 << 32;
        let mut prev_tsval: Option<u32> = None;
        for step in 0..40u64 {
            let now = SimTime::from_millis(wrap_ms - 200 + step * 10);
            let syn = fleet.flows.rec[idx].build_syn(fleet.ports(idx), now, true);
            let (tsval, _) = syn.timestamps().expect("fleet SYNs carry timestamps");
            if let Some(prev) = prev_tsval {
                assert!(
                    tsval_newer_eq(tsval, prev),
                    "TSval {tsval} regressed behind {prev} at step {step}"
                );
            }
            prev_tsval = Some(tsval);
        }
    }

    #[test]
    fn batch_scales_with_rate() {
        let mk = |rate| {
            BotFleet::new(BotFleetParams {
                addr_base: Ipv4Addr::new(10, 64, 0, 0),
                target_addr: Ipv4Addr::new(10, 1, 0, 1),
                target_port: 80,
                attack: FleetAttack::SynFlood { rate, spoof: true },
                flows: 100,
                hash_rate: 400_000.0,
                start: SimTime::ZERO,
                stop: SimTime::from_secs(10),
            })
        };
        assert_eq!(mk(500.0).batch, 1);
        assert_eq!(mk(100_000.0).batch, 100);
    }
}
