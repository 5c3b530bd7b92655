//! Composable defence policies — the per-phase hook pipeline behind
//! [`Listener`](crate::Listener).
//!
//! The paper compares *defences* (SYN cache, SYN cookies, client puzzles
//! at Nash difficulty) against state-exhaustion floods. Each defence is
//! a [`DefensePolicy`]: a trait with one hook per protocol phase, which
//! the listener consults instead of branching on a closed set of modes.
//!
//! The phases, in the order a flow traverses them:
//!
//! 1. [`on_syn`](DefensePolicy::on_syn) — every fresh SYN, with the
//!    listener's queue pressure. The policy *decides* and nothing else:
//!    admit it to the stateful handshake, decline (the listener then
//!    drops it), *defer* it into the pending issuance run — a challenge
//!    or cookie whose crypto is batched at the next
//!    [`issue_flush`](DefensePolicy::issue_flush), a run of one when the
//!    listener is stepped segment by segment — or answer it at once
//!    through [`answer_syn`](DefensePolicy::answer_syn) (the
//!    reduced-state cache entry, which is per-flow state and cannot
//!    wait).
//! 2. [`classify_ack`](DefensePolicy::classify_ack) — solution-bearing
//!    ACKs from unknown flows are offered for the listener's *batched*
//!    verification pipeline before sequential processing.
//! 3. [`verify`](DefensePolicy::verify) — the batched verification
//!    chokepoint: one call per run of collected solution ACKs.
//! 4. [`on_ack`](DefensePolicy::on_ack) — stateless completion paths for
//!    ACKs that match no listener state (cookie validation, SYN-cache
//!    promotion, single-solution verification).
//! 5. [`on_established`](DefensePolicy::on_established) — notification
//!    for every connection that reaches the accept queue.
//! 6. [`tick`](DefensePolicy::tick) — periodic maintenance from
//!    [`Listener::poll`](crate::Listener::poll): cache expiry, closed-loop
//!    difficulty control.
//!
//! Built-in policies: [`NoDefense`], [`SynCacheDefense`],
//! [`SynCookieDefense`], [`PuzzleDefense`] — one puzzle state machine
//! whose challenges bind either to a per-challenge clock reading or to an
//! rspow-style per-window nonce, at a fixed difficulty or under the
//! paper's §7 closed loop
//! ([`AdaptiveDifficulty`](crate::adaptive::AdaptiveDifficulty), driven
//! from the listener's own tick path) — and [`Stacked`], layered
//! defences with explicit precedence (e.g. SYN-cache spillover *then*
//! puzzles).
//!
//! Configurations store a [`PolicyBuilder`] — a clonable factory — since
//! live policies are stateful and owned by exactly one listener.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::adaptive::{AdaptiveDifficulty, AdaptiveObservation};
use crate::cookie::SynCookieCodec;
use crate::listener::{
    cookie_counter, puzzle_clock, synack_segment, EstablishedVia, FlowKey, ListenerConfig,
    ListenerCore, ListenerEvent, ListenerOutput, PuzzleConfig, SynCacheConfig,
};
use crate::options::{ChallengeOption, SolutionOption, TcpOption};
use crate::segment::{SegmentBuilder, TcpFlags, TcpSegment};
use netsim::{SimDuration, SimTime};
use puzzle_core::{
    validate_preimage_bits, AlgoId, BatchScratch, ChallengeParams, ConnectionTuple, Difficulty,
    IssueScratch, ReplayCache, ServerSecret, Solution, Verifier, VerifyError, VerifyRequest,
};
use puzzle_crypto::{Digest, HashBackend, MessageArena};

/// Queue fullness observed when a fresh SYN arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuePressure {
    /// The listen queue (half-open backlog) is at capacity.
    pub listen_full: bool,
    /// The accept queue is at capacity.
    pub accept_full: bool,
}

impl QueuePressure {
    /// Whether any queue is under pressure.
    pub fn any(self) -> bool {
        self.listen_full || self.accept_full
    }
}

/// What a policy decided for a fresh SYN.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynDisposition {
    /// Proceed with the ordinary stateful handshake (listen-queue entry).
    Admit,
    /// The policy declines under pressure; the next stacked layer gets
    /// the SYN, or — at the end of the stack — the listener drops it.
    Decline,
    /// The policy queued the SYN internally; the next
    /// [`issue_flush`](DefensePolicy::issue_flush) emits its one
    /// stateless reply (challenge / cookie).
    Deferred,
    /// The policy answers this SYN with per-flow state of its own: the
    /// listener calls [`answer_syn`](DefensePolicy::answer_syn) next.
    Inline,
}

/// What a policy decided for a stateless ACK.
#[derive(Debug, PartialEq, Eq)]
pub enum AckDisposition {
    /// The policy consumed the segment (established, rejected, ignored).
    Consumed,
    /// Not this policy's segment; the listener applies the stock
    /// fallback (an RST if the segment carried data or FIN).
    Unclaimed,
}

/// The solution-bearing ACKs collected for the next batched
/// verification, in arrival order: verification-request slots beside
/// establishment slots, the first [`SolutionRun::len`] of each live.
/// Ending a run keeps every slot and its buffers (each request's proof
/// vectors, each ACK's payload), so a steady stream of solution ACKs is
/// staged without allocating. The run lives in [`ListenerCore`], taken
/// and returned around each use like the verdict buffer.
#[derive(Debug, Default)]
pub struct SolutionRun {
    requests: Vec<VerifyRequest>,
    staged: Vec<StagedAck>,
    live: usize,
}

/// What establishing a verified solution ACK needs besides its request.
#[derive(Debug)]
pub(crate) struct StagedAck {
    pub(crate) flow: FlowKey,
    /// ACK number (the server's next sequence number on establish).
    pub(crate) ack: u32,
    /// The admitted MSS (the solution option's re-sent value, clamped).
    pub(crate) mss: u16,
    /// Segment payload, delivered on establishment.
    pub(crate) payload: Vec<u8>,
    pub(crate) fin: bool,
}

impl SolutionRun {
    /// Number of ACKs staged.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The staged verification requests, in arrival order.
    pub fn requests(&self) -> &[VerifyRequest] {
        &self.requests[..self.live]
    }

    pub(crate) fn staged(&self) -> &[StagedAck] {
        &self.staged[..self.live]
    }

    /// The next free request slot, set to `tuple` and `params`; its
    /// solution still holds whatever the slot carried last, for the
    /// caller to overwrite. The slot joins the run only at
    /// [`SolutionRun::commit`].
    pub fn slot(&mut self, tuple: ConnectionTuple, params: ChallengeParams) -> &mut VerifyRequest {
        if self.live == self.requests.len() {
            self.requests
                .push((tuple, params, Solution::new(Vec::new())));
        }
        let slot = &mut self.requests[self.live];
        (slot.0, slot.1) = (tuple, params);
        slot
    }

    /// Adds the slot last returned by [`SolutionRun::slot`] to the run as
    /// `seg`'s request, establishing `flow` with `mss` if it verifies.
    pub fn commit(&mut self, flow: FlowKey, seg: &TcpSegment, mss: u16) {
        debug_assert!(self.live < self.requests.len(), "commit without a slot");
        let (ack, fin) = (seg.ack, seg.flags.contains(TcpFlags::FIN));
        match self.staged.get_mut(self.live) {
            Some(s) => {
                (s.flow, s.ack, s.mss, s.fin) = (flow, ack, mss, fin);
                s.payload.clear();
                s.payload.extend_from_slice(&seg.payload);
            }
            None => self.staged.push(StagedAck {
                flow,
                ack,
                mss,
                payload: seg.payload.clone(),
                fin,
            }),
        }
        self.live += 1;
    }

    /// Ends the run; every slot is free again, buffers kept.
    pub fn clear(&mut self) {
        self.live = 0;
    }
}

/// How one inbound segment was routed by the batch collector.
#[derive(Debug)]
pub enum AckClass {
    /// Needs ordinary sequential processing.
    Sequential,
    /// A solution ACK staged in the [`SolutionRun`] for the next batched
    /// verification flush.
    Pending,
    /// Fully handled during collection (queue-gated or parse-rejected).
    Handled,
}

/// Policy-level observability, surfaced through
/// [`Listener::policy_stats`](crate::Listener::policy_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PolicyStats {
    /// Reduced-state SYN-cache occupancy (0 unless a cache layer runs).
    pub syn_cache_len: usize,
    /// Puzzle difficulty currently in force, if the policy issues
    /// challenges.
    pub difficulty: Option<Difficulty>,
    /// Whether difficulty is under closed-loop (adaptive) control.
    pub adaptive: bool,
    /// Estimated bytes of per-flow defence state the policy currently
    /// retains: reduced-state cache entries (one per unproven half-open
    /// the cache absorbed) plus post-proof replay admissions. Transient
    /// batch staging is excluded — it is drained within every segment
    /// batch and is never keyed by flow. This is the memory-footprint
    /// observable behind the near-stateless comparison: a defence whose
    /// pre-proof state is zero shows only its replay admissions here,
    /// O(admission rate × acceptance window), never O(attack flows).
    pub state_bytes: usize,
}

/// A composable defence: one hook per handshake phase. See the module
/// docs for the phase order and the built-in implementations.
///
/// All hooks receive the [`ListenerCore`] — the listener's queues,
/// counters, configuration, and crypto identity.
pub trait DefensePolicy<B: HashBackend>: fmt::Debug {
    /// Short diagnostic name.
    fn name(&self) -> &'static str;

    /// A fresh SYN arrived (no existing half-open/established state).
    /// `pressure` reports queue fullness at arrival. Returns the
    /// decision and does nothing the listener could observe: no reply,
    /// no ISN mint, no counter — whatever the decision costs happens in
    /// [`issue_flush`](DefensePolicy::issue_flush) or
    /// [`answer_syn`](DefensePolicy::answer_syn). The default admits
    /// under no pressure and declines otherwise (stock drop behaviour).
    ///
    /// The listener emits a [`SynDisposition::Deferred`] run's replies
    /// before it acts on any other disposition, before any non-SYN
    /// segment is processed and before the step call returns, so
    /// replies, events, counters, and ISN order do not depend on how a
    /// segment sequence is split into calls.
    fn on_syn(
        &mut self,
        core: &mut ListenerCore<B>,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        pressure: QueuePressure,
    ) -> SynDisposition {
        let _ = (core, now, flow, seg);
        if pressure.any() {
            SynDisposition::Decline
        } else {
            SynDisposition::Admit
        }
    }

    /// Answers the SYN this policy's [`on_syn`](DefensePolicy::on_syn)
    /// just returned [`SynDisposition::Inline`] for (any deferred run
    /// has been flushed in between). Never called otherwise, so the
    /// default does nothing.
    fn answer_syn(
        &mut self,
        core: &mut ListenerCore<B>,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) {
        let _ = (core, now, flow, seg, out);
    }

    /// Emits the reply of every SYN [`on_syn`](DefensePolicy::on_syn)
    /// deferred, in arrival order, with the issuance crypto (pre-images,
    /// cookie MACs, server-ISN mints) staged through the backend's batch
    /// interface. The default does nothing (nothing is ever deferred by
    /// default).
    fn issue_flush(&mut self, core: &mut ListenerCore<B>, now: SimTime, out: &mut ListenerOutput) {
        let _ = (core, now, out);
    }

    /// Offers a solution-bearing ACK from an unknown flow to the batched
    /// verification pipeline: [`AckClass::Pending`] means it was staged
    /// in `run`, whose length is the number of ACKs already collected
    /// ahead of it (for queue-admission gating). Only called for
    /// segments with `ACK` set, `RST` clear, a solution option present,
    /// and no listener or policy state for the flow.
    fn classify_ack(
        &mut self,
        core: &mut ListenerCore<B>,
        flow: FlowKey,
        seg: &TcpSegment,
        run: &mut SolutionRun,
        out: &mut ListenerOutput,
    ) -> AckClass {
        let _ = (core, flow, seg, run, out);
        AckClass::Sequential
    }

    /// Batched verification chokepoint: appends one verdict per request.
    /// Returns `false` if this policy does not verify solutions (the
    /// default); a stack delegates to its first verifying layer.
    fn verify(
        &mut self,
        core: &mut ListenerCore<B>,
        now_ts: u32,
        requests: &[VerifyRequest],
        verdicts: &mut Vec<Result<(), VerifyError>>,
    ) -> bool {
        let _ = (core, now_ts, requests, verdicts);
        false
    }

    /// An ACK matched no listener state (not established, no half-open,
    /// not claimed by the batch collector): the stateless completion
    /// phase. Return [`AckDisposition::Unclaimed`] to let the listener
    /// apply the stock fallback (RST if the segment carried data/FIN).
    fn on_ack(
        &mut self,
        core: &mut ListenerCore<B>,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) -> AckDisposition {
        let _ = (core, now, flow, seg, out);
        AckDisposition::Unclaimed
    }

    /// A connection reached the accept queue (any path). Invoked by the
    /// listener after the segment (or batch) that established it.
    fn on_established(&mut self, core: &mut ListenerCore<B>, flow: FlowKey, via: EstablishedVia) {
        let _ = (core, flow, via);
    }

    /// Periodic maintenance, driven by [`Listener::poll`](crate::Listener::poll):
    /// cache expiry, closed-loop difficulty control.
    fn tick(&mut self, core: &mut ListenerCore<B>, now: SimTime) {
        let _ = (core, now);
    }

    /// Drops any per-flow policy state (e.g. a SYN-cache entry) — the
    /// listener calls this on RST.
    fn forget_flow(&mut self, flow: &FlowKey) {
        let _ = flow;
    }

    /// Whether the policy holds per-flow handshake state for `flow`
    /// (keeps such flows out of the batched-solution fast path).
    fn has_flow_state(&self, flow: &FlowKey) -> bool {
        let _ = flow;
        false
    }

    /// Runtime difficulty tuning (the paper's sysctl analogue). Returns
    /// whether the new difficulty was applied — `false` for policies
    /// without a difficulty knob, and for closed-loop policies that own
    /// the knob themselves.
    fn set_difficulty(&mut self, difficulty: Difficulty) -> bool {
        let _ = difficulty;
        false
    }

    /// Policy-level observability snapshot.
    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }
}

/// The factory signature [`PolicyBuilder`] wraps: builds a fresh policy
/// bound to a listener's secret and hash backend. Policies are `Send`
/// so listener shards (one live policy each) can be stepped on scoped
/// worker threads by [`crate::ShardedListener`].
pub type BuildFn<B> = dyn Fn(&ServerSecret, &B) -> Box<dyn DefensePolicy<B> + Send> + Send + Sync;

/// A clonable, named factory for [`DefensePolicy`] instances — what
/// configurations store ([`hostsim::ServerParams`-style structs] keep a
/// builder; each listener builds its own live policy at construction,
/// binding it to the listener's secret and backend).
pub struct PolicyBuilder<B: HashBackend> {
    label: String,
    build: Arc<BuildFn<B>>,
}

impl<B: HashBackend> Clone for PolicyBuilder<B> {
    fn clone(&self) -> Self {
        PolicyBuilder {
            label: self.label.clone(),
            build: Arc::clone(&self.build),
        }
    }
}

impl<B: HashBackend> fmt::Debug for PolicyBuilder<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PolicyBuilder({})", self.label)
    }
}

impl<B: HashBackend + 'static> PolicyBuilder<B> {
    /// Wraps an arbitrary factory under a display label.
    pub fn new<F>(label: impl Into<String>, build: F) -> Self
    where
        F: Fn(&ServerSecret, &B) -> Box<dyn DefensePolicy<B> + Send> + Send + Sync + 'static,
    {
        PolicyBuilder {
            label: label.into(),
            build: Arc::new(build),
        }
    }

    /// No protection: queue overflow drops SYNs.
    pub fn none() -> Self {
        PolicyBuilder::new("none", |_, _| Box::new(NoDefense))
    }

    /// SYN cache (§2.1): overflow spills into a reduced-state table.
    pub fn syn_cache(cfg: SynCacheConfig) -> Self {
        PolicyBuilder::new("syncache", move |_, _| Box::new(SynCacheDefense::new(cfg)))
    }

    /// SYN cookies engage when the listen queue is full.
    pub fn syn_cookies() -> Self {
        PolicyBuilder::new("cookies", |secret, _| {
            Box::new(SynCookieDefense::new(secret))
        })
    }

    /// Client puzzles engage under queue pressure (precedence over
    /// cookies, §5).
    pub fn puzzles(cfg: PuzzleConfig) -> Self {
        Self::puzzle_defense(cfg, None, None)
    }

    /// Near-stateless client puzzles (the rspow design): challenges are
    /// bound to a PRF-derived time-windowed server nonce instead of a
    /// per-challenge clock reading, accepted strictly in the issuing or
    /// the following window, and replay admissions — the only state the
    /// policy retains — are purged at every window rollover. `window_len`
    /// is the window length in puzzle clock units (seconds).
    pub fn stateless_puzzles(cfg: PuzzleConfig, window_len: u32) -> Self {
        Self::puzzle_defense(cfg, Some(window_len), None)
    }

    /// Client puzzles with closed-loop difficulty control (§7): the
    /// controller observes the listener once per second of simulated
    /// time and retunes the difficulty in force.
    pub fn adaptive_puzzles(cfg: PuzzleConfig, controller: AdaptiveDifficulty) -> Self {
        Self::puzzle_defense(cfg, None, Some(controller))
    }

    fn puzzle_defense(
        cfg: PuzzleConfig,
        window_len: Option<u32>,
        controller: Option<AdaptiveDifficulty>,
    ) -> Self {
        let label = puzzle_label(controller.is_some(), window_len.is_some(), cfg.algo);
        PolicyBuilder::new(label, move |secret, backend| {
            Box::new(PuzzleDefense::new(
                cfg.clone(),
                window_len,
                controller.clone(),
                secret,
                backend,
            ))
        })
    }

    /// Layered composition: each SYN/ACK is offered to the layers in
    /// order; the first that handles it wins (e.g. SYN-cache spillover
    /// *then* puzzles).
    pub fn stacked(layers: Vec<PolicyBuilder<B>>) -> Self {
        let label = format!(
            "stacked[{}]",
            layers
                .iter()
                .map(|l| l.label.as_str())
                .collect::<Vec<_>>()
                .join("+")
        );
        PolicyBuilder::new(label, move |secret, backend| {
            Box::new(Stacked::new(
                layers.iter().map(|l| l.build(secret, backend)).collect(),
            ))
        })
    }

    /// The builder's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Builds a fresh policy bound to `secret` and `backend`.
    pub fn build(&self, secret: &ServerSecret, backend: &B) -> Box<dyn DefensePolicy<B> + Send> {
        (self.build)(secret, backend)
    }
}

/// No protection: the listen queue overflows and SYNs are dropped.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoDefense;

impl<B: HashBackend> DefensePolicy<B> for NoDefense {
    fn name(&self) -> &'static str {
        "none"
    }
}

/// SYN cookies (§2.1 baseline): a stateless cookie SYN-ACK when the
/// listen queue is full. Stock Linux behaviour is preserved: a SYN
/// arriving while the *accept* queue is full is dropped — cookies only
/// address listen-queue overflow, which is why they fail against
/// connection floods (§6.2).
#[derive(Debug)]
pub struct SynCookieDefense {
    codec: SynCookieCodec,
    /// SYNs deferred by `on_syn` awaiting the next `issue_flush`:
    /// `(flow, client ISN, client MSS, client TS echo)`.
    pending: Vec<(FlowKey, u32, u16, Option<u32>)>,
    /// Reusable batched-MAC staging (message arena plus the inner-pass
    /// and outer-pass digest buffers): after warm-up a flush allocates
    /// nothing on the crypto path.
    arena: MessageArena,
    inner_digests: Vec<Digest>,
    tags: Vec<Digest>,
}

impl SynCookieDefense {
    /// Builds the cookie codec from the listener's secret.
    pub fn new(secret: &ServerSecret) -> Self {
        SynCookieDefense {
            codec: SynCookieCodec::new(*secret.as_bytes()),
            pending: Vec::new(),
            arena: MessageArena::new(),
            inner_digests: Vec::new(),
            tags: Vec::new(),
        }
    }
}

impl<B: HashBackend> DefensePolicy<B> for SynCookieDefense {
    fn name(&self) -> &'static str {
        "cookies"
    }

    fn on_syn(
        &mut self,
        _core: &mut ListenerCore<B>,
        _now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        pressure: QueuePressure,
    ) -> SynDisposition {
        if !pressure.any() {
            return SynDisposition::Admit;
        }
        if pressure.accept_full {
            return SynDisposition::Decline;
        }
        self.pending.push((
            flow,
            seg.seq,
            seg.mss().unwrap_or(536),
            seg.timestamps().map(|(tsval, _)| tsval),
        ));
        SynDisposition::Deferred
    }

    fn issue_flush(&mut self, core: &mut ListenerCore<B>, now: SimTime, out: &mut ListenerOutput) {
        if self.pending.is_empty() {
            return;
        }
        let cfg = core.config();
        let (local_addr, port, adv_mss, use_ts) =
            (cfg.local_addr, cfg.port, cfg.mss, cfg.use_timestamps);
        let now_ts = puzzle_clock(now);
        let counter = cookie_counter(now);
        // Both HMAC passes of every cookie MAC, each as one batched
        // midstate-seeded SHA-256 sweep over the arena (the padded key
        // blocks are pre-compressed into the codec's seeds).
        self.arena.clear();
        self.inner_digests.clear();
        self.tags.clear();
        for &(flow, client_isn, mss, _) in &self.pending {
            let (mss_idx, _) = SynCookieCodec::quantize_mss(mss);
            self.codec.push_inner(
                &mut self.arena,
                flow.addr,
                flow.port,
                local_addr,
                port,
                client_isn,
                counter,
                mss_idx,
            );
        }
        core.backend().sha256_arena_seeded(
            &self.codec.inner_midstate(),
            &self.arena,
            &mut self.inner_digests,
        );
        self.arena.clear();
        for inner in &self.inner_digests {
            self.codec.push_outer(&mut self.arena, inner);
        }
        core.backend().sha256_arena_seeded(
            &self.codec.outer_midstate(),
            &self.arena,
            &mut self.tags,
        );
        let stats = core.stats_mut();
        stats.cookies_sent += self.pending.len() as u64;
        stats.issue_hashes += 2 * self.pending.len() as u64;
        for (&(flow, client_isn, mss, client_ts), tag) in self.pending.iter().zip(&self.tags) {
            let (mss_idx, _) = SynCookieCodec::quantize_mss(mss);
            let isn = SynCookieCodec::cookie_from_tag(tag, counter, mss_idx);
            // Cookies cannot carry window scale; MSS is quantized into
            // the cookie itself. The SYN-ACK advertises the server MSS
            // as usual.
            let mut b = SegmentBuilder::new(port, flow.port)
                .seq(isn)
                .ack_num(client_isn.wrapping_add(1))
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .mss(adv_mss);
            if let (true, Some(tsval)) = (use_ts, client_ts) {
                b = b.timestamps(now_ts, tsval);
            }
            out.replies.push((flow.addr, b.build()));
        }
        self.pending.clear();
    }

    fn on_ack(
        &mut self,
        core: &mut ListenerCore<B>,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) -> AckDisposition {
        let cfg = core.config();
        let (local_addr, port) = (cfg.local_addr, cfg.port);
        let cookie = seg.ack.wrapping_sub(1);
        let client_isn = seg.seq.wrapping_sub(1);
        let mss = self.codec.validate(
            flow.addr,
            flow.port,
            local_addr,
            port,
            client_isn,
            cookie,
            cookie_counter(now),
        );
        match mss {
            Some(mss) => {
                if core.accept_queue_full() {
                    core.stats_mut().accept_overflow_drops += 1;
                    out.events.push(ListenerEvent::AcceptOverflow { flow });
                    return AckDisposition::Consumed;
                }
                let mss = core.admit_mss(mss);
                core.finish_establish(
                    flow,
                    seg.ack,
                    mss,
                    EstablishedVia::Cookie,
                    &seg.payload,
                    seg.flags.contains(TcpFlags::FIN),
                    out,
                );
                AckDisposition::Consumed
            }
            None => AckDisposition::Unclaimed,
        }
    }
}

/// SYN cache (the Lemon 2002 mitigation, §2.1): overflowing half-opens
/// spill into a larger reduced-state table. "Once the cache is full, the
/// server will default to the same behavior it performed when its
/// backlog limit is reached."
#[derive(Debug)]
pub struct SynCacheDefense {
    cfg: SynCacheConfig,
    /// flow → (server ISN, expiry instant). No retransmission state.
    cache: HashMap<FlowKey, (u32, SimTime)>,
}

impl SynCacheDefense {
    /// An empty cache with the given parameters.
    pub fn new(cfg: SynCacheConfig) -> Self {
        SynCacheDefense {
            cfg,
            cache: HashMap::new(),
        }
    }
}

impl<B: HashBackend> DefensePolicy<B> for SynCacheDefense {
    fn name(&self) -> &'static str {
        "syncache"
    }

    fn on_syn(
        &mut self,
        _core: &mut ListenerCore<B>,
        _now: SimTime,
        _flow: FlowKey,
        _seg: &TcpSegment,
        pressure: QueuePressure,
    ) -> SynDisposition {
        if !pressure.any() {
            SynDisposition::Admit
        } else if pressure.accept_full || self.cache.len() >= self.cfg.capacity {
            SynDisposition::Decline
        } else {
            // Spill into the reduced-state cache while it has room (and
            // the accept path could still admit a completion). The entry
            // is per-flow state and its SYN-ACK takes the next ISN, so
            // it is made at once, not at a flush.
            SynDisposition::Inline
        }
    }

    fn answer_syn(
        &mut self,
        core: &mut ListenerCore<B>,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) {
        let cfg = core.config();
        let (port, adv_mss, use_ts) = (cfg.port, cfg.mss, cfg.use_timestamps);
        let now_ts = puzzle_clock(now);
        let client_ts = seg.timestamps().map(|(tsval, _)| tsval);
        let server_isn = core.next_server_isn(flow);
        self.cache
            .insert(flow, (server_isn, now + self.cfg.lifetime));
        let reply = synack_segment(
            port,
            flow,
            server_isn,
            seg.seq,
            adv_mss,
            (use_ts && client_ts.is_some()).then_some((now_ts, client_ts.unwrap_or(0))),
        );
        core.stats_mut().synacks_sent += 1;
        out.replies.push((flow.addr, reply));
    }

    fn on_ack(
        &mut self,
        core: &mut ListenerCore<B>,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) -> AckDisposition {
        // Reduced-state promotion. The expiry boundary is deliberately
        // inclusive here (`now > expires` keeps an ACK landing at the
        // exact expiry instant alive) while `tick`'s reaper is strict
        // (`expires > now` removes it) — inherited from the enum-era
        // listener and pinned by the golden digests, so an entry's fate
        // at now == expires depends on same-instant poll/segment order.
        if let Some(&(server_isn, expires)) = self.cache.get(&flow) {
            if seg.ack == server_isn.wrapping_add(1) {
                if now > expires {
                    self.cache.remove(&flow);
                    core.stats_mut().syncache_expired += 1;
                } else if core.accept_queue_full() {
                    // Partial state cannot linger like a full half-open:
                    // the entry stays until expiry, the ACK is dropped.
                    core.stats_mut().accept_overflow_drops += 1;
                    out.events.push(ListenerEvent::AcceptOverflow { flow });
                    return AckDisposition::Consumed;
                } else {
                    self.cache.remove(&flow);
                    // The cache kept no MSS state; fall back to the
                    // minimum like cookies do (the degradation §2.1
                    // mitigations accept).
                    let mss = core.admit_mss(536);
                    core.finish_establish(
                        flow,
                        server_isn.wrapping_add(1),
                        mss,
                        EstablishedVia::SynCache,
                        &seg.payload,
                        seg.flags.contains(TcpFlags::FIN),
                        out,
                    );
                    return AckDisposition::Consumed;
                }
            }
        }
        AckDisposition::Unclaimed
    }

    fn tick(&mut self, core: &mut ListenerCore<B>, now: SimTime) {
        let before = self.cache.len();
        self.cache.retain(|_, (_, expires)| *expires > now);
        core.stats_mut().syncache_expired += (before - self.cache.len()) as u64;
    }

    fn forget_flow(&mut self, flow: &FlowKey) {
        self.cache.remove(flow);
    }

    fn has_flow_state(&self, flow: &FlowKey) -> bool {
        self.cache.contains_key(flow)
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            syn_cache_len: self.cache.len(),
            // Every cache entry is pre-proof per-flow state — exactly
            // the reduced-state footprint §2.1 trades for capacity.
            state_bytes: self.cache.len() * std::mem::size_of::<(FlowKey, (u32, SimTime))>(),
            ..PolicyStats::default()
        }
    }
}

/// How often the closed difficulty loop observes the listener.
const CONTROL_PERIOD: SimDuration = SimDuration::from_secs(1);

/// The registry name of each puzzle configuration — what
/// [`PolicyBuilder::label`] and [`DefensePolicy::name`] both report.
fn puzzle_label(adaptive: bool, windowed: bool, algo: AlgoId) -> &'static str {
    match (adaptive, windowed, algo) {
        (true, ..) => "adaptive",
        (false, false, AlgoId::Prefix) => "puzzles",
        (false, false, AlgoId::Collide) => "puzzles-collide",
        (false, true, AlgoId::Prefix) => "stateless-puzzles",
        (false, true, AlgoId::Collide) => "stateless-collide",
    }
}

/// A fresh SYN the puzzle policy answers statelessly:
/// `(flow, client ISN, client TS echo)`.
type ChallengedSyn = (FlowKey, u32, Option<u32>);

/// Client puzzles (§5): a stateless challenge under queue pressure —
/// even when the accept queue overflows — latched for the configured
/// hysteresis hold; solution ACKs verified through the batch engine
/// with replay defence.
///
/// One state machine, parameterised at construction on two axes:
///
/// * **Nonce source** — what a challenge's pre-image binds to and what
///   its wire `timestamp` field carries. *Clock*: `h(secret ‖ T ‖ tuple)`
///   and the issue second `T`, aged against [`PuzzleConfig::expiry`].
///   *Window* (the rspow near-stateless design grafted onto the §5
///   flow): `h(N_w ‖ tuple)` for a per-window nonce
///   `N_w = HMAC(secret, label ‖ w)` (through the cached
///   [`puzzle_crypto::HmacKeySchedule`] midstates) and the window index
///   `w`, accepted only while `w` is the current or the previous window
///   — between `window_len` and `2·window_len` seconds of solving time.
///   The [`Verifier`] owns this decision ([`Verifier::with_window`]);
///   the policy reads it back through [`Verifier::window_prf`] and
///   keeps no flag of its own. Clients echo the field verbatim (the
///   SYN-ACK `tsval`, or the embedded challenge timestamp when TCP
///   timestamps are off), so nothing client-side differs between the
///   two.
/// * **Difficulty source** — *fixed* ([`PuzzleConfig::difficulty`],
///   retunable through [`DefensePolicy::set_difficulty`]) or the §7
///   *closed loop*: an owned [`AdaptiveDifficulty`] controller observes
///   the listener once per second of simulated time from
///   [`tick`](DefensePolicy::tick) and retunes the difficulty in force.
///
/// On either nonce source the policy holds **zero per-flow state before
/// a valid proof** — issuance keeps nothing keyed by flow (the pre-image
/// is recomputable from the echoed packet fields alone) and
/// [`DefensePolicy::has_flow_state`] stays `false`; replay admissions
/// are the only retained state. What the window source adds:
///
/// * **A bounded replay cache.** Admissions are keyed `(tuple, window)`,
///   so one tuple establishes at most once per window, and the cache is
///   purged at every rollover; the clock source's cache only sweeps
///   opportunistically on insert.
/// * **One compression per SYN, batched or not.** The windowed pre-image
///   message `nonce ‖ tuple` is a single SHA-256 block, so a
///   deferred-issuance flush is one arena sweep with no midstate
///   seeding, and the per-window nonce HMAC amortizes to nothing.
#[derive(Debug)]
pub struct PuzzleDefense<B: HashBackend> {
    cfg: PuzzleConfig,
    verifier: Verifier<B>,
    /// Controller latch: challenge every SYN until this instant.
    hold_until: SimTime,
    /// Reusable batch-verification buffers: after warm-up, flushing a
    /// run of solution ACKs allocates nothing.
    scratch: BatchScratch,
    /// SYNs deferred by `on_syn` awaiting the next `issue_flush`.
    /// Drained within every segment batch — never per-flow state that
    /// outlives a batch.
    pending: Vec<ChallengedSyn>,
    /// Reusable batched-issuance buffers (connection tuples, pre-image
    /// scratch, flow and ISN staging): after warm-up a flush's crypto
    /// path allocates nothing.
    issue_scratch: IssueScratch,
    tuples: Vec<ConnectionTuple>,
    flows: Vec<FlowKey>,
    isns: Vec<u32>,
    /// Window source only: the window whose nonce derivation has been
    /// charged to `issue_hashes` (the accounting analogue of the
    /// verifier's nonce memo).
    charged_window: Option<u32>,
    /// Window source only: the window at whose rollover the replay
    /// cache was last purged.
    purged_window: u32,
    /// The closed difficulty loop; `None` under fixed difficulty.
    control: Option<ControlLoop>,
}

/// The §7 closed loop: the controller plus what the listener did since
/// its last observation.
#[derive(Debug)]
struct ControlLoop {
    controller: AdaptiveDifficulty,
    next_obs: SimTime,
    /// Puzzle-path admissions since the last observation.
    puzzle_established: u64,
    /// Pressure-signal counters at the last observation:
    /// (challenges_sent, syns_dropped, accept_overflow_drops).
    prev: (u64, u64, u64),
}

impl<B: HashBackend> PuzzleDefense<B> {
    /// Builds the defence. `window_len` selects the nonce source: `None`
    /// binds each challenge to its issue second, `Some(len)` to the
    /// PRF-derived nonce of its `len`-second window. `controller`
    /// selects the difficulty source: `None` keeps `cfg.difficulty`,
    /// `Some` starts at the controller's current difficulty (its floor,
    /// unless pre-stepped) and lets it retune from the tick path. The
    /// verifier gets a sharded [`ReplayCache`], so a solution is
    /// admitted at most once per `(tuple, timestamp)` — `(tuple,
    /// window)` on the window source — inside the acceptance window.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.preimage_bits` is incompatible
    /// ([`validate_preimage_bits`]) with the highest difficulty the
    /// policy can reach — `cfg.difficulty`, or the controller's ceiling,
    /// which shares `k` with every step below it — so the per-SYN issue
    /// paths never re-validate; and when `window_len` is `Some(0)`.
    pub fn new(
        mut cfg: PuzzleConfig,
        window_len: Option<u32>,
        controller: Option<AdaptiveDifficulty>,
        secret: &ServerSecret,
        backend: &B,
    ) -> Self {
        let mut hardest = cfg.difficulty;
        if let Some(c) = &controller {
            cfg.difficulty = c.current();
            hardest = c.ceiling();
        }
        validate_preimage_bits(cfg.preimage_bits, hardest)
            .expect("invalid PuzzleConfig: preimage_bits incompatible with difficulty");
        let mut verifier = Verifier::with_backend(secret.clone(), backend.clone())
            .with_expiry(cfg.expiry)
            .with_algo(cfg.algo)
            .with_replay_cache(Arc::new(ReplayCache::default()));
        if let Some(len) = window_len {
            verifier = verifier.with_window(len);
        }
        if cfg.verify == crate::listener::VerifyMode::Oracle {
            verifier = verifier.with_oracle_proofs();
        }
        PuzzleDefense {
            cfg,
            verifier,
            hold_until: SimTime::ZERO,
            scratch: BatchScratch::new(),
            pending: Vec::new(),
            issue_scratch: IssueScratch::new(),
            tuples: Vec::new(),
            flows: Vec::new(),
            isns: Vec::new(),
            charged_window: None,
            purged_window: 0,
            control: controller.map(|controller| ControlLoop {
                controller,
                next_obs: SimTime::ZERO + CONTROL_PERIOD,
                puzzle_established: 0,
                prev: (0, 0, 0),
            }),
        }
    }

    /// Difficulty currently in force.
    pub fn difficulty(&self) -> Difficulty {
        self.cfg.difficulty
    }

    fn windowed(&self) -> bool {
        self.verifier.window_prf().is_some()
    }

    /// The controller head of `on_syn`. Puzzles engage when *either*
    /// queue is under pressure — §5 explicitly
    /// modifies the listening socket "to send a challenge when the
    /// protection is in effect, even if the accept queue overflows" —
    /// and stay engaged for the hysteresis hold after the last observed
    /// overflow (see [`PuzzleConfig::hold`]). Returns whether this SYN
    /// is challenged.
    fn engaged(&mut self, now: SimTime, pressure: QueuePressure) -> bool {
        if pressure.any() {
            self.hold_until = now + self.cfg.hold;
        }
        pressure.any() || now < self.hold_until
    }

    /// What a challenge issued at `now_ts` carries in its timestamp
    /// field: the clock reading itself, or the window index. On the
    /// window source this also charges the per-window nonce HMAC (two
    /// passes over the cached midstates) exactly once per window, at the
    /// first flush that touches the window.
    fn issue_stamp(&mut self, core: &mut ListenerCore<B>, now_ts: u32) -> u32 {
        let Some(prf) = self.verifier.window_prf() else {
            return now_ts;
        };
        let window = prf.window_of(now_ts);
        if self.charged_window != Some(window) {
            self.charged_window = Some(window);
            core.stats_mut().issue_hashes += 2;
        }
        window
    }

    /// The challenge SYN-ACK. `stamp` travels as `tsval` when the TS
    /// option is in play (clients echo it as `tsecr`), embedded in the
    /// challenge block otherwise.
    fn challenge_reply(
        &self,
        cfg: &ListenerConfig,
        (flow, client_isn, client_ts): ChallengedSyn,
        server_isn: u32,
        stamp: u32,
        preimage: &[u8],
    ) -> TcpSegment {
        let echo = client_ts.filter(|_| cfg.use_timestamps);
        let copt = ChallengeOption {
            k: self.cfg.difficulty.k(),
            m: self.cfg.difficulty.m(),
            preimage: preimage.to_vec(),
            timestamp: echo.is_none().then_some(stamp),
            algo: self.cfg.algo,
        };
        let mut b = SegmentBuilder::new(cfg.port, flow.port)
            .seq(server_isn)
            .ack_num(client_isn.wrapping_add(1))
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .mss(cfg.mss);
        if let Some(tsval) = echo {
            b = b.timestamps(stamp, tsval);
        }
        b.option(TcpOption::Challenge(copt)).build()
    }

    /// The front both solution paths share, with `run` holding the
    /// unverified solutions already collected ahead of this one: "first
    /// checks if the queue is full and only performs the verification
    /// procedure when there is room" (§5), then decodes the option into
    /// a [`VerifyRequest`] for the batch engine — the echoed timestamp is
    /// whatever `issue_stamp` put on the wire — and stages it in `run`
    /// with the client's re-sent MSS. `false` means the ACK was dealt
    /// with here (ignored or rejected).
    fn gate_and_parse(
        &self,
        core: &mut ListenerCore<B>,
        flow: FlowKey,
        seg: &TcpSegment,
        sol: &SolutionOption,
        run: &mut SolutionRun,
        out: &mut ListenerOutput,
    ) -> bool {
        if core.accept_queue_len() + run.len() >= core.config().accept_backlog {
            core.stats_mut().acks_ignored_queue_full += 1;
            out.events.push(ListenerEvent::AckIgnoredQueueFull { flow });
            return false;
        }
        let k = self.cfg.difficulty.k();
        // Timestamp source: TS option echo, else embedded in the block.
        let ts_echo = seg.timestamps().map(|(_, tsecr)| tsecr);
        let params = ChallengeParams {
            difficulty: self.cfg.difficulty,
            preimage_bits: self.cfg.preimage_bits as u8,
            timestamp: 0,
        };
        let (_, params, solution) = run.slot(core.tuple_for(flow, seg.seq.wrapping_sub(1)), params);
        let split = sol.split_into(
            k,
            self.cfg.preimage_bits,
            self.cfg.algo,
            ts_echo.is_none(),
            solution,
        );
        let Ok(embedded_ts) = split else {
            let reason = VerifyError::WrongSolutionCount {
                expected: k,
                got: 0,
            };
            core.note_rejection(flow, reason, out);
            return false;
        };
        params.timestamp = ts_echo.or(embedded_ts).unwrap_or(0);
        run.commit(flow, seg, core.admit_mss(sol.mss));
        true
    }

    /// The verification chokepoint both solution paths share, appending
    /// one verdict per request from the verifier's batch engine: via the
    /// reusable zero-allocation scratch on the calling thread, or fanned
    /// across scoped worker threads when [`PuzzleConfig::verify_workers`]
    /// is above one. Freshness frame, replay keying and the proof
    /// predicate (the algorithm's, or the simulation oracle's) all come
    /// from the verifier itself.
    fn verify_requests(
        &mut self,
        core: &mut ListenerCore<B>,
        now_ts: u32,
        requests: &[VerifyRequest],
        verdicts: &mut Vec<Result<(), VerifyError>>,
    ) {
        if self.cfg.verify_workers > 1 {
            let batch =
                self.verifier
                    .verify_batch_parallel(requests, now_ts, self.cfg.verify_workers);
            core.stats_mut().verify_hashes += batch.hashes;
            verdicts.extend(batch.verdicts);
        } else {
            core.stats_mut().verify_hashes +=
                self.verifier
                    .verify_batch_with(requests, now_ts, &mut self.scratch);
            verdicts.extend_from_slice(self.scratch.verdicts());
        }
    }
}

impl<B: HashBackend> DefensePolicy<B> for PuzzleDefense<B> {
    fn name(&self) -> &'static str {
        puzzle_label(self.control.is_some(), self.windowed(), self.cfg.algo)
    }

    fn on_syn(
        &mut self,
        _core: &mut ListenerCore<B>,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        pressure: QueuePressure,
    ) -> SynDisposition {
        if !self.engaged(now, pressure) {
            return SynDisposition::Admit;
        }
        // Stateless challenge, even if the accept queue is also
        // overflowing (§5).
        self.pending
            .push((flow, seg.seq, seg.timestamps().map(|(tsval, _)| tsval)));
        SynDisposition::Deferred
    }

    fn issue_flush(&mut self, core: &mut ListenerCore<B>, now: SimTime, out: &mut ListenerOutput) {
        if self.pending.is_empty() {
            return;
        }
        let now_ts = puzzle_clock(now);
        let stamp = self.issue_stamp(core, now_ts);
        self.tuples.clear();
        self.flows.clear();
        for &(flow, client_isn, _) in &self.pending {
            self.tuples.push(core.tuple_for(flow, client_isn));
            self.flows.push(flow);
        }
        // One batched sweep for every pre-image, then one for the
        // server ISNs (arrival order).
        let (difficulty, bits) = (self.cfg.difficulty, self.cfg.preimage_bits);
        let windowed = self.windowed();
        let scratch = &mut self.issue_scratch;
        if windowed {
            self.verifier
                .issue_batch_windowed(&self.tuples, now_ts, difficulty, bits, scratch)
        } else {
            self.verifier
                .issue_batch(&self.tuples, now_ts, difficulty, bits, scratch)
        }
        .expect("validated at config time");
        core.next_server_isn_batch(&self.flows, &mut self.isns);
        let stats = core.stats_mut();
        stats.challenges_sent += self.pending.len() as u64;
        // The pre-images; the ISN mint charges itself.
        stats.issue_hashes += self.pending.len() as u64;
        for (i, &syn) in self.pending.iter().enumerate() {
            let preimage = self.issue_scratch.preimage(i);
            let reply = self.challenge_reply(core.config(), syn, self.isns[i], stamp, preimage);
            out.replies.push((syn.0.addr, reply));
        }
        self.pending.clear();
    }

    fn classify_ack(
        &mut self,
        core: &mut ListenerCore<B>,
        flow: FlowKey,
        seg: &TcpSegment,
        run: &mut SolutionRun,
        out: &mut ListenerOutput,
    ) -> AckClass {
        let Some(sol) = seg.solution() else {
            return AckClass::Sequential;
        };
        if self.gate_and_parse(core, flow, seg, sol, run, out) {
            AckClass::Pending
        } else {
            AckClass::Handled
        }
    }

    fn verify(
        &mut self,
        core: &mut ListenerCore<B>,
        now_ts: u32,
        requests: &[VerifyRequest],
        verdicts: &mut Vec<Result<(), VerifyError>>,
    ) -> bool {
        self.verify_requests(core, now_ts, requests, verdicts);
        true
    }

    fn on_ack(
        &mut self,
        core: &mut ListenerCore<B>,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) -> AckDisposition {
        if let Some(sol) = seg.solution() {
            // Solution ACKs from stateless flows are diverted into the
            // batch pipeline before reaching this point. This one's flow
            // holds another layer's state (a SYN-cache entry keeps it
            // out of the collector, and a stack offers the ACK to that
            // layer first): same gate + chokepoint, for a run of one. The
            // listener flushes its own run before any segment reaches
            // `on_ack`, so the run taken here is empty.
            let mut run = core.take_solution_run();
            debug_assert!(run.is_empty(), "on_ack with solutions still staged");
            if self.gate_and_parse(core, flow, seg, sol, &mut run, out) {
                let mut verdicts = core.take_verdict_buf();
                self.verify_requests(core, puzzle_clock(now), run.requests(), &mut verdicts);
                core.settle_solutions(&mut run, &mut verdicts, out);
                core.put_verdict_buf(verdicts);
            }
            core.put_solution_run(run);
            return AckDisposition::Consumed;
        }
        // ACK without a solution while puzzles are required: the sender
        // either ignored our challenge or is flooding. Data draws the
        // deception RST (the listener's Unclaimed fallback); a pure ACK
        // is counted and ignored.
        if seg.payload.is_empty() && !seg.flags.contains(TcpFlags::FIN) {
            core.stats_mut().acks_without_solution += 1;
            AckDisposition::Consumed
        } else {
            AckDisposition::Unclaimed
        }
    }

    fn on_established(&mut self, _core: &mut ListenerCore<B>, _flow: FlowKey, via: EstablishedVia) {
        if let (Some(ctl), EstablishedVia::Puzzle) = (&mut self.control, via) {
            ctl.puzzle_established += 1;
        }
    }

    fn tick(&mut self, core: &mut ListenerCore<B>, now: SimTime) {
        // Window source: purge replay admissions at every rollover.
        // Entries are keyed by window index, so anything older than the
        // previous window can never be accepted again and is dropped
        // eagerly — this is what keeps retained state O(windows), not
        // O(flows).
        if let Some(prf) = self.verifier.window_prf() {
            let window = prf.window_of(puzzle_clock(now));
            if window != self.purged_window {
                self.purged_window = window;
                if let Some(cache) = self.verifier.replay_cache() {
                    cache.purge_expired(window, 1);
                }
            }
        }
        let Some(ctl) = &mut self.control else {
            return;
        };
        if now < ctl.next_obs {
            return;
        }
        // One observation per due poll: a caller polling less often than
        // the period collapses the whole gap into a single observation
        // instead of feeding the controller phantom zero-delta "calm"
        // periods that would relax difficulty mid-attack.
        let s = *core.stats_mut();
        let under_pressure = s.challenges_sent > ctl.prev.0
            || s.syns_dropped > ctl.prev.1
            || s.accept_overflow_drops > ctl.prev.2;
        ctl.prev = (s.challenges_sent, s.syns_dropped, s.accept_overflow_drops);
        let obs = AdaptiveObservation {
            puzzle_established: ctl.puzzle_established,
            under_pressure,
        };
        ctl.puzzle_established = 0;
        self.cfg.difficulty = ctl.controller.observe(obs);
        ctl.next_obs = now + CONTROL_PERIOD;
    }

    // `has_flow_state` deliberately stays the trait default (`false`
    // for every flow): the policy's defining property is zero per-flow
    // state before a valid proof.

    fn set_difficulty(&mut self, difficulty: Difficulty) -> bool {
        // The closed loop owns its knob: external tuning is refused so
        // callers learn it did not stick. Otherwise the same config-time
        // validation as construction: refusing an incompatible retune
        // keeps the hot-path "validated at config time" invariant honest.
        if self.control.is_some()
            || validate_preimage_bits(self.cfg.preimage_bits, difficulty).is_err()
        {
            return false;
        }
        self.cfg.difficulty = difficulty;
        true
    }

    fn stats(&self) -> PolicyStats {
        // One whole-key `(tuple, timestamp)` admission per replay-cache
        // entry. The clock source never purges the cache from its tick
        // path (shards sweep opportunistically on insert only), so under
        // sustained admissions it grows with the attack duration until a
        // shard crosses its sweep threshold; the window source purges
        // every rollover, bounding it to the acceptance window.
        let admissions = self.verifier.replay_cache().map_or(0, |c| c.len());
        PolicyStats {
            difficulty: Some(self.cfg.difficulty),
            adaptive: self.control.is_some(),
            state_bytes: admissions * std::mem::size_of::<(u128, u32)>(),
            ..PolicyStats::default()
        }
    }
}

/// Layered composition: every hook is offered to the layers in order
/// and the first layer that handles it wins, turning the paper's
/// hard-coded precedence rules ("challenges take precedence over the
/// SYN cookies") into explicit composition.
///
/// A stack of one behaves identically to its sole layer (property-tested
/// in `crates/tcpstack/tests/proptest_policy.rs`). At most one layer
/// should verify solutions.
#[derive(Debug)]
pub struct Stacked<B: HashBackend> {
    layers: Vec<Box<dyn DefensePolicy<B> + Send>>,
    /// The layer whose `on_syn` absorbed the latest SYN — the one an
    /// `Inline` disposition's `answer_syn` goes to.
    absorbing: usize,
}

impl<B: HashBackend> Stacked<B> {
    /// Composes `layers`, consulted in order.
    pub fn new(layers: Vec<Box<dyn DefensePolicy<B> + Send>>) -> Self {
        Stacked {
            layers,
            absorbing: 0,
        }
    }
}

impl<B: HashBackend> DefensePolicy<B> for Stacked<B> {
    fn name(&self) -> &'static str {
        "stacked"
    }

    fn on_syn(
        &mut self,
        core: &mut ListenerCore<B>,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        pressure: QueuePressure,
    ) -> SynDisposition {
        // Every layer sees the SYN until one absorbs it: an early layer's
        // Admit must not stop a later latched layer (e.g. puzzles in
        // their hysteresis hold) from challenging; a Decline stays the
        // verdict unless a later layer absorbs. The fold starts from the
        // stock disposition so a pressured SYN is never admitted merely
        // because no layer claimed it (an empty stack ≡ NoDefense).
        let mut disposition = if pressure.any() {
            SynDisposition::Decline
        } else {
            SynDisposition::Admit
        };
        for (i, layer) in self.layers.iter_mut().enumerate() {
            match layer.on_syn(core, now, flow, seg, pressure) {
                SynDisposition::Admit => {}
                SynDisposition::Decline => disposition = SynDisposition::Decline,
                absorbed => {
                    self.absorbing = i;
                    return absorbed;
                }
            }
        }
        disposition
    }

    fn answer_syn(
        &mut self,
        core: &mut ListenerCore<B>,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) {
        self.layers[self.absorbing].answer_syn(core, now, flow, seg, out);
    }

    fn issue_flush(&mut self, core: &mut ListenerCore<B>, now: SimTime, out: &mut ListenerOutput) {
        // Queue pressure is constant across a deferred run (a flush
        // precedes anything that could change it), so at most one layer
        // holds pending SYNs at any flush; delegating in layer order
        // therefore preserves arrival order.
        for layer in &mut self.layers {
            layer.issue_flush(core, now, out);
        }
    }

    fn classify_ack(
        &mut self,
        core: &mut ListenerCore<B>,
        flow: FlowKey,
        seg: &TcpSegment,
        run: &mut SolutionRun,
        out: &mut ListenerOutput,
    ) -> AckClass {
        for layer in &mut self.layers {
            match layer.classify_ack(core, flow, seg, run, out) {
                AckClass::Sequential => continue,
                other => return other,
            }
        }
        AckClass::Sequential
    }

    fn verify(
        &mut self,
        core: &mut ListenerCore<B>,
        now_ts: u32,
        requests: &[VerifyRequest],
        verdicts: &mut Vec<Result<(), VerifyError>>,
    ) -> bool {
        self.layers
            .iter_mut()
            .any(|layer| layer.verify(core, now_ts, requests, verdicts))
    }

    fn on_ack(
        &mut self,
        core: &mut ListenerCore<B>,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) -> AckDisposition {
        for layer in &mut self.layers {
            if layer.on_ack(core, now, flow, seg, out) == AckDisposition::Consumed {
                return AckDisposition::Consumed;
            }
        }
        AckDisposition::Unclaimed
    }

    fn on_established(&mut self, core: &mut ListenerCore<B>, flow: FlowKey, via: EstablishedVia) {
        for layer in &mut self.layers {
            layer.on_established(core, flow, via);
        }
    }

    fn tick(&mut self, core: &mut ListenerCore<B>, now: SimTime) {
        for layer in &mut self.layers {
            layer.tick(core, now);
        }
    }

    fn forget_flow(&mut self, flow: &FlowKey) {
        for layer in &mut self.layers {
            layer.forget_flow(flow);
        }
    }

    fn has_flow_state(&self, flow: &FlowKey) -> bool {
        self.layers.iter().any(|layer| layer.has_flow_state(flow))
    }

    fn set_difficulty(&mut self, difficulty: Difficulty) -> bool {
        let mut applied = false;
        for layer in &mut self.layers {
            applied |= layer.set_difficulty(difficulty);
        }
        applied
    }

    fn stats(&self) -> PolicyStats {
        let mut merged = PolicyStats::default();
        for layer in &self.layers {
            let s = layer.stats();
            merged.syn_cache_len += s.syn_cache_len;
            merged.difficulty = merged.difficulty.or(s.difficulty);
            merged.adaptive |= s.adaptive;
            merged.state_bytes += s.state_bytes;
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puzzle_crypto::ScalarBackend;

    fn secret() -> ServerSecret {
        ServerSecret::from_bytes([7; 32])
    }

    #[test]
    fn builder_labels() {
        let b: PolicyBuilder<ScalarBackend> = PolicyBuilder::stacked(vec![
            PolicyBuilder::syn_cache(SynCacheConfig::default()),
            PolicyBuilder::puzzles(PuzzleConfig::default()),
        ]);
        assert_eq!(b.label(), "stacked[syncache+puzzles]");
        let p = b.build(&secret(), &ScalarBackend);
        assert_eq!(p.name(), "stacked");
        assert_eq!(p.stats().difficulty, Some(Difficulty::new(2, 17).unwrap()));
    }

    #[test]
    fn set_difficulty_reports_whether_it_applied() {
        let s = secret();
        let d = Difficulty::new(3, 9).unwrap();
        let mut none = NoDefense;
        assert!(!DefensePolicy::<ScalarBackend>::set_difficulty(
            &mut none, d
        ));
        let mut puzzles =
            PuzzleDefense::new(PuzzleConfig::default(), None, None, &s, &ScalarBackend);
        assert!(DefensePolicy::<ScalarBackend>::set_difficulty(
            &mut puzzles,
            d
        ));
        assert_eq!(puzzles.difficulty(), d);
        // The closed loop owns its knob: external tuning is refused.
        let ctl = AdaptiveDifficulty::new(
            Difficulty::new(2, 12).unwrap(),
            Difficulty::new(2, 20).unwrap(),
            10.0,
            3,
        )
        .unwrap();
        let mut adaptive =
            PuzzleDefense::new(PuzzleConfig::default(), None, Some(ctl), &s, &ScalarBackend);
        assert!(!DefensePolicy::<ScalarBackend>::set_difficulty(
            &mut adaptive,
            d
        ));
        assert_eq!(adaptive.difficulty(), Difficulty::new(2, 12).unwrap());
        let stats = DefensePolicy::<ScalarBackend>::stats(&adaptive);
        assert!(stats.adaptive);
        assert_eq!(stats.difficulty, Some(Difficulty::new(2, 12).unwrap()));
    }
}
