//! RSS-style sharded listener: N independent [`Listener`] shards behind
//! one facade, for multi-core scale-out of the whole admission path.
//!
//! The paper's cost model (§4–§6) assumes the server can spend *all*
//! available cores on puzzle work, but a single [`Listener`] is a serial
//! state machine: batched verification fans hashing out, yet SYN
//! admission, cookie/cache bookkeeping, and policy ticks all funnel
//! through one core. Real stacks shard connection state by RSS hash —
//! the NIC computes a Toeplitz hash over the flow tuple and steers each
//! flow to one core's queue, so per-flow state never crosses cores.
//! [`ShardedListener`] reproduces that layout in sans-IO form:
//!
//! * **Dispatch** is `mix64(flow) & (N − 1)` over the client
//!   `(address, port)` — the same splitmix64 finalizer
//!   ([`puzzle_core::mix64`]) the replay cache's shard choice and
//!   `verify_batch_parallel`'s worker partitioning already use (each
//!   layer hashes its own key, so the *indices* differ, but placement
//!   is deterministic and uniformly spread at every layer by one shared
//!   mixing function). Every segment of one flow (SYN, solution ACK,
//!   data, RST) lands on the same shard, which therefore owns all of
//!   that flow's state — including its own replay cache and verify
//!   pipeline, so no admission state crosses shards.
//! * **Each shard** is a full [`Listener`]: its own queues (a 1/N slice
//!   of the configured backlogs, like per-core RX queues), its own live
//!   policy built from the shared [`PolicyBuilder`], and the shared
//!   secret — challenges and cookies stay verifiable wherever the ACK
//!   lands, and dispatch determinism makes that the issuing shard.
//! * **Batch stepping** ([`ShardedListener::on_segments`]) partitions
//!   the inbound batch into per-shard index lists (held in scratch that
//!   is reused across calls — the dispatch path performs no heap
//!   allocation in steady state) and streams one batch descriptor per
//!   non-empty shard to a **persistent worker thread** over a bounded
//!   SPSC ring ([`crate::ring`]). The workers are spawned once, at
//!   construction, and live until the listener drops — a steady-state
//!   step creates **zero threads**. Each worker steps its shard over
//!   [`Listener::on_segments_indexed`] and publishes the result through
//!   a per-shard completion slot; the facade waits for every dispatched
//!   job and merges the emitted segments and events back in
//!   *shard-major, input order*: everything shard 0 emitted (in its
//!   input order) before everything shard 1 emitted, and so on. Because
//!   shards share no mutable state and the merge order is fixed, the
//!   output is deterministic regardless of thread scheduling — and
//!   byte-identical to stepping the shards in-line, which is what the
//!   facade does on a single-core host (where a worker handoff buys
//!   nothing) or when constructed with [`ShardPipeline::Inline`].
//!   [`ShardedListener::poll`] broadcasts a tick job through the same
//!   workers, so the whole steady-state step loop is spawn-free.
//!
//! # Worker / ring lifecycle
//!
//! ```text
//!  construction            steady state                        drop
//!  ────────────            ────────────                        ────
//!  spawn worker 0 ──ring──▸ pop job ▸ step shard 0 ▸ slot 0 ─▸ Shutdown, join
//!  spawn worker 1 ──ring──▸ pop job ▸ step shard 1 ▸ slot 1 ─▸ Shutdown, join
//!     ⋮                        (park when idle)                   ⋮
//! ```
//!
//! The backpressure rule: at most **one job per worker is ever in
//! flight** — `on_segments`/`poll` dispatch then block until every
//! completion slot reports done before returning — so the rings (fixed
//! capacity, cache-line-padded head/tail, lock-free) can never fill and
//! results never queue. Ring depth and per-shard job counters are
//! observable through [`ShardedListener::pipeline_stats`]. Dropping the
//! listener sends each worker a shutdown job and joins it: no thread
//! outlives the facade.
//!
//! With `shards = 1` the facade is a transparent wrapper: every call
//! delegates to the single inner listener unchanged and in-line (no
//! workers are spawned, whatever the pipeline mode), so existing golden
//! digests reproduce byte-for-byte (asserted by the golden suite and
//! property-tested against arbitrary segment batches in
//! `crates/tcpstack/tests/proptest_shard.rs` — which also proves the
//! persistent pipeline segment-for-segment identical to in-line
//! stepping at higher shard counts).

use std::net::Ipv4Addr;

use crate::listener::{FlowKey, Listener, ListenerConfig, ListenerOutput, ListenerStats};
use crate::pipeline::WorkerPool;
use crate::policy::{PolicyBuilder, PolicyStats};
use crate::segment::TcpSegment;
use netsim::SimTime;
use puzzle_core::{mix64, Difficulty, ServerSecret};
use puzzle_crypto::{HashBackend, ScalarBackend};

/// How a multi-shard listener steps its shards.
///
/// Whatever the mode, `shards = 1` always steps in-line (the facade is
/// a transparent wrapper there) and the emitted output is byte-for-byte
/// identical across modes — the pipeline changes *where* the work runs,
/// never what it produces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPipeline {
    /// [`ShardPipeline::Persistent`] when the host has more than one
    /// hardware thread, [`ShardPipeline::Inline`] otherwise (a worker
    /// handoff on a single core only adds latency). The default.
    #[default]
    Auto,
    /// Step shards serially on the calling thread. What every
    /// single-core capture of the bench suite measures.
    Inline,
    /// Persistent per-shard worker threads fed by SPSC rings: spawn
    /// once at construction, stream batch descriptors, join on drop.
    Persistent,
}

/// Per-shard observability for the persistent pipeline: ring depth,
/// jobs dispatched, and the shard's queue occupancy — the counters a
/// front-end needs to spot a hot or stalled shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardQueueStats {
    /// Jobs currently queued in this shard's ring (0 between steps, at
    /// most 1 mid-step under the one-in-flight backpressure rule; always
    /// 0 for an in-line pipeline, which has no rings).
    pub ring_depth: usize,
    /// Jobs ever dispatched to this shard's worker (0 in-line).
    pub jobs_dispatched: u64,
    /// The shard's listen-queue (half-open) occupancy.
    pub listen_queue: usize,
    /// The shard's accept-queue (established) occupancy.
    pub accept_queue: usize,
}

/// Snapshot of the step pipeline across all shards
/// ([`ShardedListener::pipeline_stats`]). Kept separate from
/// [`ListenerStats`] on purpose: golden digests hash the listener
/// counters, and pipeline topology must never leak into simulation
/// observables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// `true` when persistent workers are live (the spawn-free path).
    pub persistent: bool,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardQueueStats>,
}

/// N independent [`Listener`] shards behind a single listener-shaped
/// facade, dispatched RSS-style by flow hash. See the module docs for
/// the dispatch, determinism, merge-order, and worker-lifecycle rules.
#[derive(Debug)]
pub struct ShardedListener<B: HashBackend = ScalarBackend> {
    /// The facade-level configuration (undivided backlogs).
    cfg: ListenerConfig,
    shards: Vec<Listener<B>>,
    /// The persistent shard workers, present when batch stepping runs
    /// on worker threads: decided once at construction (more than one
    /// shard, and — under [`ShardPipeline::Auto`] — more than one
    /// hardware thread). `None` steps in-line, output-identically.
    pool: Option<WorkerPool<B>>,
    /// Per-shard index partitions, reused across `on_segments` calls so
    /// the dispatch path performs no steady-state heap allocation.
    scratch: Vec<Vec<u32>>,
    /// Round-robin start shard for [`ShardedListener::accept`].
    accept_cursor: usize,
}

/// The shard a client `(address, port)` flow dispatches to under an
/// `n`-shard listener (`n` a power of two): `mix64(addr ‖ port) & (n−1)`.
///
/// Exposed as a free function so tests and embedders can predict
/// placement without a listener instance.
pub fn shard_for(addr: Ipv4Addr, port: u16, n: usize) -> usize {
    debug_assert!(n.is_power_of_two());
    (mix64((u64::from(u32::from(addr)) << 16) | u64::from(port)) & (n as u64 - 1)) as usize
}

impl ShardedListener<ScalarBackend> {
    /// Creates an undefended sharded listener over the default scalar
    /// backend.
    pub fn new(cfg: ListenerConfig, secret: ServerSecret, shards: usize) -> Self {
        ShardedListener::with_policy(cfg, secret, ScalarBackend, &PolicyBuilder::none(), shards)
    }
}

impl<B: HashBackend + 'static> ShardedListener<B> {
    /// Creates a sharded listener: `shards` is rounded up to a power of
    /// two (minimum 1), and each shard gets a 1/N slice of the
    /// configured listen/accept backlogs (ceiling division, so small
    /// backlogs stay non-zero and a zero backlog stays zero), its own
    /// live policy built from `policy`, and the shared `secret` and
    /// `backend`.
    pub fn with_policy(
        cfg: ListenerConfig,
        secret: ServerSecret,
        backend: B,
        policy: &PolicyBuilder<B>,
        shards: usize,
    ) -> Self {
        Self::with_policy_pipeline(cfg, secret, backend, policy, shards, ShardPipeline::Auto)
    }

    /// [`ShardedListener::with_policy`] with an explicit step pipeline.
    ///
    /// [`ShardPipeline::Persistent`] forces the worker pipeline even on
    /// a single-core host (the equivalence tests and the bench suite
    /// need that determinism); [`ShardPipeline::Inline`] forces serial
    /// stepping even on a many-core host. Output is identical either
    /// way. With one shard no workers are ever spawned.
    pub fn with_policy_pipeline(
        cfg: ListenerConfig,
        secret: ServerSecret,
        backend: B,
        policy: &PolicyBuilder<B>,
        shards: usize,
        pipeline: ShardPipeline,
    ) -> Self {
        let n = shards.max(1).next_power_of_two();
        let mut shard_cfg = cfg.clone();
        shard_cfg.backlog = cfg.backlog.div_ceil(n);
        shard_cfg.accept_backlog = cfg.accept_backlog.div_ceil(n);
        let shards = (0..n)
            .map(|_| {
                Listener::with_policy(shard_cfg.clone(), secret.clone(), backend.clone(), policy)
            })
            .collect();
        let workers = match pipeline {
            ShardPipeline::Inline => false,
            ShardPipeline::Persistent => n > 1,
            ShardPipeline::Auto => {
                n > 1 && std::thread::available_parallelism().is_ok_and(|cores| cores.get() > 1)
            }
        };
        ShardedListener {
            cfg,
            shards,
            pool: workers.then(|| WorkerPool::new(n)),
            scratch: vec![Vec::new(); n],
            accept_cursor: 0,
        }
    }
}

impl<B: HashBackend> ShardedListener<B> {
    /// The facade-level configuration (each shard holds a 1/N backlog
    /// slice of it).
    pub fn config(&self) -> &ListenerConfig {
        &self.cfg
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index serving `flow`.
    pub fn shard_of(&self, flow: FlowKey) -> usize {
        shard_for(flow.addr, flow.port, self.shards.len())
    }

    /// Whether the shard owning `flow` holds state for it (see
    /// [`Listener::knows_flow`]).
    pub fn knows_flow(&self, flow: &FlowKey) -> bool {
        self.shards[self.shard_of(*flow)].knows_flow(flow)
    }

    /// Read access to one shard (diagnostics and tests).
    pub fn shard(&self, idx: usize) -> &Listener<B> {
        &self.shards[idx]
    }

    /// Feeds one inbound segment to the shard owning its flow.
    pub fn on_segment(&mut self, now: SimTime, src: Ipv4Addr, seg: &TcpSegment) -> ListenerOutput {
        let idx = shard_for(src, seg.src_port, self.shards.len());
        self.shards[idx].on_segment(now, src, seg)
    }

    /// Feeds a burst of inbound segments: the batch is partitioned by
    /// shard (preserving input order within each shard, into scratch
    /// reused across calls), the shards step concurrently on the
    /// persistent workers (in-line without a pool), and the emitted
    /// segments and events merge back in shard-major, input order.
    /// Deterministic regardless of thread scheduling; with one shard
    /// this is exactly [`Listener::on_segments`]. An empty batch
    /// returns immediately without touching any shard or worker.
    pub fn on_segments(
        &mut self,
        now: SimTime,
        segments: &[(Ipv4Addr, TcpSegment)],
    ) -> ListenerOutput {
        if segments.is_empty() {
            return ListenerOutput::default();
        }
        if self.shards.len() == 1 {
            return self.shards[0].on_segments(now, segments);
        }
        let n = self.shards.len();
        for part in &mut self.scratch {
            part.clear();
        }
        for (i, (src, seg)) in segments.iter().enumerate() {
            self.scratch[shard_for(*src, seg.src_port, n)].push(i as u32);
        }
        let mut merged = ListenerOutput::default();
        match &mut self.pool {
            Some(pool) => {
                pool.step_batch(&mut self.shards, now, segments, &self.scratch, &mut merged);
            }
            None => {
                for (shard, part) in self.shards.iter_mut().zip(&self.scratch) {
                    if part.is_empty() {
                        continue;
                    }
                    let mut out = shard.on_segments_indexed(now, segments, part);
                    merged.replies.append(&mut out.replies);
                    merged.events.append(&mut out.events);
                }
            }
        }
        merged
    }

    /// Drives every shard's retransmissions, expiry, and policy tick —
    /// broadcast through the persistent workers when they are live,
    /// in-line otherwise; emitted segments concatenate shard-major
    /// (identical output either way).
    pub fn poll(&mut self, now: SimTime) -> Vec<(Ipv4Addr, TcpSegment)> {
        match &mut self.pool {
            Some(pool) => pool.step_poll(&mut self.shards, now),
            None => {
                let mut out = Vec::new();
                for shard in &mut self.shards {
                    out.append(&mut shard.poll(now));
                }
                out
            }
        }
    }

    /// `true` when the persistent worker pipeline is live (batch steps
    /// and polls run on the long-lived shard workers; no per-step
    /// thread creation anywhere).
    pub fn is_persistent(&self) -> bool {
        self.pool.is_some()
    }

    /// Step-pipeline observability: whether workers are live, plus
    /// per-shard ring depth, dispatch counters, and queue occupancy.
    /// Deliberately not part of [`ShardedListener::stats`]: golden
    /// digests hash those counters, and pipeline topology must never
    /// leak into simulation observables.
    pub fn pipeline_stats(&self) -> PipelineStats {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(k, shard)| {
                let (listen_queue, accept_queue) = shard.queue_depths();
                ShardQueueStats {
                    ring_depth: self.pool.as_ref().map_or(0, |p| p.queue_len(k)),
                    jobs_dispatched: self.pool.as_ref().map_or(0, |p| p.dispatched(k)),
                    listen_queue,
                    accept_queue,
                }
            })
            .collect();
        PipelineStats {
            persistent: self.pool.is_some(),
            shards,
        }
    }

    /// Pops the oldest established connection from the next non-empty
    /// shard, round-robin (so no shard's accept queue starves under a
    /// skewed flow mix). With one shard this is [`Listener::accept`].
    pub fn accept(&mut self) -> Option<FlowKey> {
        let n = self.shards.len();
        for i in 0..n {
            let idx = (self.accept_cursor + i) % n;
            if let Some(flow) = self.shards[idx].accept() {
                self.accept_cursor = (idx + 1) % n;
                return Some(flow);
            }
        }
        None
    }

    /// Sends application data on an accepted flow via its owning shard
    /// (see [`Listener::send_data`]).
    pub fn send_data(
        &mut self,
        flow: FlowKey,
        len: usize,
        fin: bool,
    ) -> Vec<(Ipv4Addr, TcpSegment)> {
        let idx = self.shard_of(flow);
        self.shards[idx].send_data(flow, len, fin)
    }

    /// Closes an accepted flow on its owning shard.
    pub fn close(&mut self, flow: FlowKey) {
        let idx = self.shard_of(flow);
        self.shards[idx].close(flow);
    }

    /// Counter snapshot, aggregated (field-wise sum) across shards.
    pub fn stats(&self) -> ListenerStats {
        let mut total = ListenerStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats());
        }
        total
    }

    /// Policy observability merged across shards: cache occupancy sums;
    /// the difficulty in force is the first shard's (broadcast knobs
    /// keep shards in lockstep, and closed-loop shards each run the same
    /// controller over their own slice of the traffic).
    pub fn policy_stats(&self) -> PolicyStats {
        let mut merged = PolicyStats::default();
        for shard in &self.shards {
            let s = shard.policy_stats();
            merged.syn_cache_len += s.syn_cache_len;
            merged.difficulty = merged.difficulty.or(s.difficulty);
            merged.adaptive |= s.adaptive;
            merged.state_bytes += s.state_bytes;
        }
        merged
    }

    /// The installed policy's diagnostic name (identical on all shards).
    pub fn policy_name(&self) -> &'static str {
        self.shards[0].policy_name()
    }

    /// `(listen_queue_len, accept_queue_len)`, summed across shards.
    pub fn queue_depths(&self) -> (usize, usize) {
        let mut depths = (0, 0);
        for shard in &self.shards {
            let (l, a) = shard.queue_depths();
            depths.0 += l;
            depths.1 += a;
        }
        depths
    }

    /// Total SYN-cache occupancy across shards.
    pub fn syn_cache_len(&self) -> usize {
        self.shards.iter().map(Listener::syn_cache_len).sum()
    }

    /// Broadcasts a difficulty retune to every shard; `true` if any
    /// shard's policy applied it.
    pub fn set_difficulty(&mut self, difficulty: Difficulty) -> bool {
        let mut applied = false;
        for shard in &mut self.shards {
            applied |= shard.set_difficulty(difficulty);
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listener::{EstablishedVia, ListenerEvent};
    use crate::segment::{SegmentBuilder, TcpFlags};

    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    fn sharded(n: usize, backlog: usize) -> ShardedListener {
        let mut cfg = ListenerConfig::new(SERVER_IP, 80);
        cfg.backlog = backlog;
        ShardedListener::new(cfg, ServerSecret::from_bytes([7; 32]), n)
    }

    fn syn(addr: Ipv4Addr, port: u16, isn: u32) -> (Ipv4Addr, TcpSegment) {
        (
            addr,
            SegmentBuilder::new(port, 80)
                .seq(isn)
                .flags(TcpFlags::SYN)
                .mss(1460)
                .timestamps(1, 0)
                .build(),
        )
    }

    fn client(i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, (i / 200) as u8, (i % 200) as u8)
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(sharded(0, 16).shard_count(), 1);
        assert_eq!(sharded(3, 16).shard_count(), 4);
        assert_eq!(sharded(8, 16).shard_count(), 8);
    }

    #[test]
    fn backlog_slices_use_ceiling_division() {
        let l = sharded(4, 10);
        assert_eq!(l.config().backlog, 10, "facade keeps the full backlog");
        assert_eq!(l.shard(0).config().backlog, 3, "10/4 rounds up");
        let zero = sharded(4, 0);
        assert_eq!(zero.shard(0).config().backlog, 0, "zero stays zero");
    }

    #[test]
    fn dispatch_is_stable_and_total() {
        let l = sharded(8, 64);
        for i in 0..500 {
            let flow = FlowKey {
                addr: client(i),
                port: 1024 + (i as u16 % 100),
            };
            let s = l.shard_of(flow);
            assert!(s < 8);
            assert_eq!(s, l.shard_of(flow), "same flow, same shard");
            assert_eq!(s, shard_for(flow.addr, flow.port, 8));
        }
    }

    #[test]
    fn full_handshake_through_the_owning_shard() {
        let mut l = sharded(4, 64);
        let addr = client(1);
        let out = l.on_segment(SimTime::ZERO, addr, &syn(addr, 1500, 9).1);
        assert_eq!(out.replies.len(), 1);
        let synack = out.replies[0].1.clone();
        let ack = SegmentBuilder::new(1500, 80)
            .seq(10)
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(SimTime::ZERO, addr, &ack);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::Established {
                via: EstablishedVia::ListenQueue,
                ..
            }]
        ));
        assert_eq!(l.stats().established_direct, 1);
        assert_eq!(l.accept(), Some(FlowKey { addr, port: 1500 }));
        // Data flows back out through the same shard.
        let segs = l.send_data(FlowKey { addr, port: 1500 }, 100, true);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, addr);
    }

    #[test]
    fn batch_output_is_shard_major_and_aggregates_match() {
        let batch: Vec<(Ipv4Addr, TcpSegment)> = (0..64)
            .map(|i| syn(client(i), 2000 + i as u16, i as u32))
            .collect();
        let mut l = sharded(4, 1024);
        let out = l.on_segments(SimTime::ZERO, &batch);
        assert_eq!(out.replies.len(), 64, "every SYN answered");
        assert_eq!(l.stats().syns_received, 64);
        assert_eq!(l.queue_depths().0, 64);
        // Shard-major merge: the reply order groups by shard, and within
        // one shard follows input order.
        let shard_of = |reply: &(Ipv4Addr, TcpSegment)| shard_for(reply.0, reply.1.dst_port, 4);
        let shards_seen: Vec<usize> = out.replies.iter().map(shard_of).collect();
        let mut sorted = shards_seen.clone();
        sorted.sort_unstable();
        assert_eq!(shards_seen, sorted, "replies group by shard index");
    }

    fn sharded_pipeline(n: usize, backlog: usize, pipeline: ShardPipeline) -> ShardedListener {
        let mut cfg = ListenerConfig::new(SERVER_IP, 80);
        cfg.backlog = backlog;
        ShardedListener::with_policy_pipeline(
            cfg,
            ServerSecret::from_bytes([7; 32]),
            ScalarBackend,
            &PolicyBuilder::none(),
            n,
            pipeline,
        )
    }

    #[test]
    fn empty_batch_short_circuits_every_pipeline() {
        for pipeline in [ShardPipeline::Inline, ShardPipeline::Persistent] {
            for n in [1usize, 4] {
                let mut l = sharded_pipeline(n, 64, pipeline);
                let out = l.on_segments(SimTime::ZERO, &[]);
                assert!(out.replies.is_empty() && out.events.is_empty());
                assert_eq!(l.stats(), ListenerStats::default(), "no shard was touched");
                let ps = l.pipeline_stats();
                assert!(
                    ps.shards.iter().all(|s| s.jobs_dispatched == 0),
                    "empty batch must not dispatch worker jobs ({pipeline:?}/{n})"
                );
            }
        }
    }

    #[test]
    fn single_shard_never_spawns_workers() {
        let l = sharded_pipeline(1, 64, ShardPipeline::Persistent);
        assert!(!l.is_persistent(), "shards=1 stays fully in-line");
        assert!(!l.pipeline_stats().persistent);
    }

    #[test]
    fn persistent_and_inline_pipelines_emit_identical_batches() {
        let batch: Vec<(Ipv4Addr, TcpSegment)> = (0..96)
            .map(|i| syn(client(i), 4000 + i as u16, i as u32))
            .collect();
        let mut inline = sharded_pipeline(4, 1024, ShardPipeline::Inline);
        let mut persistent = sharded_pipeline(4, 1024, ShardPipeline::Persistent);
        assert!(!inline.is_persistent());
        assert!(persistent.is_persistent());
        let a = inline.on_segments(SimTime::ZERO, &batch);
        let b = persistent.on_segments(SimTime::ZERO, &batch);
        assert_eq!(a.replies, b.replies);
        assert_eq!(a.events, b.events);
        assert_eq!(inline.stats(), persistent.stats());
        // Retransmission order within a shard is a per-instance HashMap
        // iteration artifact (two in-line listeners differ the same
        // way), so compare the broadcast as a multiset.
        let sort = |mut v: Vec<(Ipv4Addr, TcpSegment)>| {
            v.sort_by_cached_key(|(dst, seg)| format!("{dst} {seg:?}"));
            v
        };
        assert_eq!(
            sort(inline.poll(SimTime::from_secs(30))),
            sort(persistent.poll(SimTime::from_secs(30))),
            "broadcast poll diverged"
        );
    }

    #[test]
    fn pipeline_stats_track_dispatch_and_occupancy() {
        let mut l = sharded_pipeline(4, 1024, ShardPipeline::Persistent);
        let batch: Vec<(Ipv4Addr, TcpSegment)> = (0..64)
            .map(|i| syn(client(i), 2000 + i as u16, i as u32))
            .collect();
        l.on_segments(SimTime::ZERO, &batch);
        let ps = l.pipeline_stats();
        assert!(ps.persistent);
        assert_eq!(ps.shards.len(), 4);
        let dispatched: u64 = ps.shards.iter().map(|s| s.jobs_dispatched).sum();
        assert_eq!(dispatched, 4, "one batch job per (non-empty) shard");
        assert!(
            ps.shards.iter().all(|s| s.ring_depth == 0),
            "rings drain before on_segments returns"
        );
        let listen_total: usize = ps.shards.iter().map(|s| s.listen_queue).sum();
        assert_eq!(listen_total, 64);
        l.poll(SimTime::from_millis(10));
        let ps = l.pipeline_stats();
        let dispatched: u64 = ps.shards.iter().map(|s| s.jobs_dispatched).sum();
        assert_eq!(dispatched, 8, "poll broadcasts one job per shard");
    }

    #[test]
    fn accept_round_robins_across_shards() {
        let mut l = sharded(4, 1024);
        // Establish a handful of flows spread over the shards.
        for i in 0..12 {
            let addr = client(i);
            let port = 3000 + i as u16;
            let out = l.on_segment(SimTime::ZERO, addr, &syn(addr, port, 1).1);
            let synack = &out.replies[0].1;
            let ack = SegmentBuilder::new(port, 80)
                .seq(2)
                .ack_num(synack.seq.wrapping_add(1))
                .flags(TcpFlags::ACK)
                .build();
            l.on_segment(SimTime::ZERO, addr, &ack);
        }
        let mut accepted = 0;
        while l.accept().is_some() {
            accepted += 1;
        }
        assert_eq!(accepted, 12);
        assert_eq!(l.stats().established_direct, 12);
    }
}
