//! The passive (server) side: listen/accept queues, defences, data path.
//!
//! [`Listener`] is a sans-IO reproduction of the paper's patched listening
//! socket (§5). Its behaviour, in the paper's words:
//!
//! * "The puzzles are turned off by default and are only enabled when the
//!   socket's queue is full" — the opportunistic controller: a SYN that
//!   finds room in the listen queue gets a normal stateful handshake; a
//!   SYN that finds the queue full gets a stateless challenge instead
//!   (never a drop while puzzles are on).
//! * "The challenges take precedence over the SYN cookies once the queue
//!   is full; we do however support SYN cookies as a backup option."
//! * "We modified the listening TCP socket's implementation to send a
//!   challenge when the protection is in effect, even if the accept queue
//!   overflows. When the server receives an ACK packet while under attack,
//!   it first checks if the queue is full and only performs the
//!   verification procedure when there is room … If the queue is full, the
//!   server will ignore the ACK packet" — and the deceived sender's later
//!   data elicits an RST.
//! * Replay defence: the solution timestamp must be fresh, and tampering
//!   with it breaks the recomputed pre-image (§5, §7).
//!
//! The defences themselves live behind the composable
//! [`DefensePolicy`](crate::policy::DefensePolicy) pipeline: the listener
//! owns the queues, counters, and crypto identity ([`ListenerCore`]) and
//! consults its installed policy at each phase.
//!
//! There is one step path. [`Listener::on_segment`] is
//! [`Listener::on_segments`] over a batch of one, so the simulator (one
//! segment per event) and the wire server (what the socket held) run the
//! same loop, the same policy hooks and the same issuance routine; the
//! loop flushes a run of deferred SYN answers before it acts on anything
//! else, which is what makes batch boundaries unobservable.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;

use crate::policy::{AckClass, AckDisposition, PolicyBuilder, PolicyStats, SolutionRun};
use crate::policy::{DefensePolicy, QueuePressure, SynDisposition};
use crate::segment::{SegmentBuilder, TcpFlags, TcpSegment};
use netsim::{SimDuration, SimTime};
use puzzle_core::{AlgoId, ConnectionTuple, Difficulty, ServerSecret, VerifyError};
use puzzle_crypto::{Digest, HashBackend, HmacKeySchedule, MessageArena, ScalarBackend};

/// The smallest MSS the server sends with, whatever the peer offered —
/// 48 bytes, the floor Linux enforces since CVE-2019-11479. Without a
/// floor a client-chosen MSS of 0 stalls `send_data`'s chunk loop.
pub const TCP_MIN_SND_MSS: u16 = 48;

/// Converts simulator time to the puzzle/second clock used in challenge
/// timestamps and expiry checks.
pub fn puzzle_clock(now: SimTime) -> u32 {
    (now.as_nanos() / 1_000_000_000) as u32
}

/// Identifies a client flow at this listener (the listener's own address
/// and port are fixed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Client address.
    pub addr: Ipv4Addr,
    /// Client port.
    pub port: u16,
}

/// Which per-proof predicate the puzzle verifier checks. Everything
/// else about a solution ACK — freshness, structure, replay admission,
/// the pre-image recomputation and its hash charge — is the same
/// `puzzle_core::Verifier` code in both modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// The puzzle algorithm's hash predicate — clients must really
    /// brute-force. Used by tests, examples, and real deployments.
    #[default]
    Real,
    /// The simulation oracle
    /// ([`puzzle_core::Verifier::with_oracle_proofs`]): proof
    /// `i` must equal [`puzzle_core::oracle_proof`], a keyed MAC over
    /// the pre-image and `i`, and costs the algorithm's hashes per
    /// checked proof. A simulated solver mints it in O(1) and *models*
    /// the solve time instead of burning real CPU (see DESIGN.md,
    /// Substitutions).
    Oracle,
}

/// Puzzle defence parameters (the kernel patch's sysctl knobs).
#[derive(Clone, Debug)]
pub struct PuzzleConfig {
    /// Difficulty `(k, m)`; tunable at runtime like the paper's sysctl.
    pub difficulty: Difficulty,
    /// Pre-image/solution length in bits (wire `l`); 32 keeps the paper's
    /// `(2, 17)` within the 40-byte TCP option budget.
    pub preimage_bits: u16,
    /// Challenge expiry window in seconds (replay defence).
    pub expiry: u32,
    /// Verification backend.
    pub verify: VerifyMode,
    /// Controller hysteresis: once a queue overflow is observed, keep
    /// challenging for this long past the last observation. A per-SYN
    /// fullness check alone cannot hold back a fast-completing flood —
    /// each freed slot is instantly re-taken ("revolving door") — whereas
    /// the paper's measurements (sustained challenge periods with sparse
    /// openings tens of seconds apart, Figs. 8 and 10) show an
    /// effectively latched controller. See DESIGN.md.
    pub hold: SimDuration,
    /// Worker threads for batched solution verification. `0` or `1` keeps
    /// verification on the calling thread (through the reusable
    /// zero-allocation scratch); higher values fan each batch across
    /// scoped threads partitioned by replay key
    /// ([`puzzle_core::Verifier::verify_batch_parallel`]) for multi-core
    /// scaling.
    pub verify_workers: usize,
    /// Puzzle algorithm posed in challenges and checked on solutions
    /// ([`AlgoId::Prefix`] is the paper's hash-prefix puzzle; other
    /// algorithms travel as a trailing byte in the challenge option).
    pub algo: AlgoId,
}

impl Default for PuzzleConfig {
    fn default() -> Self {
        PuzzleConfig {
            difficulty: Difficulty::new(2, 17).expect("static difficulty"),
            preimage_bits: 32,
            expiry: 8,
            verify: VerifyMode::Real,
            hold: SimDuration::from_secs(30),
            verify_workers: 1,
            algo: AlgoId::Prefix,
        }
    }
}

/// SYN-cache parameters (the Lemon 2002 mitigation the paper compares
/// against in §2.1).
#[derive(Clone, Copy, Debug)]
pub struct SynCacheConfig {
    /// Reduced-state half-open entries the cache can hold beyond the
    /// regular backlog.
    pub capacity: usize,
    /// Entry lifetime; cache entries keep only partial state and do not
    /// retransmit, so they simply expire.
    pub lifetime: SimDuration,
}

impl Default for SynCacheConfig {
    fn default() -> Self {
        SynCacheConfig {
            capacity: 4096,
            lifetime: SimDuration::from_secs(15),
        }
    }
}

/// Listener configuration. The defence itself is no longer part of the
/// config — pass a [`PolicyBuilder`] to [`Listener::with_policy`].
#[derive(Clone, Debug)]
pub struct ListenerConfig {
    /// The server's own address.
    pub local_addr: Ipv4Addr,
    /// The listening port.
    pub port: u16,
    /// Listen-queue (half-open) capacity — the `backlog`.
    pub backlog: usize,
    /// Accept-queue capacity.
    pub accept_backlog: usize,
    /// SYN-ACK retransmissions before a half-open connection is dropped.
    /// The default (4, with a 1 s base timeout and exponential backoff)
    /// gives half-opens a ~31 s lifetime — this is what produces the
    /// ~30 s post-flood recovery lag the paper observes (Fig. 7).
    pub synack_retries: u32,
    /// Initial SYN-ACK retransmission timeout (doubles per retry).
    pub synack_timeout: SimDuration,
    /// Server MSS advertised in SYN-ACKs.
    pub mss: u16,
    /// Whether to negotiate the TCP timestamps option (when off, puzzles
    /// embed their timestamp in the option blocks, §5).
    pub use_timestamps: bool,
}

impl ListenerConfig {
    /// A conventional configuration on `addr:port` with Linux-ish
    /// defaults (backlog 256, accept backlog 256).
    pub fn new(addr: Ipv4Addr, port: u16) -> Self {
        ListenerConfig {
            local_addr: addr,
            port,
            backlog: 256,
            accept_backlog: 256,
            synack_retries: 4,
            synack_timeout: SimDuration::from_secs(1),
            mss: 1460,
            use_timestamps: true,
        }
    }
}

/// How a connection reached the accept queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EstablishedVia {
    /// Ordinary stateful handshake through the listen queue.
    ListenQueue,
    /// Promotion from the reduced-state SYN cache.
    SynCache,
    /// SYN-cookie validation.
    Cookie,
    /// Puzzle-solution verification.
    Puzzle,
}

/// Events surfaced to the embedding host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListenerEvent {
    /// A connection became established (entered the accept queue).
    Established {
        /// The client flow.
        flow: FlowKey,
        /// Which path established it.
        via: EstablishedVia,
    },
    /// Application data arrived on an established connection.
    Data {
        /// The client flow.
        flow: FlowKey,
        /// Payload bytes.
        payload: Vec<u8>,
        /// Whether FIN was set.
        fin: bool,
    },
    /// A SYN was dropped because the listen queue was full and no
    /// stateless defence was active.
    SynDropped {
        /// The client flow.
        flow: FlowKey,
    },
    /// An ACK carrying a solution was ignored because the accept queue
    /// was full (the paper's deception mechanism).
    AckIgnoredQueueFull {
        /// The client flow.
        flow: FlowKey,
    },
    /// A solution failed verification.
    SolutionRejected {
        /// The client flow.
        flow: FlowKey,
        /// Why it failed.
        reason: VerifyError,
    },
    /// An established connection completed the handshake but the accept
    /// queue overflowed, so it was discarded.
    AcceptOverflow {
        /// The client flow.
        flow: FlowKey,
    },
    /// An RST was sent (data for a connection the server never admitted).
    ResetSent {
        /// The client flow.
        flow: FlowKey,
    },
}

/// Counters for everything the evaluation measures.
///
/// `Debug` is implemented by hand, not derived: the golden-run digests
/// (`tests/golden_runs.rs`) hash the `{:?}` rendering of this struct, so
/// the capture format is frozen at the original twenty counters. Fields
/// added later (`issue_hashes`, `decode_errors`) are excluded from
/// `Debug` — they still participate in `PartialEq` and
/// [`ListenerStats::merge`].
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct ListenerStats {
    /// SYN segments received.
    pub syns_received: u64,
    /// Plain (stateful) SYN-ACKs sent, including retransmissions.
    pub synacks_sent: u64,
    /// SYN-ACKs carrying a challenge.
    pub challenges_sent: u64,
    /// SYN-ACKs carrying a cookie ISN.
    pub cookies_sent: u64,
    /// SYNs dropped with no defence active.
    pub syns_dropped: u64,
    /// Half-open connections dropped after retransmission exhaustion.
    pub half_open_expired: u64,
    /// Connections established through the listen queue.
    pub established_direct: u64,
    /// Connections established from the SYN cache.
    pub established_syncache: u64,
    /// SYN-cache entries that expired unanswered.
    pub syncache_expired: u64,
    /// Connections established by cookie validation.
    pub established_cookie: u64,
    /// Connections established by puzzle verification.
    pub established_puzzle: u64,
    /// Handshake-complete connections discarded because the accept queue
    /// was full.
    pub accept_overflow_drops: u64,
    /// ACKs ignored because the accept queue was full (puzzle deception).
    pub acks_ignored_queue_full: u64,
    /// ACKs without a solution while puzzles were required.
    pub acks_without_solution: u64,
    /// Solutions that failed verification (all reasons).
    pub verify_failures: u64,
    /// Verification failures specifically due to expiry (replay window).
    pub verify_expired: u64,
    /// Verification failures because the replay cache had already granted
    /// the same `(tuple, timestamp)` admission.
    pub verify_replayed: u64,
    /// Hash operations charged by solution verification (pre-images plus
    /// sub-solution checks, charged alike in both [`VerifyMode`]s).
    /// Together with `issue_hashes` this is the single source of truth
    /// for defence CPU accounting.
    pub verify_hashes: u64,
    /// RST segments sent.
    pub rsts_sent: u64,
    /// Data segments received on established connections.
    pub data_segments: u64,
    /// SHA-256 invocations charged by the issuance side: challenge
    /// pre-image derivation (1 per challenge), cookie MACs (2 per
    /// cookie — the two HMAC passes), and keyed server-ISN minting
    /// (2 per ISN, so a challenge costs 3 in total and a stateful or
    /// SYN-cache handshake costs 2). Cookie *validation* MACs are not
    /// counted here — they are verify-side work.
    pub issue_hashes: u64,
    /// Wire input that never became a segment: datagrams the live
    /// front-end failed to decode (truncated, bad framing) or dropped
    /// before the listener (wrong destination port). The sans-IO
    /// listener itself never increments this — undecodable bytes can't
    /// reach it — but the counter lives here so `merge` and stats
    /// snapshots carry it alongside everything else the evaluation
    /// reads. Excluded from the frozen `Debug` like `issue_hashes`.
    pub decode_errors: u64,
}

impl ListenerStats {
    /// Total connections that reached the accept queue.
    pub fn established_total(&self) -> u64 {
        self.established_direct
            + self.established_syncache
            + self.established_cookie
            + self.established_puzzle
    }

    /// Field-wise accumulation — how [`crate::ShardedListener`]
    /// aggregates its per-shard counters into one snapshot.
    pub fn merge(&mut self, other: &ListenerStats) {
        let ListenerStats {
            syns_received,
            synacks_sent,
            challenges_sent,
            cookies_sent,
            syns_dropped,
            half_open_expired,
            established_direct,
            established_syncache,
            syncache_expired,
            established_cookie,
            established_puzzle,
            accept_overflow_drops,
            acks_ignored_queue_full,
            acks_without_solution,
            verify_failures,
            verify_expired,
            verify_replayed,
            verify_hashes,
            rsts_sent,
            data_segments,
            issue_hashes,
            decode_errors,
        } = other;
        self.syns_received += syns_received;
        self.synacks_sent += synacks_sent;
        self.challenges_sent += challenges_sent;
        self.cookies_sent += cookies_sent;
        self.syns_dropped += syns_dropped;
        self.half_open_expired += half_open_expired;
        self.established_direct += established_direct;
        self.established_syncache += established_syncache;
        self.syncache_expired += syncache_expired;
        self.established_cookie += established_cookie;
        self.established_puzzle += established_puzzle;
        self.accept_overflow_drops += accept_overflow_drops;
        self.acks_ignored_queue_full += acks_ignored_queue_full;
        self.acks_without_solution += acks_without_solution;
        self.verify_failures += verify_failures;
        self.verify_expired += verify_expired;
        self.verify_replayed += verify_replayed;
        self.verify_hashes += verify_hashes;
        self.rsts_sent += rsts_sent;
        self.data_segments += data_segments;
        self.issue_hashes += issue_hashes;
        self.decode_errors += decode_errors;
    }
}

/// Hand-rolled to freeze the golden-run capture format: exactly the
/// original twenty counters, in declaration order, rendered as the
/// derived implementation would. `issue_hashes` and `decode_errors`
/// (added later) are deliberately absent — see the struct docs.
impl fmt::Debug for ListenerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ListenerStats")
            .field("syns_received", &self.syns_received)
            .field("synacks_sent", &self.synacks_sent)
            .field("challenges_sent", &self.challenges_sent)
            .field("cookies_sent", &self.cookies_sent)
            .field("syns_dropped", &self.syns_dropped)
            .field("half_open_expired", &self.half_open_expired)
            .field("established_direct", &self.established_direct)
            .field("established_syncache", &self.established_syncache)
            .field("syncache_expired", &self.syncache_expired)
            .field("established_cookie", &self.established_cookie)
            .field("established_puzzle", &self.established_puzzle)
            .field("accept_overflow_drops", &self.accept_overflow_drops)
            .field("acks_ignored_queue_full", &self.acks_ignored_queue_full)
            .field("acks_without_solution", &self.acks_without_solution)
            .field("verify_failures", &self.verify_failures)
            .field("verify_expired", &self.verify_expired)
            .field("verify_replayed", &self.verify_replayed)
            .field("verify_hashes", &self.verify_hashes)
            .field("rsts_sent", &self.rsts_sent)
            .field("data_segments", &self.data_segments)
            .finish()
    }
}

/// A half-open connection in the listen queue.
#[derive(Clone, Debug)]
pub(crate) struct HalfOpen {
    client_isn: u32,
    server_isn: u32,
    mss: u16,
    retries: u32,
    next_retx: SimTime,
    peer_tsval: u32,
    has_ts: bool,
}

/// An established connection (accept queue or accepted).
#[derive(Clone, Debug)]
pub(crate) struct Established {
    flow: FlowKey,
    server_next_seq: u32,
    mss: u16,
}

/// Output of feeding one segment to the listener.
#[derive(Debug, Default)]
pub struct ListenerOutput {
    /// Segments to transmit, with their destination addresses.
    pub replies: Vec<(Ipv4Addr, TcpSegment)>,
    /// Events for the host.
    pub events: Vec<ListenerEvent>,
}

/// The listener's defence-independent machinery: configuration, crypto
/// identity, queues, and counters. Every [`DefensePolicy`] hook receives
/// a mutable reference so policies drive the same state the hard-coded
/// enum arms used to.
#[derive(Debug)]
pub struct ListenerCore<B: HashBackend> {
    pub(crate) cfg: ListenerConfig,
    pub(crate) secret: ServerSecret,
    pub(crate) backend: B,
    pub(crate) listen_q: HashMap<FlowKey, HalfOpen>,
    pub(crate) accept_q: VecDeque<Established>,
    /// Flows currently in the accept queue (for O(1) membership tests).
    pub(crate) in_accept_q: HashMap<FlowKey, ()>,
    /// Connections handed to the application by [`Listener::accept`].
    pub(crate) accepted: HashMap<FlowKey, Established>,
    pub(crate) stats: ListenerStats,
    pub(crate) isn_counter: u64,
    /// Reusable verdict staging for the verification paths.
    pub(crate) verdict_buf: Vec<Result<(), VerifyError>>,
    /// Reusable staging for solution ACKs awaiting batched verification.
    pub(crate) solutions: SolutionRun,
    /// HMAC key schedule for ISN minting, expanded once from the secret
    /// so the mint never re-keys per call.
    pub(crate) isn_schedule: HmacKeySchedule,
    /// Reusable staging for the ISN mint: message arena plus inner-pass
    /// and outer-pass digest buffers.
    pub(crate) isn_arena: MessageArena,
    pub(crate) isn_inner: Vec<Digest>,
    pub(crate) isn_tags: Vec<Digest>,
}

impl<B: HashBackend> ListenerCore<B> {
    /// Current configuration.
    pub fn config(&self) -> &ListenerConfig {
        &self.cfg
    }

    /// The listener's secret (cookie/puzzle keying).
    pub fn secret(&self) -> &ServerSecret {
        &self.secret
    }

    /// The hash backend serving this listener.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable counter access for policy bookkeeping.
    pub fn stats_mut(&mut self) -> &mut ListenerStats {
        &mut self.stats
    }

    /// Current accept-queue occupancy.
    pub fn accept_queue_len(&self) -> usize {
        self.accept_q.len()
    }

    /// Whether the accept queue is at capacity.
    pub fn accept_queue_full(&self) -> bool {
        self.accept_q.len() >= self.cfg.accept_backlog
    }

    /// Takes the reusable verdict-staging buffer (return it with
    /// [`ListenerCore::put_verdict_buf`] so steady-state verification
    /// stays allocation-free).
    pub fn take_verdict_buf(&mut self) -> Vec<Result<(), VerifyError>> {
        std::mem::take(&mut self.verdict_buf)
    }

    /// Returns the verdict-staging buffer after use (cleared).
    pub fn put_verdict_buf(&mut self, mut buf: Vec<Result<(), VerifyError>>) {
        buf.clear();
        self.verdict_buf = buf;
    }

    /// Takes the solution-staging run (return it with
    /// [`ListenerCore::put_solution_run`]; its slots keep their buffers
    /// across steps, so steady-state staging stays allocation-free).
    pub fn take_solution_run(&mut self) -> SolutionRun {
        std::mem::take(&mut self.solutions)
    }

    /// Returns the solution-staging run after use, as it is: a run still
    /// being collected stays staged.
    pub fn put_solution_run(&mut self, run: SolutionRun) {
        self.solutions = run;
    }

    /// Applies one verdict per staged solution, in arrival order —
    /// establishment on success, the rejection event otherwise — and
    /// ends the run. Drains `verdicts`.
    pub fn settle_solutions(
        &mut self,
        run: &mut SolutionRun,
        verdicts: &mut Vec<Result<(), VerifyError>>,
        out: &mut ListenerOutput,
    ) {
        for (staged, verdict) in run.staged().iter().zip(verdicts.drain(..)) {
            match verdict {
                Ok(()) => self.finish_establish(
                    staged.flow,
                    staged.ack,
                    staged.mss,
                    EstablishedVia::Puzzle,
                    &staged.payload,
                    staged.fin,
                    out,
                ),
                Err(reason) => self.note_rejection(staged.flow, reason, out),
            }
        }
        run.clear();
    }

    /// The MSS the server will use towards a peer that offered `offered`:
    /// at most the server's own [`ListenerConfig::mss`] and at least
    /// [`TCP_MIN_SND_MSS`], so no client can make `send_data` emit
    /// empty segments. Every MSS-admission site goes through here.
    pub fn admit_mss(&self, offered: u16) -> u16 {
        offered.min(self.cfg.mss).max(TCP_MIN_SND_MSS)
    }

    /// Whether the listener itself holds state for `flow` (accepted,
    /// queued, or half-open).
    pub fn knows_flow(&self, flow: &FlowKey) -> bool {
        self.accepted.contains_key(flow)
            || self.in_accept_q.contains_key(flow)
            || self.listen_q.contains_key(flow)
    }

    /// Mints the next server ISN for `flow`: [`next_server_isn_batch`]
    /// over one flow.
    ///
    /// [`next_server_isn_batch`]: ListenerCore::next_server_isn_batch
    pub fn next_server_isn(&mut self, flow: FlowKey) -> u32 {
        self.mint_isn_tags(&[flow]);
        isn_from_tag(&self.isn_tags[0])
    }

    /// Mints one server ISN per entry of `flows`, in order, into `out`
    /// (cleared first). The counter advances in arrival order, so the
    /// ISN sequence does not depend on how a run of mints is split into
    /// calls. Charges each mint's two HMAC passes to `issue_hashes`.
    pub fn next_server_isn_batch(&mut self, flows: &[FlowKey], out: &mut Vec<u32>) {
        self.mint_isn_tags(flows);
        out.clear();
        out.extend(self.isn_tags.iter().map(isn_from_tag));
    }

    /// The one ISN mint (keyed counter hash): leaves one HMAC tag per
    /// flow in `isn_tags`. Both HMAC passes of every mint run through
    /// [`HashBackend::sha256_arena_seeded`] from the key schedule's
    /// cached ipad/opad midstates (one compression per pass — the padded
    /// key blocks never re-enter the kernel).
    fn mint_isn_tags(&mut self, flows: &[FlowKey]) {
        self.isn_arena.clear();
        self.isn_inner.clear();
        self.isn_tags.clear();
        for flow in flows {
            self.isn_counter += 1;
            self.isn_arena.push_parts(&[
                b"isn",
                &flow.addr.octets(),
                &flow.port.to_be_bytes(),
                &self.isn_counter.to_be_bytes(),
            ]);
        }
        self.backend.sha256_arena_seeded(
            &self.isn_schedule.inner_midstate(),
            &self.isn_arena,
            &mut self.isn_inner,
        );
        self.isn_arena.clear();
        for inner in &self.isn_inner {
            self.isn_arena.push(inner);
        }
        self.backend.sha256_arena_seeded(
            &self.isn_schedule.outer_midstate(),
            &self.isn_arena,
            &mut self.isn_tags,
        );
        self.stats.issue_hashes += 2 * flows.len() as u64;
    }

    /// The connection tuple binding challenges to `flow`.
    pub fn tuple_for(&self, flow: FlowKey, client_isn: u32) -> ConnectionTuple {
        ConnectionTuple::new(
            flow.addr,
            flow.port,
            self.cfg.local_addr,
            self.cfg.port,
            client_isn,
        )
    }

    /// Common establishment tail: accept-queue admission + data delivery.
    #[allow(clippy::too_many_arguments)]
    pub fn finish_establish(
        &mut self,
        flow: FlowKey,
        server_next_seq: u32,
        mss: u16,
        via: EstablishedVia,
        payload: &[u8],
        fin: bool,
        out: &mut ListenerOutput,
    ) {
        if self.accept_q.len() >= self.cfg.accept_backlog {
            self.stats.accept_overflow_drops += 1;
            out.events.push(ListenerEvent::AcceptOverflow { flow });
            return;
        }
        self.accept_q.push_back(Established {
            flow,
            server_next_seq,
            mss,
        });
        self.in_accept_q.insert(flow, ());
        match via {
            EstablishedVia::ListenQueue => self.stats.established_direct += 1,
            EstablishedVia::SynCache => self.stats.established_syncache += 1,
            EstablishedVia::Cookie => self.stats.established_cookie += 1,
            EstablishedVia::Puzzle => self.stats.established_puzzle += 1,
        }
        out.events.push(ListenerEvent::Established { flow, via });
        if !payload.is_empty() || fin {
            self.stats.data_segments += 1;
            out.events.push(ListenerEvent::Data {
                flow,
                payload: payload.to_vec(),
                fin,
            });
        }
    }

    /// Books a failed verification: counters plus the rejection event.
    pub fn note_rejection(&mut self, flow: FlowKey, reason: VerifyError, out: &mut ListenerOutput) {
        self.stats.verify_failures += 1;
        if matches!(reason, VerifyError::Expired { .. }) {
            self.stats.verify_expired += 1;
        }
        if matches!(reason, VerifyError::Replayed) {
            self.stats.verify_replayed += 1;
        }
        out.events
            .push(ListenerEvent::SolutionRejected { flow, reason });
    }

    pub(crate) fn send_rst(&mut self, flow: FlowKey, seg: &TcpSegment, out: &mut ListenerOutput) {
        let rst = SegmentBuilder::new(self.cfg.port, flow.port)
            .seq(seg.ack)
            .flags(TcpFlags::RST)
            .build();
        self.stats.rsts_sent += 1;
        out.events.push(ListenerEvent::ResetSent { flow });
        out.replies.push((flow.addr, rst));
    }

    /// Drives SYN-ACK retransmissions and half-open expiry.
    fn poll_retransmits(&mut self, now: SimTime) -> Vec<(Ipv4Addr, TcpSegment)> {
        let mut out = Vec::new();
        let mut expired = Vec::new();
        let max_retries = self.cfg.synack_retries;
        let base = self.cfg.synack_timeout;
        let port = self.cfg.port;
        let use_ts = self.cfg.use_timestamps;
        let now_ts = puzzle_clock(now);
        for (flow, half) in self.listen_q.iter_mut() {
            if half.next_retx > now {
                continue;
            }
            if half.retries >= max_retries {
                expired.push(*flow);
                continue;
            }
            half.retries += 1;
            // Exponential backoff: timeout × 2^retries.
            let backoff = base * (1u64 << half.retries.min(16));
            half.next_retx = now + backoff;
            let seg = synack_segment(
                port,
                *flow,
                half.server_isn,
                half.client_isn,
                half.mss,
                use_ts
                    .then_some((now_ts, half.peer_tsval))
                    .filter(|_| half.has_ts),
            );
            out.push((flow.addr, seg));
        }
        for flow in expired {
            self.listen_q.remove(&flow);
            self.stats.half_open_expired += 1;
        }
        out
    }
}

/// The listening socket, generic over the [`HashBackend`] that serves its
/// puzzle and ISN hashing. See the module docs for the behavioural model;
/// the defence runs behind the installed
/// [`DefensePolicy`](crate::policy::DefensePolicy).
#[derive(Debug)]
pub struct Listener<B: HashBackend = ScalarBackend> {
    core: ListenerCore<B>,
    policy: Box<dyn DefensePolicy<B> + Send>,
}

impl Listener<ScalarBackend> {
    /// Creates an undefended listener over the default scalar backend.
    pub fn new(cfg: ListenerConfig, secret: ServerSecret) -> Self {
        Listener::with_policy(cfg, secret, ScalarBackend, &PolicyBuilder::none())
    }
}

impl<B: HashBackend + 'static> Listener<B> {
    /// Creates an undefended listener hashing through `backend`.
    pub fn with_backend(cfg: ListenerConfig, secret: ServerSecret, backend: B) -> Self {
        Listener::with_policy(cfg, secret, backend, &PolicyBuilder::none())
    }

    /// Creates a listener defended by a fresh policy built from
    /// `policy`, bound to this listener's secret and backend.
    pub fn with_policy(
        cfg: ListenerConfig,
        secret: ServerSecret,
        backend: B,
        policy: &PolicyBuilder<B>,
    ) -> Self {
        let policy = policy.build(&secret, &backend);
        let isn_schedule = HmacKeySchedule::new(secret.as_bytes());
        Listener {
            core: ListenerCore {
                cfg,
                secret,
                backend,
                listen_q: HashMap::new(),
                accept_q: VecDeque::new(),
                in_accept_q: HashMap::new(),
                accepted: HashMap::new(),
                stats: ListenerStats::default(),
                isn_counter: 0,
                verdict_buf: Vec::new(),
                solutions: SolutionRun::default(),
                isn_schedule,
                isn_arena: MessageArena::new(),
                isn_inner: Vec::new(),
                isn_tags: Vec::new(),
            },
            policy,
        }
    }
}

impl<B: HashBackend> Listener<B> {
    /// Current configuration.
    pub fn config(&self) -> &ListenerConfig {
        &self.core.cfg
    }

    /// Runtime-tunes the puzzle difficulty, like the paper's sysctl knob,
    /// through the installed policy. Returns whether it applied — `false`
    /// for policies without a difficulty knob (and for closed-loop
    /// policies, which own the knob themselves).
    pub fn set_difficulty(&mut self, difficulty: Difficulty) -> bool {
        self.policy.set_difficulty(difficulty)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ListenerStats {
        self.core.stats
    }

    /// Policy-level observability (cache occupancy, difficulty in force).
    pub fn policy_stats(&self) -> PolicyStats {
        self.policy.stats()
    }

    /// The installed policy's diagnostic name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether the installed policy holds per-flow handshake state for
    /// `flow` (diagnostics and tests).
    pub fn policy_has_flow_state(&self, flow: &FlowKey) -> bool {
        self.policy.has_flow_state(flow)
    }

    /// Whether the listener itself holds state for `flow`: half-open,
    /// in the accept queue, or accepted and not yet closed.
    pub fn knows_flow(&self, flow: &FlowKey) -> bool {
        self.core.knows_flow(flow)
    }

    /// `(listen_queue_len, accept_queue_len)` — what Fig. 10 plots.
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.core.listen_q.len(), self.core.accept_q.len())
    }

    /// Current SYN-cache occupancy (0 unless a cache layer runs).
    pub fn syn_cache_len(&self) -> usize {
        self.policy.stats().syn_cache_len
    }

    /// Pops the oldest established connection for application service.
    pub fn accept(&mut self) -> Option<FlowKey> {
        let conn = self.core.accept_q.pop_front()?;
        self.core.in_accept_q.remove(&conn.flow);
        let flow = conn.flow;
        self.core.accepted.insert(flow, conn);
        Some(flow)
    }

    /// Sends `len` bytes of application data to an accepted flow, chunked
    /// by the connection MSS; sets FIN on the last chunk when `fin`,
    /// closing the connection server-side.
    ///
    /// Returns an empty vector if the flow is not in the accepted set.
    pub fn send_data(
        &mut self,
        flow: FlowKey,
        len: usize,
        fin: bool,
    ) -> Vec<(Ipv4Addr, TcpSegment)> {
        let Some(conn) = self.core.accepted.get_mut(&flow) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        // `admit_mss` already floors every connection's MSS; flooring
        // again here keeps the loop finite whatever `conn.mss` holds.
        let mss = conn.mss.max(TCP_MIN_SND_MSS) as usize;
        let mut remaining = len;
        loop {
            let chunk = remaining.min(mss);
            remaining -= chunk;
            let last = remaining == 0;
            let mut flags = TcpFlags::ACK;
            if last {
                flags = flags | TcpFlags::PSH;
                if fin {
                    flags = flags | TcpFlags::FIN;
                }
            }
            let seg = SegmentBuilder::new(self.core.cfg.port, flow.port)
                .seq(conn.server_next_seq)
                .flags(flags)
                .payload(vec![b'x'; chunk])
                .build();
            conn.server_next_seq = conn.server_next_seq.wrapping_add(chunk as u32);
            out.push((flow.addr, seg));
            if last {
                break;
            }
        }
        if fin {
            self.core.accepted.remove(&flow);
        }
        out
    }

    /// Closes an accepted flow without sending anything.
    pub fn close(&mut self, flow: FlowKey) {
        self.core.accepted.remove(&flow);
    }

    /// Feeds one inbound segment — a batch of one through the loop behind
    /// [`Listener::on_segments`]. `src` is the IP source address (possibly
    /// spoofed — the listener treats it as opaque, like a real stack).
    pub fn on_segment(&mut self, now: SimTime, src: Ipv4Addr, seg: &TcpSegment) -> ListenerOutput {
        self.on_segments_iter(now, std::iter::once((src, seg)))
    }

    /// Feeds a burst of inbound segments, verifying all their puzzle
    /// solutions through one batched policy `verify` call and issuing
    /// all their challenges/cookies through one batched
    /// [`issue_flush`](crate::policy::DefensePolicy::issue_flush) per
    /// deferred run (runs of consecutive fresh SYNs the policy answers
    /// statelessly — the dominant traffic shape under a SYN flood).
    ///
    /// Runs of consecutive solution-bearing ACKs from unknown flows — the
    /// dominant traffic shape under a solving connection flood — are
    /// queue-gated in arrival order (each unverified batch member counts
    /// as a presumptive admission, matching one-by-one processing when
    /// solutions are valid) and then handed to the batch engine as one
    /// round-structured hash workload. Any other segment flushes the
    /// pending run first, so segment ordering semantics are preserved:
    /// however a segment sequence is split into calls, the replies are
    /// the same. One divergence between splits: a flow sending two
    /// solution ACKs in the same run has its second rejected as
    /// [`VerifyError::Replayed`] instead of being treated as a data ACK.
    pub fn on_segments(
        &mut self,
        now: SimTime,
        segments: &[(Ipv4Addr, TcpSegment)],
    ) -> ListenerOutput {
        self.on_segments_iter(now, segments.iter().map(|(src, seg)| (*src, seg)))
    }

    /// Feeds the subset of `segments` selected by `idxs`, in index
    /// order, through the same batched pipeline as
    /// [`Listener::on_segments`].
    ///
    /// This is the shard entry point: [`crate::ShardedListener`]
    /// partitions one inbound batch into per-shard index lists and steps
    /// each shard over its selection without copying segments.
    pub fn on_segments_indexed(
        &mut self,
        now: SimTime,
        segments: &[(Ipv4Addr, TcpSegment)],
        idxs: &[u32],
    ) -> ListenerOutput {
        let selected = idxs.iter().map(|&i| {
            let (src, seg) = &segments[i as usize];
            (*src, seg)
        });
        self.on_segments_iter(now, selected)
    }

    /// The one step loop, behind [`Listener::on_segment`],
    /// [`Listener::on_segments`] and [`Listener::on_segments_indexed`].
    fn on_segments_iter<'a>(
        &mut self,
        now: SimTime,
        segments: impl Iterator<Item = (Ipv4Addr, &'a TcpSegment)>,
    ) -> ListenerOutput {
        let mut out = ListenerOutput::default();
        let mut deferred_syns = 0usize;
        for (src, seg) in segments {
            // The issuance run (fresh SYNs the policy answers
            // statelessly) and the solution run never coexist:
            // collecting one kind always flushes the other first.
            if seg.flags.contains(TcpFlags::SYN)
                && !seg.flags.contains(TcpFlags::ACK)
                && !seg.flags.contains(TcpFlags::RST)
            {
                // Pending solutions must land first: establishments
                // change the queue pressure this SYN is judged under.
                self.flush_solutions(now, &mut out);
                let flow = FlowKey {
                    addr: src,
                    port: seg.src_port,
                };
                self.handle_syn(now, flow, seg, &mut deferred_syns, &mut out);
                continue;
            }
            match self.collect_solution(src, seg, &mut out) {
                AckClass::Pending => self.flush_issues(now, &mut deferred_syns, &mut out),
                AckClass::Handled => {}
                AckClass::Sequential => {
                    self.flush_issues(now, &mut deferred_syns, &mut out);
                    self.flush_solutions(now, &mut out);
                    self.segment_inner(now, src, seg, &mut out);
                }
            }
        }
        self.flush_issues(now, &mut deferred_syns, &mut out);
        self.flush_solutions(now, &mut out);
        self.notify_established(&out);
        out
    }

    /// Emits every reply the policy deferred from `on_syn`, in arrival
    /// order, with the issuance crypto batched.
    fn flush_issues(&mut self, now: SimTime, deferred_syns: &mut usize, out: &mut ListenerOutput) {
        if *deferred_syns == 0 {
            return;
        }
        *deferred_syns = 0;
        self.policy.issue_flush(&mut self.core, now, out);
    }

    /// Surfaces every establishment in `out` to the policy's
    /// `on_established` hook.
    fn notify_established(&mut self, out: &ListenerOutput) {
        for ev in &out.events {
            if let ListenerEvent::Established { flow, via } = ev {
                self.policy.on_established(&mut self.core, *flow, *via);
            }
        }
    }

    /// One-by-one processing of a segment that belongs to neither run.
    fn segment_inner(
        &mut self,
        now: SimTime,
        src: Ipv4Addr,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) {
        let flow = FlowKey {
            addr: src,
            port: seg.src_port,
        };
        if seg.flags.contains(TcpFlags::RST) {
            self.core.listen_q.remove(&flow);
            self.policy.forget_flow(&flow);
            self.core.accepted.remove(&flow);
            return;
        }
        if seg.flags.contains(TcpFlags::ACK) {
            self.handle_ack(now, flow, seg, out);
        }
    }

    /// Routes a segment into the batched verification pipeline when it is
    /// a solution-bearing ACK for a flow with no listener or policy
    /// state; the policy performs the paper's check-queue-before-verify
    /// gating and option parsing, staging it in the core's run.
    fn collect_solution(
        &mut self,
        src: Ipv4Addr,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) -> AckClass {
        if !seg.flags.contains(TcpFlags::ACK) || seg.flags.contains(TcpFlags::RST) {
            return AckClass::Sequential;
        }
        if seg.solution().is_none() {
            return AckClass::Sequential;
        }
        let flow = FlowKey {
            addr: src,
            port: seg.src_port,
        };
        if self.core.knows_flow(&flow) || self.policy.has_flow_state(&flow) {
            return AckClass::Sequential;
        }
        let mut run = self.core.take_solution_run();
        let class = self
            .policy
            .classify_ack(&mut self.core, flow, seg, &mut run, out);
        self.core.put_solution_run(run);
        class
    }

    /// Verifies and applies the staged run of solution ACKs.
    fn flush_solutions(&mut self, now: SimTime, out: &mut ListenerOutput) {
        if self.core.solutions.is_empty() {
            return;
        }
        // Run and verdicts are taken out of the core so the policy and
        // the establishment loop can borrow it mutably.
        let mut run = self.core.take_solution_run();
        let mut verdicts = self.core.take_verdict_buf();
        let handled = self.policy.verify(
            &mut self.core,
            puzzle_clock(now),
            run.requests(),
            &mut verdicts,
        );
        if !handled {
            // No verifying layer installed: every staged solution is
            // rejected (unreachable for the built-in policies, which only
            // classify solutions they can verify).
            verdicts.extend(
                run.requests()
                    .iter()
                    .map(|_| Err(VerifyError::Invalid { index: 0 })),
            );
        }
        self.core.settle_solutions(&mut run, &mut verdicts, out);
        self.core.put_verdict_buf(verdicts);
        self.core.put_solution_run(run);
    }

    /// Drives retransmissions, half-open expiry, and the policy's
    /// periodic `tick` (cache expiry, adaptive difficulty control);
    /// call periodically.
    pub fn poll(&mut self, now: SimTime) -> Vec<(Ipv4Addr, TcpSegment)> {
        let out = self.core.poll_retransmits(now);
        self.policy.tick(&mut self.core, now);
        self.core.stats.synacks_sent += out.len() as u64;
        out
    }

    /// A SYN segment (`ACK`/`RST` clear), reached only from the step
    /// loop. The listener flushes the deferred issuance run before it
    /// acts on anything but another deferral, so no reply — and no
    /// server ISN — is ever issued ahead of those of SYNs that arrived
    /// earlier.
    fn handle_syn(
        &mut self,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        deferred_syns: &mut usize,
        out: &mut ListenerOutput,
    ) {
        self.core.stats.syns_received += 1;
        let now_ts = puzzle_clock(now);

        if self.core.knows_flow(&flow) {
            self.flush_issues(now, deferred_syns, out);
            // Duplicate SYN for an existing half-open: retransmit the
            // SYN-ACK. SYN for an already-established flow: ignore.
            if let Some(half) = self.core.listen_q.get(&flow) {
                let reply = synack_segment(
                    self.core.cfg.port,
                    flow,
                    half.server_isn,
                    half.client_isn,
                    half.mss,
                    (self.core.cfg.use_timestamps && half.has_ts)
                        .then_some((now_ts, half.peer_tsval)),
                );
                self.core.stats.synacks_sent += 1;
                out.replies.push((flow.addr, reply));
            }
            return;
        }

        // Queue-pressure policy dispatch. Stock behaviour (NoDefense,
        // cookies) drops a SYN outright while the accept queue is full —
        // a completing child could not be admitted anyway; puzzles
        // challenge under either pressure and through their hysteresis
        // hold (§5). The policy decides; `Decline` falls back to a drop.
        let pressure = QueuePressure {
            listen_full: self.core.listen_q.len() >= self.core.cfg.backlog,
            accept_full: self.core.accept_q.len() >= self.core.cfg.accept_backlog,
        };
        let disposition = self.policy.on_syn(&mut self.core, now, flow, seg, pressure);
        if disposition != SynDisposition::Deferred {
            self.flush_issues(now, deferred_syns, out);
        }
        match disposition {
            SynDisposition::Deferred => {
                *deferred_syns += 1;
                return;
            }
            SynDisposition::Inline => {
                return self.policy.answer_syn(&mut self.core, now, flow, seg, out);
            }
            SynDisposition::Decline => {
                self.core.stats.syns_dropped += 1;
                out.events.push(ListenerEvent::SynDropped { flow });
                return;
            }
            SynDisposition::Admit => {}
        }

        // Room in the listen queue: ordinary stateful handshake.
        let client_ts = seg.timestamps().map(|(tsval, _)| tsval);
        let server_isn = self.core.next_server_isn(flow);
        let mss = self.core.admit_mss(seg.mss().unwrap_or(536));
        let half = HalfOpen {
            client_isn: seg.seq,
            server_isn,
            mss,
            retries: 0,
            next_retx: now + self.core.cfg.synack_timeout,
            peer_tsval: client_ts.unwrap_or(0),
            has_ts: client_ts.is_some(),
        };
        let reply = synack_segment(
            self.core.cfg.port,
            flow,
            server_isn,
            seg.seq,
            self.core.cfg.mss,
            (self.core.cfg.use_timestamps && half.has_ts).then_some((now_ts, half.peer_tsval)),
        );
        self.core.listen_q.insert(flow, half);
        self.core.stats.synacks_sent += 1;
        out.replies.push((flow.addr, reply));
    }

    fn handle_ack(
        &mut self,
        now: SimTime,
        flow: FlowKey,
        seg: &TcpSegment,
        out: &mut ListenerOutput,
    ) {
        // Data (or pure ACK) on a connection we admitted.
        if self.core.accepted.contains_key(&flow) || self.core.in_accept_q.contains_key(&flow) {
            if !seg.payload.is_empty() || seg.flags.contains(TcpFlags::FIN) {
                self.core.stats.data_segments += 1;
                out.events.push(ListenerEvent::Data {
                    flow,
                    payload: seg.payload.clone(),
                    fin: seg.flags.contains(TcpFlags::FIN),
                });
            }
            return;
        }

        // Handshake completion for a stateful half-open connection.
        if let Some(half) = self.core.listen_q.get(&flow) {
            if seg.ack == half.server_isn.wrapping_add(1) {
                if self.core.accept_q.len() >= self.core.cfg.accept_backlog {
                    // Linux behaviour: with the accept queue full the ACK
                    // cannot be honoured; the half-open stays in the listen
                    // queue (SYN-ACK keeps retransmitting until it expires).
                    // This is how accept-queue pressure backs up into the
                    // listen queue — the saturation Fig. 10 shows under a
                    // connection flood.
                    self.core.stats.accept_overflow_drops += 1;
                    out.events.push(ListenerEvent::AcceptOverflow { flow });
                    return;
                }
                let half = self.core.listen_q.remove(&flow).expect("present");
                self.core.finish_establish(
                    flow,
                    half.server_isn.wrapping_add(1),
                    half.mss,
                    EstablishedVia::ListenQueue,
                    &seg.payload,
                    seg.flags.contains(TcpFlags::FIN),
                    out,
                );
            }
            // Wrong ack number: leave the half-open alone and ignore.
            return;
        }

        // No listener state: the policy's stateless completion paths
        // (SYN-cache promotion, cookie validation, solution checking).
        match self.policy.on_ack(&mut self.core, now, flow, seg, out) {
            AckDisposition::Consumed => {}
            AckDisposition::Unclaimed => {
                // Stock fallback: data for a connection the server never
                // admitted draws an RST; a bare ACK is ignored.
                if !seg.payload.is_empty() || seg.flags.contains(TcpFlags::FIN) {
                    self.core.send_rst(flow, seg, out);
                }
            }
        }
    }
}

/// The server ISN a mint's HMAC tag stands for.
fn isn_from_tag(tag: &Digest) -> u32 {
    u32::from_be_bytes([tag[0], tag[1], tag[2], tag[3]])
}

/// Builds a stateful SYN-ACK with the standard option set.
pub(crate) fn synack_segment(
    port: u16,
    flow: FlowKey,
    server_isn: u32,
    client_isn: u32,
    mss: u16,
    ts: Option<(u32, u32)>,
) -> TcpSegment {
    let mut b = SegmentBuilder::new(port, flow.port)
        .seq(server_isn)
        .ack_num(client_isn.wrapping_add(1))
        .flags(TcpFlags::SYN | TcpFlags::ACK)
        .mss(mss)
        .window_scale(7);
    if let Some((tsval, tsecr)) = ts {
        b = b.timestamps(tsval, tsecr);
    }
    b.build()
}

/// The cookie epoch for a simulation instant.
pub(crate) fn cookie_counter(now: SimTime) -> u64 {
    now.as_nanos() / 1_000_000_000 / crate::cookie::COUNTER_PERIOD_SECS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{SolutionOption, TcpOption};
    use puzzle_core::{oracle_proof, Solver};

    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn listener(
        policy: PolicyBuilder<ScalarBackend>,
        backlog: usize,
        accept_backlog: usize,
    ) -> Listener {
        let mut cfg = ListenerConfig::new(SERVER_IP, 80);
        cfg.backlog = backlog;
        cfg.accept_backlog = accept_backlog;
        Listener::with_policy(
            cfg,
            ServerSecret::from_bytes([7; 32]),
            ScalarBackend,
            &policy,
        )
    }

    fn syn(port: u16, isn: u32) -> TcpSegment {
        SegmentBuilder::new(port, 80)
            .seq(isn)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .timestamps(1, 0)
            .build()
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn plain_handshake_establishes() {
        let mut l = listener(PolicyBuilder::none(), 4, 4);
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1000, 500));
        assert_eq!(out.replies.len(), 1);
        let (_, synack) = &out.replies[0];
        assert!(synack.flags.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert_eq!(synack.ack, 501);
        assert_eq!(l.queue_depths(), (1, 0));

        let ack = SegmentBuilder::new(1000, 80)
            .seq(501)
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(0), CLIENT_IP, &ack);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::Established {
                via: EstablishedVia::ListenQueue,
                ..
            }]
        ));
        assert_eq!(l.queue_depths(), (0, 1));
        assert_eq!(l.stats().established_direct, 1);
        assert_eq!(
            l.accept(),
            Some(FlowKey {
                addr: CLIENT_IP,
                port: 1000
            })
        );
    }

    #[test]
    fn wrong_ack_number_does_not_establish() {
        let mut l = listener(PolicyBuilder::none(), 4, 4);
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1000, 500));
        let (_, synack) = &out.replies[0];
        let bad_ack = SegmentBuilder::new(1000, 80)
            .seq(501)
            .ack_num(synack.seq) // off by one
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(0), CLIENT_IP, &bad_ack);
        assert!(out.events.is_empty());
        assert_eq!(l.queue_depths(), (1, 0));
    }

    #[test]
    fn no_defense_drops_syns_when_backlog_full() {
        let mut l = listener(PolicyBuilder::none(), 2, 4);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        l.on_segment(t(0), CLIENT_IP, &syn(1001, 2));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1002, 3));
        assert!(out.replies.is_empty());
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::SynDropped { .. }]
        ));
        assert_eq!(l.stats().syns_dropped, 1);
        assert_eq!(l.queue_depths(), (2, 0));
    }

    #[test]
    fn duplicate_syn_retransmits_same_synack() {
        let mut l = listener(PolicyBuilder::none(), 4, 4);
        let a = l.on_segment(t(0), CLIENT_IP, &syn(1000, 500));
        let b = l.on_segment(t(1), CLIENT_IP, &syn(1000, 500));
        assert_eq!(a.replies[0].1.seq, b.replies[0].1.seq);
        assert_eq!(l.queue_depths(), (1, 0));
    }

    #[test]
    fn cookies_engage_when_backlog_full_and_validate() {
        let mut l = listener(PolicyBuilder::syn_cookies(), 1, 4);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        // Backlog (1) now full: next SYN gets a cookie.
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 77));
        assert_eq!(out.replies.len(), 1);
        let cookie_synack = &out.replies[0].1;
        assert_eq!(l.stats().cookies_sent, 1);
        assert_eq!(l.queue_depths(), (1, 0)); // stateless

        let ack = SegmentBuilder::new(2000, 80)
            .seq(78)
            .ack_num(cookie_synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(1), CLIENT_IP, &ack);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::Established {
                via: EstablishedVia::Cookie,
                ..
            }]
        ));
        assert_eq!(l.stats().established_cookie, 1);
    }

    #[test]
    fn forged_cookie_ack_rejected() {
        let mut l = listener(PolicyBuilder::syn_cookies(), 1, 4);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let ack = SegmentBuilder::new(2000, 80)
            .seq(78)
            .ack_num(0x1234_5678)
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(0), CLIENT_IP, &ack);
        assert!(out.events.is_empty());
        assert_eq!(l.stats().established_cookie, 0);
    }

    fn puzzle_config(verify: VerifyMode) -> PuzzleConfig {
        PuzzleConfig {
            difficulty: Difficulty::new(2, 6).unwrap(),
            preimage_bits: 32,
            expiry: 8,
            verify,
            hold: netsim::SimDuration::ZERO,
            verify_workers: 1,
            algo: AlgoId::Prefix,
        }
    }

    fn puzzle_listener(backlog: usize, accept_backlog: usize, verify: VerifyMode) -> Listener {
        listener(
            PolicyBuilder::puzzles(puzzle_config(verify)),
            backlog,
            accept_backlog,
        )
    }

    /// Completes a challenged handshake with the real solver.
    fn solve_and_ack(
        _l: &mut Listener,
        now: SimTime,
        client_port: u16,
        client_isn: u32,
        challenged: &TcpSegment,
    ) -> TcpSegment {
        let copt = challenged.challenge().expect("challenge expected");
        let issued = challenged
            .timestamps()
            .map(|(tsval, _)| tsval)
            .or(copt.timestamp)
            .unwrap();
        let tuple = ConnectionTuple::new(CLIENT_IP, client_port, SERVER_IP, 80, client_isn);
        let challenge = puzzle_core::Challenge::issue(
            &ServerSecret::from_bytes([7; 32]),
            &tuple,
            issued,
            Difficulty::new(copt.k, copt.m).unwrap(),
            copt.l_bits() as u16,
        )
        .unwrap();
        assert_eq!(
            challenge.preimage(),
            &copt.preimage[..],
            "preimage mismatch"
        );
        let solved = Solver::new().solve(&challenge);
        let sol = SolutionOption::build(1460, 7, solved.solution.proofs(), None);
        let _ = now;
        SegmentBuilder::new(client_port, 80)
            .seq(client_isn.wrapping_add(1))
            .ack_num(challenged.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .timestamps(2, issued)
            .option(TcpOption::Solution(sol))
            .build()
    }

    #[test]
    fn puzzles_challenge_when_backlog_full_and_real_solution_establishes() {
        let mut l = puzzle_listener(1, 4, VerifyMode::Real);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1)); // fills backlog
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = &out.replies[0].1;
        assert!(challenged.challenge().is_some());
        assert_eq!(l.stats().challenges_sent, 1);
        assert_eq!(l.queue_depths(), (1, 0)); // stateless

        let ack = solve_and_ack(&mut l, t(1), 2000, 500, challenged);
        let out = l.on_segment(t(1), CLIENT_IP, &ack);
        assert!(
            matches!(
                out.events.as_slice(),
                [ListenerEvent::Established {
                    via: EstablishedVia::Puzzle,
                    ..
                }]
            ),
            "events: {:?}",
            out.events
        );
        assert_eq!(l.stats().established_puzzle, 1);
    }

    #[test]
    fn puzzles_not_engaged_below_backlog() {
        let mut l = puzzle_listener(4, 4, VerifyMode::Real);
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        assert!(out.replies[0].1.challenge().is_none());
        assert_eq!(l.stats().challenges_sent, 0);
        assert_eq!(l.stats().synacks_sent, 1);
    }

    #[test]
    fn bogus_solution_rejected() {
        let mut l = puzzle_listener(1, 4, VerifyMode::Real);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        let issued = challenged.timestamps().unwrap().0;
        let bogus = SolutionOption::build(1460, 7, &[vec![0xaa; 4], vec![0xbb; 4]], None);
        let ack = SegmentBuilder::new(2000, 80)
            .seq(501)
            .ack_num(challenged.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .timestamps(2, issued)
            .option(TcpOption::Solution(bogus))
            .build();
        let out = l.on_segment(t(1), CLIENT_IP, &ack);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::SolutionRejected { .. }]
        ));
        assert_eq!(l.stats().verify_failures, 1);
        assert_eq!(l.stats().established_puzzle, 0);
    }

    #[test]
    fn expired_solution_rejected_replay_defence() {
        let mut l = puzzle_listener(1, 4, VerifyMode::Real);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        let ack = solve_and_ack(&mut l, t(0), 2000, 500, &challenged);
        // Replay 100 s later: outside the 8 s window.
        let out = l.on_segment(t(100), CLIENT_IP, &ack);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::SolutionRejected {
                reason: VerifyError::Expired { .. },
                ..
            }]
        ));
        assert_eq!(l.stats().verify_expired, 1);
    }

    #[test]
    fn replayed_solution_for_other_flow_rejected() {
        let mut l = puzzle_listener(1, 4, VerifyMode::Real);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        let ack = solve_and_ack(&mut l, t(0), 2000, 500, &challenged);
        // Attacker at a different port replays the same ACK payload.
        let mut replay = ack.clone();
        replay.src_port = 3000;
        let out = l.on_segment(t(1), CLIENT_IP, &replay);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::SolutionRejected { .. }]
        ));
        // The original still works (one slot per solution).
        let out = l.on_segment(t(1), CLIENT_IP, &ack);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::Established { .. }]
        ));
    }

    #[test]
    fn ack_ignored_when_accept_queue_full_then_data_gets_rst() {
        let mut l = puzzle_listener(1, 0, VerifyMode::Real); // accept backlog 0
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        let ack = solve_and_ack(&mut l, t(0), 2000, 500, &challenged);
        let out = l.on_segment(t(0), CLIENT_IP, &ack);
        // Ignored silently: no reply, deception event only.
        assert!(out.replies.is_empty());
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::AckIgnoredQueueFull { .. }]
        ));
        // The deceived client pushes data → RST.
        let data = SegmentBuilder::new(2000, 80)
            .seq(502)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(b"GET /".to_vec())
            .build();
        let out = l.on_segment(t(0), CLIENT_IP, &data);
        assert_eq!(out.replies.len(), 1);
        assert!(out.replies[0].1.flags.contains(TcpFlags::RST));
        assert_eq!(l.stats().rsts_sent, 1);
    }

    #[test]
    fn non_solver_ack_is_ignored_while_puzzles_active() {
        let mut l = puzzle_listener(1, 4, VerifyMode::Real);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        let plain_ack = SegmentBuilder::new(2000, 80)
            .seq(501)
            .ack_num(challenged.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(0), CLIENT_IP, &plain_ack);
        assert!(out.replies.is_empty());
        assert!(out.events.is_empty());
        assert_eq!(l.stats().acks_without_solution, 1);
    }

    #[test]
    fn oracle_mode_accepts_oracle_proofs_rejects_garbage() {
        let mut l = puzzle_listener(1, 4, VerifyMode::Oracle);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        let copt = challenged.challenge().unwrap();
        let issued = challenged.timestamps().unwrap().0;
        let secret = ServerSecret::from_bytes([7; 32]);
        let proofs: Vec<Vec<u8>> = (1..=copt.k)
            .map(|i| oracle_proof(&ScalarBackend, AlgoId::Prefix, &secret, &copt.preimage, i))
            .collect();
        let sol = SolutionOption::build(1460, 7, &proofs, None);
        let good = SegmentBuilder::new(2000, 80)
            .seq(501)
            .ack_num(challenged.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .timestamps(2, issued)
            .option(TcpOption::Solution(sol))
            .build();
        let out = l.on_segment(t(1), CLIENT_IP, &good);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::Established {
                via: EstablishedVia::Puzzle,
                ..
            }]
        ));

        // Garbage proofs still rejected in oracle mode.
        let out2 = l.on_segment(t(0), CLIENT_IP, &syn(2001, 7));
        let challenged2 = out2.replies[0].1.clone();
        let bad = SolutionOption::build(1460, 7, &[vec![1; 4], vec![2; 4]], None);
        let ack = SegmentBuilder::new(2001, 80)
            .seq(8)
            .ack_num(challenged2.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .timestamps(2, challenged2.timestamps().unwrap().0)
            .option(TcpOption::Solution(bad))
            .build();
        let out = l.on_segment(t(1), CLIENT_IP, &ack);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::SolutionRejected { .. }]
        ));
    }

    fn stateless_listener(
        backlog: usize,
        accept_backlog: usize,
        verify: VerifyMode,
        window_len: u32,
    ) -> Listener {
        listener(
            PolicyBuilder::stateless_puzzles(puzzle_config(verify), window_len),
            backlog,
            accept_backlog,
        )
    }

    /// Completes a windowed challenged handshake with the real solver.
    /// Unlike [`solve_and_ack`] there is nothing to recompute server-side
    /// knowledge for: the client solves exactly the wire pre-image and
    /// echoes the window index the SYN-ACK carried.
    fn solve_windowed_and_ack(
        client_port: u16,
        client_isn: u32,
        challenged: &TcpSegment,
    ) -> TcpSegment {
        let copt = challenged.challenge().expect("challenge expected");
        let issued = challenged
            .timestamps()
            .map(|(tsval, _)| tsval)
            .or(copt.timestamp)
            .unwrap();
        let challenge = puzzle_core::Challenge::from_wire(
            puzzle_core::ChallengeParams {
                difficulty: Difficulty::new(copt.k, copt.m).unwrap(),
                preimage_bits: copt.l_bits(),
                timestamp: issued,
            },
            copt.preimage.clone(),
        )
        .unwrap();
        let solved = Solver::new().solve(&challenge);
        let sol = SolutionOption::build(1460, 7, solved.solution.proofs(), None);
        SegmentBuilder::new(client_port, 80)
            .seq(client_isn.wrapping_add(1))
            .ack_num(challenged.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .timestamps(2, issued)
            .option(TcpOption::Solution(sol))
            .build()
    }

    #[test]
    fn stateless_puzzles_challenge_carries_window_and_solution_establishes() {
        let mut l = stateless_listener(1, 4, VerifyMode::Real, 8);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1)); // fills backlog
        let out = l.on_segment(t(9), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        assert!(challenged.challenge().is_some());
        // The SYN-ACK's tsval is the window index (t = 9 s, 8 s windows
        // → window 1), which the client echoes back as tsecr.
        assert_eq!(challenged.timestamps().unwrap().0, 1);
        assert_eq!(l.stats().challenges_sent, 1);
        // Issuance left no per-flow state anywhere: the queues are
        // untouched and the policy holds nothing for the flow.
        assert_eq!(l.queue_depths(), (1, 0));
        assert_eq!(l.policy_stats().state_bytes, 0);

        // Solving inside the next window still verifies (strict window:
        // current or previous).
        let ack = solve_windowed_and_ack(2000, 500, &challenged);
        let out = l.on_segment(t(17), CLIENT_IP, &ack);
        assert!(
            matches!(
                out.events.as_slice(),
                [ListenerEvent::Established {
                    via: EstablishedVia::Puzzle,
                    ..
                }]
            ),
            "events: {:?}",
            out.events
        );
        assert_eq!(l.stats().established_puzzle, 1);
        // The admission is the policy's first and only retained state:
        // one `(tuple, window)` replay entry.
        assert_eq!(
            l.policy_stats().state_bytes,
            std::mem::size_of::<(u128, u32)>()
        );
    }

    #[test]
    fn stateless_puzzles_reject_solutions_outside_acceptance_window() {
        let mut l = stateless_listener(1, 4, VerifyMode::Real, 8);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        let ack = solve_windowed_and_ack(2000, 500, &challenged);
        // Two windows later the issuing window is neither current nor
        // previous: the nonce has rotated out and the solution is dead,
        // however correct it is.
        let out = l.on_segment(t(16), CLIENT_IP, &ack);
        assert!(
            matches!(
                out.events.as_slice(),
                [ListenerEvent::SolutionRejected { .. }]
            ),
            "events: {:?}",
            out.events
        );
        assert_eq!(l.stats().established_puzzle, 0);
    }

    #[test]
    fn stateless_puzzles_oracle_roundtrip_and_post_proof_replay() {
        let mut l = stateless_listener(1, 4, VerifyMode::Oracle, 8);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        let copt = challenged.challenge().unwrap();
        let issued = challenged.timestamps().unwrap().0;
        assert_eq!(issued, 0); // window index, t = 0 → window 0
        let secret = ServerSecret::from_bytes([7; 32]);
        let proofs: Vec<Vec<u8>> = (1..=copt.k)
            .map(|i| oracle_proof(&ScalarBackend, AlgoId::Prefix, &secret, &copt.preimage, i))
            .collect();
        let sol = SolutionOption::build(1460, 7, &proofs, None);
        let good = SegmentBuilder::new(2000, 80)
            .seq(501)
            .ack_num(challenged.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .timestamps(2, issued)
            .option(TcpOption::Solution(sol))
            .build();
        let out = l.on_segment(t(1), CLIENT_IP, &good);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::Established {
                via: EstablishedVia::Puzzle,
                ..
            }]
        ));
        // Post-proof replay defence: after the connection closes, the
        // captured solution ACK cannot re-establish inside the window.
        let flow = l.accept().expect("established");
        l.close(flow);
        let out = l.on_segment(t(2), CLIENT_IP, &good);
        assert!(
            matches!(
                out.events.as_slice(),
                [ListenerEvent::SolutionRejected { .. }]
            ),
            "events: {:?}",
            out.events
        );
        assert_eq!(l.stats().established_puzzle, 1);
    }

    #[test]
    fn stateless_puzzles_window_rollover_purges_replay_state() {
        let mut l = stateless_listener(1, 4, VerifyMode::Real, 8);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        let ack = solve_windowed_and_ack(2000, 500, &challenged);
        l.on_segment(t(1), CLIENT_IP, &ack);
        assert_eq!(
            l.policy_stats().state_bytes,
            std::mem::size_of::<(u128, u32)>()
        );
        // Polling inside the same window keeps the admission; two
        // rollovers later the entry is outside the acceptance window and
        // the tick purge drops it — retained state is O(windows).
        l.poll(t(7));
        assert_ne!(l.policy_stats().state_bytes, 0);
        l.poll(t(16));
        assert_eq!(l.policy_stats().state_bytes, 0);
    }

    #[test]
    fn syn_cache_expiry_boundary_same_instant_split() {
        // Pins the documented (and golden-pinned) boundary split at
        // `now == expires`: `on_ack` is inclusive — the ACK still
        // promotes — while `tick`'s reaper is strict — the entry is
        // removed. An entry's fate at the exact expiry instant therefore
        // depends on same-instant segment/poll order; this must not
        // silently drift.
        let cc = SynCacheConfig {
            capacity: 8,
            lifetime: SimDuration::from_secs(5),
        };

        // ACK arriving exactly at the expiry instant: promoted.
        let mut l = listener(PolicyBuilder::syn_cache(cc), 0, 4);
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let synack = out.replies[0].1.clone();
        let ack = SegmentBuilder::new(1000, 80)
            .seq(2)
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(5), CLIENT_IP, &ack);
        assert!(
            matches!(
                out.events.as_slice(),
                [ListenerEvent::Established {
                    via: EstablishedVia::SynCache,
                    ..
                }]
            ),
            "inclusive on_ack boundary drifted: {:?}",
            out.events
        );
        assert_eq!(l.stats().syncache_expired, 0);

        // Reaper polling at the same instant: removed, and the same ACK
        // afterwards matches nothing.
        let mut l = listener(PolicyBuilder::syn_cache(cc), 0, 4);
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let synack = out.replies[0].1.clone();
        l.poll(t(5));
        assert_eq!(l.syn_cache_len(), 0);
        assert_eq!(l.stats().syncache_expired, 1);
        let ack = SegmentBuilder::new(1000, 80)
            .seq(2)
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(5), CLIENT_IP, &ack);
        assert!(out.events.is_empty(), "events: {:?}", out.events);
        assert_eq!(l.stats().established_syncache, 0);
    }

    #[test]
    fn accept_queue_pressure_triggers_puzzles_but_not_cookies() {
        // Connection-flood shape: listen queue empty, accept queue full.
        let mut lp = puzzle_listener(64, 1, VerifyMode::Real);
        // Establish one connection to fill the accept queue (cap 1).
        let out = lp.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let synack = out.replies[0].1.clone();
        let ack = SegmentBuilder::new(1000, 80)
            .seq(2)
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        lp.on_segment(t(0), CLIENT_IP, &ack);
        assert_eq!(lp.queue_depths(), (0, 1));
        // Listen queue has room, but the accept queue is full → challenge.
        let out = lp.on_segment(t(0), CLIENT_IP, &syn(2000, 5));
        assert!(out.replies[0].1.challenge().is_some());

        // Cookies keep the stock Linux behaviour: a SYN arriving while the
        // accept queue is full is dropped, not answered.
        let mut lc = listener(PolicyBuilder::syn_cookies(), 64, 1);
        let out = lc.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let synack = out.replies[0].1.clone();
        let ack = SegmentBuilder::new(1000, 80)
            .seq(2)
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        lc.on_segment(t(0), CLIENT_IP, &ack);
        let out = lc.on_segment(t(0), CLIENT_IP, &syn(2000, 5));
        assert_eq!(lc.stats().cookies_sent, 0);
        assert!(out.replies.is_empty());
        assert_eq!(lc.stats().syns_dropped, 1);
        assert_eq!(lc.queue_depths(), (0, 1));
    }

    #[test]
    fn accept_overflow_leaves_half_open_stuck_then_retries_succeed() {
        let mut l = listener(PolicyBuilder::none(), 8, 1);
        // Open both handshakes while there is room everywhere.
        let out_a = l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let sa1 = out_a.replies[0].1.clone();
        let out_b = l.on_segment(t(0), CLIENT_IP, &syn(2000, 5));
        let sa2 = out_b.replies[0].1.clone();
        assert_eq!(l.queue_depths(), (2, 0));

        // First ACK fills the accept queue (capacity 1).
        let ack1 = SegmentBuilder::new(1000, 80)
            .seq(2)
            .ack_num(sa1.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        l.on_segment(t(0), CLIENT_IP, &ack1);
        assert_eq!(l.queue_depths(), (1, 1));

        // Second handshake completes while the accept queue is full: the
        // half-open must remain queued, not vanish.
        let ack2 = SegmentBuilder::new(2000, 80)
            .seq(6)
            .ack_num(sa2.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(0), CLIENT_IP, &ack2);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::AcceptOverflow { .. }]
        ));
        assert_eq!(l.queue_depths(), (1, 1), "half-open stuck in listen queue");

        // New SYNs are refused while the accept queue is full (Linux drop).
        let out = l.on_segment(t(0), CLIENT_IP, &syn(3000, 9));
        assert!(out.replies.is_empty());
        assert_eq!(l.stats().syns_dropped, 1);

        // App accepts, freeing a slot; a retried ACK now promotes.
        assert!(l.accept().is_some());
        let out = l.on_segment(t(1), CLIENT_IP, &ack2);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::Established { .. }]
        ));
        assert_eq!(l.queue_depths(), (0, 1));
    }

    #[test]
    fn zero_backlog_always_challenges() {
        let mut l = puzzle_listener(0, 4, VerifyMode::Real);
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        assert!(out.replies[0].1.challenge().is_some());
        assert_eq!(l.queue_depths(), (0, 0));
    }

    #[test]
    fn syn_cache_absorbs_backlog_overflow() {
        // §2.1: "The SYN cache reduces the amount of memory needed …
        // maintains a hash table for half-open connections".
        let cc = SynCacheConfig {
            capacity: 8,
            lifetime: SimDuration::from_secs(15),
        };
        let mut l = listener(PolicyBuilder::syn_cache(cc), 1, 4);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1)); // fills backlog (1)
                                                      // Overflow SYN lands in the cache and still gets a SYN-ACK.
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 50));
        assert_eq!(out.replies.len(), 1);
        assert_eq!(l.syn_cache_len(), 1);
        let synack = out.replies[0].1.clone();
        // Completing the handshake promotes from the cache.
        let ack = SegmentBuilder::new(2000, 80)
            .seq(51)
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(1), CLIENT_IP, &ack);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::Established {
                via: EstablishedVia::SynCache,
                ..
            }]
        ));
        assert_eq!(l.stats().established_syncache, 1);
        assert_eq!(l.syn_cache_len(), 0);
    }

    #[test]
    fn syn_cache_full_defaults_to_drops() {
        // §2.1: "Once the cache is full, the server will default to the
        // same behavior it performed when its backlog limit is reached."
        let cc = SynCacheConfig {
            capacity: 2,
            lifetime: SimDuration::from_secs(15),
        };
        let mut l = listener(PolicyBuilder::syn_cache(cc), 0, 4);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        l.on_segment(t(0), CLIENT_IP, &syn(1001, 2));
        assert_eq!(l.syn_cache_len(), 2);
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1002, 3));
        assert!(out.replies.is_empty());
        assert_eq!(l.stats().syns_dropped, 1);
    }

    #[test]
    fn syn_cache_entries_expire() {
        let cc = SynCacheConfig {
            capacity: 8,
            lifetime: SimDuration::from_secs(5),
        };
        let mut l = listener(PolicyBuilder::syn_cache(cc), 0, 4);
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let synack = out.replies[0].1.clone();
        // Reaped by poll after the lifetime.
        l.poll(t(6));
        assert_eq!(l.syn_cache_len(), 0);
        assert_eq!(l.stats().syncache_expired, 1);
        // A late ACK no longer matches anything.
        let ack = SegmentBuilder::new(1000, 80)
            .seq(2)
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(7), CLIENT_IP, &ack);
        assert!(out.events.is_empty());
        assert_eq!(l.stats().established_total(), 0);
    }

    #[test]
    fn syn_cache_wrong_ack_not_promoted() {
        let cc = SynCacheConfig::default();
        let mut l = listener(PolicyBuilder::syn_cache(cc), 0, 4);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let ack = SegmentBuilder::new(1000, 80)
            .seq(2)
            .ack_num(0xdead_beef)
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(1), CLIENT_IP, &ack);
        assert!(out.events.is_empty());
        assert_eq!(l.syn_cache_len(), 1, "entry stays for the real ACK");
    }

    #[test]
    fn synack_retransmission_then_expiry() {
        let mut cfg = ListenerConfig::new(SERVER_IP, 80);
        cfg.synack_retries = 2;
        cfg.synack_timeout = SimDuration::from_secs(1);
        let mut l = Listener::new(cfg, ServerSecret::from_bytes([7; 32]));
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        assert_eq!(l.poll(t(0)).len(), 0); // not due yet
        assert_eq!(l.poll(t(1)).len(), 1); // 1st retx at +1 s
        assert_eq!(l.poll(t(2)).len(), 0); // backoff pushed to +3 s
        assert_eq!(l.poll(t(3)).len(), 1); // 2nd retx
        assert_eq!(l.poll(t(8)).len(), 0); // retries exhausted → dropped
        assert_eq!(l.stats().half_open_expired, 1);
        assert_eq!(l.queue_depths(), (0, 0));
    }

    #[test]
    fn send_data_chunks_by_mss_and_fin_closes() {
        let mut l = listener(PolicyBuilder::none(), 4, 4);
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1000, 500));
        let synack = out.replies[0].1.clone();
        let ack = SegmentBuilder::new(1000, 80)
            .seq(501)
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        l.on_segment(t(0), CLIENT_IP, &ack);
        let flow = l.accept().unwrap();
        let segs = l.send_data(flow, 10_000, true);
        // 10 kB at MSS 1460 → 7 segments; last has PSH|FIN.
        assert_eq!(segs.len(), 7);
        let total: usize = segs.iter().map(|(_, s)| s.payload.len()).sum();
        assert_eq!(total, 10_000);
        assert!(segs
            .last()
            .unwrap()
            .1
            .flags
            .contains(TcpFlags::FIN | TcpFlags::PSH));
        assert!(!segs[0].1.flags.contains(TcpFlags::FIN));
        // Connection closed: further sends produce nothing.
        assert!(l.send_data(flow, 10, false).is_empty());
    }

    /// `send_data(flow, 100, true)` on a thread, failing the test if it
    /// has not returned within five seconds (an unfloored MSS of 0 used
    /// to spin there forever).
    fn send_data_within_deadline(mut l: Listener, flow: FlowKey) -> Vec<(Ipv4Addr, TcpSegment)> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(l.send_data(flow, 100, true));
        });
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("send_data did not return within 5 s")
    }

    fn assert_sent_at_min_mss(segs: &[(Ipv4Addr, TcpSegment)]) {
        let lens: Vec<usize> = segs.iter().map(|(_, s)| s.payload.len()).collect();
        assert_eq!(lens, [48, 48, 4], "100 B at the 48-byte floor");
        assert!(segs[2].1.flags.contains(TcpFlags::FIN));
    }

    #[test]
    fn stateful_mss_zero_is_floored_and_send_data_terminates() {
        let mut l = listener(PolicyBuilder::none(), 4, 4);
        let syn = SegmentBuilder::new(1000, 80)
            .seq(500)
            .flags(TcpFlags::SYN)
            .mss(0)
            .build();
        let synack = l.on_segment(t(0), CLIENT_IP, &syn).replies[0].1.clone();
        let ack = SegmentBuilder::new(1000, 80)
            .seq(501)
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        l.on_segment(t(0), CLIENT_IP, &ack);
        let flow = l.accept().expect("established");
        assert_sent_at_min_mss(&send_data_within_deadline(l, flow));
    }

    #[test]
    fn puzzle_mss_zero_is_floored_and_send_data_terminates() {
        let mut l = puzzle_listener(1, 4, VerifyMode::Real);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1)); // fills backlog
        let challenged = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500)).replies[0]
            .1
            .clone();
        let mut ack = solve_and_ack(&mut l, t(1), 2000, 500, &challenged);
        for option in &mut ack.options {
            if let TcpOption::Solution(sol) = option {
                sol.mss = 0; // the re-sent MSS the solution block carries
            }
        }
        l.on_segment(t(1), CLIENT_IP, &ack);
        assert_eq!(l.stats().established_puzzle, 1);
        let flow = l.accept().expect("established");
        assert_eq!(flow.port, 2000);
        assert_sent_at_min_mss(&send_data_within_deadline(l, flow));
    }

    #[test]
    fn rst_clears_state() {
        let mut l = listener(PolicyBuilder::none(), 4, 4);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 500));
        assert_eq!(l.queue_depths(), (1, 0));
        let rst = SegmentBuilder::new(1000, 80).flags(TcpFlags::RST).build();
        l.on_segment(t(0), CLIENT_IP, &rst);
        assert_eq!(l.queue_depths(), (0, 0));
    }

    #[test]
    fn rst_clears_syn_cache_entry() {
        let cc = SynCacheConfig::default();
        let mut l = listener(PolicyBuilder::syn_cache(cc), 0, 4);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        assert_eq!(l.syn_cache_len(), 1);
        let rst = SegmentBuilder::new(1000, 80).flags(TcpFlags::RST).build();
        l.on_segment(t(0), CLIENT_IP, &rst);
        assert_eq!(l.syn_cache_len(), 0);
    }

    #[test]
    fn data_on_established_connection_delivered() {
        let mut l = listener(PolicyBuilder::none(), 4, 4);
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1000, 500));
        let synack = out.replies[0].1.clone();
        let ack = SegmentBuilder::new(1000, 80)
            .seq(501)
            .ack_num(synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .payload(b"GET /gettext/10000".to_vec())
            .build();
        let out = l.on_segment(t(0), CLIENT_IP, &ack);
        assert!(out.events.iter().any(|e| matches!(
            e,
            ListenerEvent::Data { payload, .. } if payload == b"GET /gettext/10000"
        )));
        assert_eq!(l.stats().data_segments, 1);
    }

    #[test]
    fn on_segments_batch_establishes_a_run_of_solutions() {
        let mut l = puzzle_listener(0, 8, VerifyMode::Real); // always challenge
                                                             // Three clients get challenged...
        let mut acks = Vec::new();
        for (i, port) in [2000u16, 2001, 2002].iter().enumerate() {
            let out = l.on_segment(t(0), CLIENT_IP, &syn(*port, 100 + i as u32));
            let challenged = out.replies[0].1.clone();
            acks.push((
                CLIENT_IP,
                solve_and_ack(&mut l, t(0), *port, 100 + i as u32, &challenged),
            ));
        }
        let hashes_before = l.stats().verify_hashes;
        // ...and their solution ACKs verify as one batch.
        let out = l.on_segments(t(1), &acks);
        let established = out
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ListenerEvent::Established {
                        via: EstablishedVia::Puzzle,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(established, 3, "events: {:?}", out.events);
        assert_eq!(l.stats().established_puzzle, 3);
        // Exact hash accounting: 1 pre-image + k=2 proofs per solution.
        assert_eq!(l.stats().verify_hashes - hashes_before, 3 * (1 + 2));
    }

    #[test]
    fn on_segments_parallel_workers_match_sequential() {
        // The same run of solution ACKs, verified sequentially and with
        // the sharded parallel mode: identical establishments, hash
        // charges, and replay bookkeeping.
        let mk = |workers: usize| {
            let mut pc = puzzle_config(VerifyMode::Real);
            pc.verify_workers = workers;
            listener(PolicyBuilder::puzzles(pc), 0, 16)
        };
        let run = |mut l: Listener| -> (u64, u64, u64) {
            let mut acks = Vec::new();
            for (i, port) in (2000u16..2006).enumerate() {
                let out = l.on_segment(t(0), CLIENT_IP, &syn(port, 100 + i as u32));
                let challenged = out.replies[0].1.clone();
                acks.push((
                    CLIENT_IP,
                    solve_and_ack(&mut l, t(0), port, 100 + i as u32, &challenged),
                ));
            }
            // Duplicate the last ACK: the replay cache must reject the
            // copy under either mode.
            let dup = acks.last().unwrap().clone();
            acks.push(dup);
            l.on_segments(t(1), &acks);
            let s = l.stats();
            (s.established_puzzle, s.verify_hashes, s.verify_replayed)
        };
        let sequential = run(mk(1));
        let parallel = run(mk(4));
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.0, 6);
        assert_eq!(sequential.2, 1);
    }

    #[test]
    fn on_segments_flushes_batch_before_other_segments() {
        let mut l = puzzle_listener(0, 8, VerifyMode::Real);
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        let ack = solve_and_ack(&mut l, t(0), 2000, 500, &challenged);
        // Solution ACK followed by data on the flow it establishes: the
        // flush must admit the flow before the data segment is processed.
        let data = SegmentBuilder::new(2000, 80)
            .seq(502)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(b"GET /gettext/5".to_vec())
            .build();
        let out = l.on_segments(t(0), &[(CLIENT_IP, ack), (CLIENT_IP, data)]);
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, ListenerEvent::Established { .. })),
            "events: {:?}",
            out.events
        );
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, ListenerEvent::Data { .. })),
            "data must be delivered, not RST: {:?}",
            out.events
        );
        assert_eq!(l.stats().rsts_sent, 0);
    }

    #[test]
    fn replay_cache_blocks_readmission_after_close() {
        let mut l = puzzle_listener(1, 4, VerifyMode::Real);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        let ack = solve_and_ack(&mut l, t(0), 2000, 500, &challenged);
        let out = l.on_segment(t(1), CLIENT_IP, &ack);
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::Established { .. }]
        ));
        // The server application services and closes the connection...
        let flow = l.accept().expect("established");
        l.close(flow);
        // ...and a verbatim replay inside the expiry window is now
        // rejected by the replay cache — with zero hash cost.
        let hashes_before = l.stats().verify_hashes;
        let out = l.on_segment(t(2), CLIENT_IP, &ack);
        assert!(
            matches!(
                out.events.as_slice(),
                [ListenerEvent::SolutionRejected {
                    reason: VerifyError::Replayed,
                    ..
                }]
            ),
            "events: {:?}",
            out.events
        );
        assert_eq!(l.stats().verify_replayed, 1);
        assert_eq!(l.stats().verify_hashes, hashes_before);
    }

    #[test]
    fn runtime_difficulty_tuning() {
        let mut l = puzzle_listener(1, 4, VerifyMode::Real);
        assert!(l.set_difficulty(Difficulty::new(3, 9).unwrap()));
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 2));
        let copt = out.replies[0].1.challenge().unwrap();
        assert_eq!((copt.k, copt.m), (3, 9));
    }

    #[test]
    fn set_difficulty_reports_not_applied_without_puzzles() {
        let mut l = listener(PolicyBuilder::syn_cookies(), 1, 4);
        assert!(!l.set_difficulty(Difficulty::new(3, 9).unwrap()));
        let mut l = listener(PolicyBuilder::none(), 1, 4);
        assert!(!l.set_difficulty(Difficulty::new(3, 9).unwrap()));
    }

    #[test]
    fn empty_stack_behaves_like_no_defense() {
        // No layer claims the SYN under pressure: the listener must drop
        // it, never admit past a full backlog.
        let mut l = listener(PolicyBuilder::stacked(vec![]), 1, 4);
        l.on_segment(t(0), CLIENT_IP, &syn(1000, 1)); // fills backlog
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 2));
        assert!(out.replies.is_empty());
        assert!(matches!(
            out.events.as_slice(),
            [ListenerEvent::SynDropped { .. }]
        ));
        assert_eq!(l.queue_depths(), (1, 0), "backlog cap holds");
    }

    #[test]
    fn stacked_syncache_spills_then_puzzles_challenge() {
        // The composition the closed enum could never express: cache
        // spillover first, puzzles once the cache is exhausted.
        let cc = SynCacheConfig {
            capacity: 1,
            lifetime: SimDuration::from_secs(15),
        };
        let stack = PolicyBuilder::stacked(vec![
            PolicyBuilder::syn_cache(cc),
            PolicyBuilder::puzzles(puzzle_config(VerifyMode::Real)),
        ]);
        let mut l = listener(stack, 0, 8);
        // First SYN: absorbed by the cache (plain SYN-ACK, no challenge).
        let out = l.on_segment(t(0), CLIENT_IP, &syn(1000, 1));
        let cached_synack = out.replies[0].1.clone();
        assert!(cached_synack.challenge().is_none());
        assert_eq!(l.syn_cache_len(), 1);
        // Cache full: the next SYN falls through to the puzzle layer.
        let out = l.on_segment(t(0), CLIENT_IP, &syn(2000, 500));
        let challenged = out.replies[0].1.clone();
        assert!(challenged.challenge().is_some());
        assert_eq!(l.stats().challenges_sent, 1);
        // The challenged client solves and establishes via puzzles.
        let ack = solve_and_ack(&mut l, t(1), 2000, 500, &challenged);
        let out = l.on_segment(t(1), CLIENT_IP, &ack);
        assert!(
            matches!(
                out.events.as_slice(),
                [ListenerEvent::Established {
                    via: EstablishedVia::Puzzle,
                    ..
                }]
            ),
            "events: {:?}",
            out.events
        );
        // And the cached client still promotes through its layer: the
        // ACK completing the original cache SYN-ACK establishes via the
        // SYN cache, emptying it.
        let ack = SegmentBuilder::new(1000, 80)
            .seq(2)
            .ack_num(cached_synack.seq.wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        let out = l.on_segment(t(1), CLIENT_IP, &ack);
        assert!(
            matches!(
                out.events.as_slice(),
                [ListenerEvent::Established {
                    via: EstablishedVia::SynCache,
                    ..
                }]
            ),
            "events: {:?}",
            out.events
        );
        assert_eq!(l.syn_cache_len(), 0);
        assert_eq!(l.stats().established_syncache, 1);
    }

    /// The golden-run digests hash `{:?}` of [`ListenerStats`], so its
    /// rendering is a frozen capture format: exactly the original twenty
    /// counters, never `issue_hashes` or `decode_errors`. If this test
    /// fails, the golden expectations in `tests/golden_runs.rs` would
    /// silently shift.
    #[test]
    fn listener_stats_debug_is_frozen_for_goldens() {
        let s = ListenerStats {
            syns_received: 1,
            synacks_sent: 2,
            challenges_sent: 3,
            cookies_sent: 4,
            syns_dropped: 5,
            half_open_expired: 6,
            established_direct: 7,
            established_syncache: 8,
            syncache_expired: 9,
            established_cookie: 10,
            established_puzzle: 11,
            accept_overflow_drops: 12,
            acks_ignored_queue_full: 13,
            acks_without_solution: 14,
            verify_failures: 15,
            verify_expired: 16,
            verify_replayed: 17,
            verify_hashes: 18,
            rsts_sent: 19,
            data_segments: 20,
            issue_hashes: 999,
            decode_errors: 998,
        };
        let rendered = format!("{s:?}");
        assert_eq!(
            rendered,
            "ListenerStats { syns_received: 1, synacks_sent: 2, \
             challenges_sent: 3, cookies_sent: 4, syns_dropped: 5, \
             half_open_expired: 6, established_direct: 7, \
             established_syncache: 8, syncache_expired: 9, \
             established_cookie: 10, established_puzzle: 11, \
             accept_overflow_drops: 12, acks_ignored_queue_full: 13, \
             acks_without_solution: 14, verify_failures: 15, \
             verify_expired: 16, verify_replayed: 17, verify_hashes: 18, \
             rsts_sent: 19, data_segments: 20 }"
        );
        assert!(!rendered.contains("issue_hashes"));
        assert!(!rendered.contains("decode_errors"));
    }

    /// `merge` must carry the non-digested counters too — the live wire
    /// front-end folds its decode failures into stats snapshots via
    /// `merge`.
    #[test]
    fn listener_stats_merge_carries_decode_errors() {
        let mut a = ListenerStats {
            decode_errors: 3,
            ..Default::default()
        };
        let b = ListenerStats {
            decode_errors: 4,
            issue_hashes: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.decode_errors, 7);
        assert_eq!(a.issue_hashes, 1);
    }

    /// Batch boundaries are unobservable: a mixed burst (stateful
    /// admissions, defended SYNs, a duplicate SYN, an RST, a forged data
    /// ACK) fed as one `on_segments` call produces the same replies,
    /// events, counters (including `issue_hashes`), and queue depths as
    /// one `on_segment` call per segment — the same loop split two
    /// ways — for every built-in policy and the stacked compositions.
    #[test]
    fn batched_syn_issuance_matches_sequential() {
        let policies = vec![
            PolicyBuilder::none(),
            PolicyBuilder::syn_cookies(),
            PolicyBuilder::syn_cache(SynCacheConfig {
                capacity: 3,
                lifetime: SimDuration::from_secs(5),
            }),
            PolicyBuilder::puzzles(PuzzleConfig::default()),
            PolicyBuilder::stateless_puzzles(PuzzleConfig::default(), 8),
            PolicyBuilder::stacked(vec![
                PolicyBuilder::syn_cache(SynCacheConfig {
                    capacity: 2,
                    lifetime: SimDuration::from_secs(5),
                }),
                PolicyBuilder::puzzles(PuzzleConfig::default()),
            ]),
            PolicyBuilder::stacked(vec![
                PolicyBuilder::syn_cookies(),
                PolicyBuilder::stateless_puzzles(PuzzleConfig::default(), 8),
            ]),
        ];
        for policy in policies {
            let mut segs: Vec<(Ipv4Addr, TcpSegment)> = Vec::new();
            for i in 0..12u32 {
                let port = 2000 + i as u16;
                let mut b = SegmentBuilder::new(port, 80)
                    .seq(100 + i)
                    .flags(TcpFlags::SYN)
                    .mss(1460);
                // Alternate the timestamp option so both embedded and
                // echoed challenge timestamps are exercised.
                if i % 2 == 0 {
                    b = b.timestamps(1 + i, 0);
                }
                segs.push((CLIENT_IP, b.build()));
            }
            // A duplicate SYN (known flow mid-run), an RST, and a forged
            // data ACK interleave sequential paths into the run.
            segs.insert(6, (CLIENT_IP, segs[0].1.clone()));
            segs.insert(
                9,
                (
                    CLIENT_IP,
                    SegmentBuilder::new(2001, 80).flags(TcpFlags::RST).build(),
                ),
            );
            segs.push((
                CLIENT_IP,
                SegmentBuilder::new(3000, 80)
                    .seq(1)
                    .ack_num(0x77)
                    .flags(TcpFlags::ACK)
                    .payload(b"x".to_vec())
                    .build(),
            ));

            let label = policy.label().to_string();
            let mut sequential = listener(policy.clone(), 2, 4);
            let mut seq_replies = Vec::new();
            let mut seq_events = Vec::new();
            for (src, seg) in &segs {
                let out = sequential.on_segment(t(5), *src, seg);
                seq_replies.extend(out.replies);
                seq_events.extend(out.events);
            }
            let mut batched = listener(policy, 2, 4);
            let out = batched.on_segments(t(5), &segs);
            assert_eq!(seq_replies, out.replies, "policy {label}");
            assert_eq!(seq_events, out.events, "policy {label}");
            assert_eq!(
                sequential.stats().issue_hashes,
                batched.stats().issue_hashes,
                "policy {label}"
            );
            assert_eq!(sequential.stats(), batched.stats(), "policy {label}");
            assert_eq!(
                sequential.queue_depths(),
                batched.queue_depths(),
                "policy {label}"
            );
            assert!(
                batched.stats().issue_hashes >= 2,
                "policy {label}: issuance went unaccounted"
            );
        }
    }
}
