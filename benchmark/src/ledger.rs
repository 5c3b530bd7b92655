//! The traced pass: where a handshake's time goes, layer by layer.
//!
//! Spans are recorded here, in the benchmark's own code, around each
//! call into a layer (`crypto`, `core`, `tcpstack`, `wire`, `netsim`,
//! `hostsim`, `experiments`); spans inside the program are a later
//! change. Because the engine's interior cannot be wrapped from
//! outside, its time is attributed with twins: the recorded trace is
//! pushed through the frame codec alone and through a bare
//! `ShardedListener` alone, and what the engine spends beyond those two
//! is its own bookkeeping, reported as the unattributed share.
//!
//! Every traced run measures the layer micro-costs and both engine
//! ledgers (their inputs are recorded traces, so counts repeat
//! exactly), then runs its own workload once for the rows that only
//! exist there: front-end and generator costs on the wire workloads,
//! cell times on `sim_matrix`.

use std::hint::black_box;
use std::net::{Ipv4Addr, UdpSocket};
use std::time::Instant;

use hostsim::fleet::{BotFleet, BotFleetParams};
use hostsim::FleetAttack;
use netsim::harness::NodeHarness;
use netsim::{
    Context, IfaceId, LinkSpec, NetBuilder, Node, Packet, SimDuration, SimTime, Simulation,
};
use puzzle_core::{BatchScratch, Solution};
use puzzle_core::{
    ConnectionTuple, Difficulty, IssueScratch, ReplayCache, Solver, Verifier, VerifyRequest,
};
use puzzle_crypto::{auto_backend, HashBackend, MessageArena};
use tcpstack::{
    ListenerConfig, ListenerEvent, ShardPipeline, ShardedListener, TcpFlags, TcpSegment,
};
use wire::{decode_frame, encode_frame, ServerEngine};

use crate::alloc;
use crate::stack::{self, Defense, Rng};
use crate::sys;
use crate::trace::{self, Trace};
use crate::workloads::{self, EngineKind, Outcome, WireSpec};

/// Handshakes in the traced pass's recording (the untraced workload
/// replays 50 000; the per-handshake costs do not depend on the count).
const LEDGER_HANDSHAKES: usize = 8192;
/// Spoofed SYNs in the traced pass's recording.
const LEDGER_FLOOD_SYNS: usize = 65_536;
/// Repeats of each timed pass. Every pass does identical work and
/// interference only adds time, so the best pass is reported.
const PASSES: usize = 9;

/// Aggregating span recorder. Spans nest; a span's self time is its
/// duration minus the part its child spans cover. Spans are kept in
/// memory as per-name totals and written out when the run ends.
#[derive(Default)]
pub struct Tracer {
    names: Vec<&'static str>,
    calls: Vec<u64>,
    total_ns: Vec<u64>,
    child_ns: Vec<u64>,
    /// Open spans: id, start, time covered by finished children.
    open: Vec<(usize, Instant, u64)>,
}

impl Tracer {
    /// Registers (or finds) a span name; hot loops enter by id.
    pub fn id(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i;
        }
        self.names.push(name);
        self.calls.push(0);
        self.total_ns.push(0);
        self.child_ns.push(0);
        self.names.len() - 1
    }

    pub fn enter(&mut self, id: usize) {
        self.open.push((id, Instant::now(), 0));
    }

    pub fn exit(&mut self) {
        let (id, start, children) = self.open.pop().expect("exit without enter");
        let ns = start.elapsed().as_nanos() as u64;
        self.calls[id] += 1;
        self.total_ns[id] += ns;
        self.child_ns[id] += children;
        if let Some(parent) = self.open.last_mut() {
            parent.2 += ns;
        }
    }

    pub fn total(&self, name: &str) -> u64 {
        self.names
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.total_ns[i])
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.names
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.calls[i])
    }

    /// One line per span name: calls, total and self time.
    pub fn write_out(&self, label: &str) {
        eprintln!("spans [{label}]: name calls total_ms self_ms");
        for (i, name) in self.names.iter().enumerate() {
            eprintln!(
                "  {name:<28} {:>9} {:>10.3} {:>10.3}",
                self.calls[i],
                self.total_ns[i] as f64 / 1e6,
                (self.total_ns[i] - self.child_ns[i]) as f64 / 1e6,
            );
        }
    }
}

fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Best over `PASSES` chunks of the mean time of `op`, in ns, with
/// `iters` calls per chunk.
fn ns_per_call(iters: usize, mut op: impl FnMut()) -> f64 {
    let chunks: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    best(&chunks)
}

fn tuples(n: usize, seed: u64) -> Vec<ConnectionTuple> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|i| {
            let (addr, port) = stack::legit_endpoint(seed, i as u64);
            ConnectionTuple::new(
                addr,
                port,
                stack::SERVER_ADDR,
                stack::SERVER_PORT,
                rng.next_u32(),
            )
        })
        .collect()
}

/// `crypto.*` and `core.*`: the hash backend and the verifier alone, on
/// batches of 256 shaped like the listener's.
fn crypto_and_core(seed: u64, out: &mut Outcome) {
    let backend = auto_backend();
    let secret = wire::secret_from_seed(seed);
    let difficulty = Difficulty::new(stack::K, stack::M).expect("static difficulty");
    const N: usize = 256;

    // A sub-solution check hashes pre-image ‖ index ‖ proof: 9 bytes.
    let mut arena = MessageArena::with_capacity(N, N * 9);
    for i in 0..N as u32 {
        arena.push_parts(&[&i.to_be_bytes(), &[1], &i.to_le_bytes()]);
    }
    let mut digests = Vec::with_capacity(N);
    let batch = ns_per_call(400, || {
        digests.clear();
        backend.sha256_arena(black_box(&arena), &mut digests);
    });
    out.metric("crypto.sha256_ns_per_hash", batch / N as f64);
    out.metric(
        "crypto.hmac_ns_per_tag",
        ns_per_call(20_000, || {
            black_box(backend.hmac_sha256_parts(secret.as_bytes(), &[black_box(&[7u8; 16])]));
        }),
    );

    let tuples = tuples(N, seed);
    let plain = Verifier::with_backend(secret.clone(), backend).with_expiry(8);
    let windowed = plain.clone().with_window(stack::WINDOW_LEN);
    let mut scratch = IssueScratch::new();
    let issue = ns_per_call(400, || {
        plain
            .issue_batch(black_box(&tuples), 100, difficulty, 32, &mut scratch)
            .expect("valid (l, difficulty)");
    });
    out.metric("core.issue_ns_per_challenge", issue / N as f64);
    out.metric("core.hashes_per_issue", scratch.len() as f64 / N as f64);
    let issue_windowed = ns_per_call(400, || {
        windowed
            .issue_batch_windowed(black_box(&tuples), 100, difficulty, 32, &mut scratch)
            .expect("valid (l, difficulty)");
    });
    out.metric(
        "core.issue_windowed_ns_per_challenge",
        issue_windowed / N as f64,
    );

    let solved: Vec<VerifyRequest> = tuples
        .iter()
        .map(|t| {
            let c = plain
                .issue(t, 100, difficulty, 32)
                .expect("valid challenge");
            (*t, c.params(), Solver::new().solve(&c).solution)
        })
        .collect();
    // Forged proofs of the right shape: the share of traffic that leaves
    // the fast path at the first sub-solution check.
    let forged: Vec<VerifyRequest> = solved
        .iter()
        .map(|(t, p, s)| {
            let junk = s.proofs().iter().map(|p| vec![0xA5; p.len()]).collect();
            (*t, *p, Solution::new(junk))
        })
        .collect();
    let mut verdicts = BatchScratch::new();
    let mut hashes = 0;
    let verify = ns_per_call(200, || {
        hashes = plain.verify_batch_with(black_box(&solved), 101, &mut verdicts);
    });
    out.check(verdicts.accepted() == N, || {
        format!(
            "verifier accepted {} of {N} real solutions",
            verdicts.accepted()
        )
    });
    out.metric("core.verify_ns_per_proof", verify / N as f64);
    out.metric("core.hashes_per_verify", hashes as f64 / N as f64);
    let reject = ns_per_call(200, || {
        plain.verify_batch_with(black_box(&forged), 101, &mut verdicts);
    });
    out.check(verdicts.accepted() == 0, || {
        format!("verifier accepted {} forged solutions", verdicts.accepted())
    });
    out.metric("core.verify_reject_ns_per_proof", reject / N as f64);

    let fresh = self::tuples(64 * N, seed ^ 1);
    let inserts: Vec<f64> = (0..PASSES)
        .map(|_| {
            let cache = ReplayCache::new(ReplayCache::DEFAULT_SHARDS);
            let start = Instant::now();
            for t in &fresh {
                black_box(cache.insert(t, 100, 101, 8));
            }
            start.elapsed().as_nanos() as f64 / fresh.len() as f64
        })
        .collect();
    out.metric("core.replay_insert_ns", best(&inserts));
}

/// What kind of segments a twin-listener batch holds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Syn,
    Ack,
    Data,
    /// Each flow's request right behind its ACK, as a client sends them.
    Answers,
}

struct SegBatch {
    kind: Kind,
    now: SimTime,
    segs: Vec<(Ipv4Addr, TcpSegment)>,
}

fn kind_of(seg: &TcpSegment) -> Kind {
    if seg.flags.contains(TcpFlags::SYN) {
        Kind::Syn
    } else if seg.solution().is_some() {
        Kind::Ack
    } else {
        Kind::Data
    }
}

/// The trace's ingress, decoded, in the engine's own batches.
fn engine_order(trace: &Trace) -> Vec<SegBatch> {
    trace
        .batches
        .iter()
        .map(|b| {
            let segs: Vec<_> = b
                .frames
                .clone()
                .map(|i| decode_frame(trace.ingress.get(i)).expect("recorded frames decode"))
                .collect();
            let kind = match kind_of(&segs[0].1) {
                Kind::Syn => Kind::Syn,
                _ => Kind::Answers,
            };
            SegBatch {
                kind,
                now: b.now,
                segs,
            }
        })
        .collect()
}

/// The same segments regrouped one kind per batch (all of a wave's
/// ACKs, then all its requests): the shape the listener's batched
/// verification was built for, and the only way to time ACKs and data
/// apart.
fn kinds_apart(batches: &[SegBatch]) -> Vec<SegBatch> {
    let mut out = Vec::new();
    let mut wave: Vec<&SegBatch> = Vec::new();
    let flush = |wave: &mut Vec<&SegBatch>, out: &mut Vec<SegBatch>| {
        let Some(last) = wave.last() else { return };
        for kind in [Kind::Ack, Kind::Data] {
            let segs: Vec<_> = wave
                .iter()
                .flat_map(|b| &b.segs)
                .filter(|(_, s)| kind_of(s) == kind)
                .cloned()
                .collect();
            out.push(SegBatch {
                kind,
                now: last.now,
                segs,
            });
        }
        wave.clear();
    };
    for b in batches {
        if b.kind == Kind::Syn {
            flush(&mut wave, &mut out);
            out.push(SegBatch {
                kind: Kind::Syn,
                now: b.now,
                segs: b.segs.clone(),
            });
        } else {
            wave.push(b);
        }
    }
    flush(&mut wave, &mut out);
    out
}

/// Drives a bare `ShardedListener` the way `ServerEngine::flush` does
/// (step the batch, accept, answer each request with the response and
/// FIN, poll every 100 ms), with a span around each call.
fn twin_listener(
    defense: Defense,
    seed: u64,
    shards: usize,
    batches: &[SegBatch],
    t: &mut Tracer,
) -> usize {
    let mut cfg = ListenerConfig::new(stack::SERVER_ADDR, stack::SERVER_PORT);
    cfg.backlog = 0;
    cfg.accept_backlog = 1024;
    let pipeline = if shards > 1 {
        ShardPipeline::Persistent
    } else {
        ShardPipeline::Inline
    };
    let mut listener = ShardedListener::with_policy_pipeline(
        cfg,
        wire::secret_from_seed(seed),
        auto_backend(),
        &stack::policy(defense),
        shards,
        pipeline,
    );
    // The root span comes first: `best_traced` ranks passes by it.
    let root = t.id("listener");
    // In `Kind` order.
    let on_segments = [
        t.id("listener.on_segments.syn"),
        t.id("listener.on_segments.ack"),
        t.id("listener.on_segments.data"),
        t.id("listener.on_segments.answers"),
    ];
    let (accept_send, poll) = (t.id("listener.accept_send"), t.id("listener.poll"));
    let mut next_poll = SimTime::ZERO;
    let mut replies = 0;
    t.enter(root);
    for batch in batches {
        t.enter(on_segments[batch.kind as usize]);
        let stepped = listener.on_segments(batch.now, &batch.segs);
        t.exit();
        replies += stepped.replies.len();
        t.enter(accept_send);
        while listener.accept().is_some() {}
        for event in &stepped.events {
            if let ListenerEvent::Data { flow, .. } = event {
                replies += listener.send_data(*flow, stack::RESPONSE_BYTES, true).len();
            }
        }
        t.exit();
        if batch.now >= next_poll {
            t.enter(poll);
            replies += listener.poll(batch.now).len();
            t.exit();
            next_poll = batch.now + SimDuration::from_millis(100);
        }
    }
    t.exit();
    black_box(listener.stats());
    replies
}

/// Runs a traced closure `PASSES` times and keeps the spans of the pass
/// whose root span (the first one registered) was shortest.
fn best_traced(mut pass: impl FnMut(&mut Tracer)) -> Tracer {
    (0..PASSES)
        .map(|_| {
            let mut t = Tracer::default();
            pass(&mut t);
            t
        })
        .min_by_key(|t| t.total_ns.first().copied().unwrap_or(0))
        .expect("PASSES > 0")
}

/// Frame and segment codec costs over the recorded frames.
fn codec(trace: &Trace, t: &mut Tracer) {
    let replies = trace.replies.as_ref().expect("ledger traces keep replies");
    let decode = t.id("frame.decode");
    for frame in trace.ingress.iter() {
        t.enter(decode);
        black_box(decode_frame(black_box(frame)).expect("recorded frames decode"));
        t.exit();
    }
    let segments: Vec<_> = replies
        .iter()
        .map(|f| decode_frame(f).expect("recorded replies decode"))
        .collect();
    let encode = t.id("frame.encode");
    let mut scratch = Vec::with_capacity(wire::MAX_FRAME_LEN);
    for (endpoint, seg) in &segments {
        t.enter(encode);
        scratch.clear();
        encode_frame(*endpoint, black_box(seg), &mut scratch);
        t.exit();
    }
    black_box(&scratch);
}

/// `tcpstack.segment_{decode,encode}_ns.*`: one representative segment
/// per shape, taken from the recording. `data` is the request when
/// decoding and the 1000-byte response when encoding: what the server
/// does to each.
fn segment_shapes(trace: &Trace, out: &mut Outcome) {
    let replies = trace.replies.as_ref().expect("ledger traces keep replies");
    let bodies = |log: &trace::FrameLog| -> Vec<Vec<u8>> {
        log.iter()
            .map(|f| f[wire::FRAME_HEADER_LEN..].to_vec())
            .collect()
    };
    let (ingress, egress) = (bodies(&trace.ingress), bodies(replies));
    let find = |pool: &[Vec<u8>], pred: &dyn Fn(&TcpSegment) -> bool| {
        pool.iter()
            .find(|b| pred(&TcpSegment::decode(b).expect("recorded segment")))
            .expect("shape present in the recording")
            .clone()
    };
    let syn = find(&ingress, &|s| kind_of(s) == Kind::Syn);
    let solution = find(&ingress, &|s| kind_of(s) == Kind::Ack);
    let request = find(&ingress, &|s| kind_of(s) == Kind::Data);
    let challenge = find(&egress, &|s| s.challenge().is_some());
    let response = find(&egress, &|s| s.payload.len() == stack::RESPONSE_BYTES);
    for (decode_name, encode_name, decode_bytes, encode_bytes) in [
        (
            "tcpstack.segment_decode_ns.syn",
            "tcpstack.segment_encode_ns.syn",
            &syn,
            &syn,
        ),
        (
            "tcpstack.segment_decode_ns.challenge",
            "tcpstack.segment_encode_ns.challenge",
            &challenge,
            &challenge,
        ),
        (
            "tcpstack.segment_decode_ns.solution",
            "tcpstack.segment_encode_ns.solution",
            &solution,
            &solution,
        ),
        (
            "tcpstack.segment_decode_ns.data",
            "tcpstack.segment_encode_ns.data",
            &request,
            &response,
        ),
    ] {
        out.metric(
            decode_name,
            ns_per_call(20_000, || {
                black_box(TcpSegment::decode(black_box(decode_bytes)).expect("decodes"));
            }),
        );
        let seg = TcpSegment::decode(encode_bytes).expect("decodes");
        let mut scratch = Vec::with_capacity(2048);
        out.metric(
            encode_name,
            ns_per_call(20_000, || {
                scratch.clear();
                black_box(&seg).encode_into(&mut scratch);
            }),
        );
    }
}

/// What one engine ledger (handshake or flood) measured, per op.
struct EngineLedger {
    engine_ns: f64,
    listener_ns: f64,
    codec_ns: f64,
    plain_replay_ns: f64,
    /// Wall seconds of the first, compared replay.
    compared_replay_s: f64,
}

/// Replays `trace` into a fresh engine with a span around every
/// `ingest_datagram` and every `flush`.
fn traced_replay(trace: &Trace, engine: &mut ServerEngine, t: &mut Tracer) -> usize {
    let peer = stack::engine_peer();
    let (root, ingest, flush) = (
        t.id("engine"),
        t.id("engine.ingest_datagram"),
        t.id("engine.flush"),
    );
    let mut replies = 0;
    t.enter(root);
    for batch in &trace.batches {
        for i in batch.frames.clone() {
            t.enter(ingest);
            engine.ingest_datagram(peer, trace.ingress.get(i));
            t.exit();
        }
        t.enter(flush);
        engine.flush(batch.now, &mut |_, _| replies += 1);
        t.exit();
    }
    t.exit();
    replies
}

/// The engine ledger of one recorded trace: engine total against its
/// codec and listener twins, allocations, and bytes still held.
fn engine_ledger(kind: EngineKind, seed: u64, out: &mut Outcome) -> EngineLedger {
    let (ops, defense, tag) = match kind {
        EngineKind::Handshake => (LEDGER_HANDSHAKES, Defense::Puzzles, "handshake"),
        EngineKind::SynFlood => (LEDGER_FLOOD_SYNS, Defense::Stateless, "flood_syn"),
    };
    let cfg = kind.config(seed);
    let recording = Instant::now();
    let trace = kind.record(&cfg, ops, seed, true);
    let record_s = recording.elapsed().as_secs_f64();
    let per_op = |ns: u64| ns as f64 / ops as f64;

    // Engine, spans off: the time the spans below are compared with,
    // plus the counts, which repeat exactly.
    let mut plain: Vec<f64> = Vec::new();
    let (mut allocs, mut retained, mut compared_replay_s) = (0, 0, 0.0);
    for pass in 0..PASSES {
        let mut engine = ServerEngine::new(&cfg);
        let (a0, b0) = (alloc::allocations(), alloc::live_bytes());
        let done = trace::replay(&trace, &mut engine, pass == 0, &mut Vec::new());
        (allocs, retained) = (alloc::allocations() - a0, alloc::live_bytes() - b0);
        plain.push(done.busy_ns as f64);
        if pass == 0 {
            compared_replay_s = done.busy_ns as f64 / 1e9;
        }
        out.check(done.mismatches == 0, || {
            format!(
                "{tag} replay differs from the recording in {} batches",
                done.mismatches
            )
        });
        workloads::check_engine_stats(kind, ops as u64, &engine.stats(), out);
        out.attempted += ops as u64;
    }
    let plain_ns = best(&plain) / ops as f64;

    let engine_t = best_traced(|t| {
        let mut engine = ServerEngine::new(&cfg);
        let replies = traced_replay(&trace, &mut engine, t);
        assert_eq!(replies, trace.reply_sums.len(), "traced replay reply count");
    });
    engine_t.write_out(&format!("engine {tag}"));
    let engine_ns = per_op(engine_t.total("engine"));

    let batches = engine_order(&trace);
    let listener_allocs = {
        let a0 = alloc::allocations();
        twin_listener(defense, seed, 1, &batches, &mut Tracer::default());
        alloc::allocations() - a0
    };
    let listener_t = best_traced(|t| {
        let replies = twin_listener(defense, seed, 1, &batches, t);
        assert_eq!(replies, trace.reply_sums.len(), "twin listener reply count");
    });
    listener_t.write_out(&format!("twin listener {tag}"));
    let listener_ns = per_op(listener_t.total("listener"));

    let codec_t = best_traced(|t| {
        let root = t.id("codec");
        t.enter(root);
        codec(&trace, t);
        t.exit();
    });
    let codec_ns = per_op(codec_t.total("frame.decode") + codec_t.total("frame.encode"));

    let names = match kind {
        EngineKind::Handshake => [
            "wire.engine_ns_per_handshake",
            "wire.engine_allocs_per_handshake",
            "wire.engine_retained_bytes_per_handshake",
            "tcpstack.listener_ns_per_handshake",
            "tcpstack.allocs_per_handshake",
        ],
        EngineKind::SynFlood => [
            "wire.engine_ns_per_flood_syn",
            "wire.engine_allocs_per_flood_syn",
            "wire.engine_retained_bytes_per_flood_syn",
            "tcpstack.listener_ns_per_flood_syn",
            "tcpstack.allocs_per_flood_syn",
        ],
    };
    let values = [
        engine_ns,
        allocs as f64 / ops as f64,
        retained as f64 / ops as f64,
        listener_ns,
        listener_allocs as f64 / ops as f64,
    ];
    for (name, value) in names.into_iter().zip(values) {
        out.metric(name, value);
    }

    // The rows measured on the handshake recording only.
    if kind == EngineKind::Handshake {
        out.metric(
            "wire.frame_decode_ns",
            codec_t.total("frame.decode") as f64 / codec_t.calls("frame.decode") as f64,
        );
        out.metric(
            "wire.frame_encode_ns",
            codec_t.total("frame.encode") as f64 / codec_t.calls("frame.encode") as f64,
        );
        out.metric(
            "tcpstack.poll_ns_per_call",
            listener_t.total("listener.poll") as f64 / listener_t.calls("listener.poll") as f64,
        );
        out.metric(
            "tcpstack.listener_syn_ns_per_seg",
            listener_t.total("listener.on_segments.syn") as f64 / ops as f64,
        );
        out.metric("setup.trace_record_s", record_s);

        // Kinds apart: ACKs and requests in batches of their own.
        let apart = kinds_apart(&batches);
        let apart_t = best_traced(|t| {
            twin_listener(defense, seed, 1, &apart, t);
        });
        apart_t.write_out("twin listener, kinds apart");
        out.metric(
            "tcpstack.listener_ack_ns_per_seg",
            per_op(apart_t.total("listener.on_segments.ack")),
        );
        out.metric(
            "tcpstack.listener_data_ns_per_seg",
            per_op(apart_t.total("listener.on_segments.data")),
        );
        out.metric(
            "tcpstack.accept_send_ns_per_conn",
            per_op(apart_t.total("listener.accept_send")),
        );

        // Two shards on persistent workers: what the hand-off costs.
        let segs: usize = batches.iter().map(|b| b.segs.len()).sum();
        let shard2_t = best_traced(|t| {
            twin_listener(defense, seed, 2, &batches, t);
        });
        let shard2 = shard2_t.total("listener") as f64 / segs as f64;
        out.metric("tcpstack.shard2_ns_per_seg", shard2);
        out.metric(
            "tcpstack.shard2_over_shard1",
            shard2 / (listener_t.total("listener") as f64 / segs as f64),
        );
        segment_shapes(&trace, out);
    }
    EngineLedger {
        engine_ns,
        listener_ns,
        codec_ns,
        plain_replay_ns: plain_ns,
        compared_replay_s,
    }
}

/// Raw loopback UDP, no program code: the kernel floor under every
/// wire number. One thread owns both sockets, so there are no wake-ups.
fn udp_floor(out: &mut Outcome) {
    let a = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback");
    let b = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback");
    a.connect(b.local_addr().expect("addr")).expect("connect");
    b.connect(a.local_addr().expect("addr")).expect("connect");
    let syn = [0u8; 46];
    let mut buf = [0u8; 64];
    let one_way = ns_per_call(5_000, || {
        a.send(&syn).expect("loopback send");
        b.recv(&mut buf).expect("loopback recv");
    });
    let round_trip = ns_per_call(5_000, || {
        a.send(&syn).expect("loopback send");
        b.recv(&mut buf).expect("loopback recv");
        b.send(&syn).expect("loopback send");
        a.recv(&mut buf).expect("loopback recv");
    });
    out.metric("udp.loopback_ns_per_datagram", one_way);
    out.metric("udp.loopback_rtt_us", round_trip / 1e3);
}

/// Bounces one packet between two nodes: every event is engine cost.
struct Echo;

impl Node<TcpSegment> for Echo {
    fn on_packet(
        &mut self,
        ctx: &mut Context<'_, TcpSegment>,
        iface: IfaceId,
        packet: Packet<TcpSegment>,
    ) {
        ctx.send(iface, Packet::new(packet.dst, packet.src, packet.payload));
    }
}

/// `netsim.event_ns` and `hostsim.botfleet_ns_per_packet`.
fn sim_layers(seed: u64, out: &mut Outcome) {
    let events: Vec<f64> = (0..PASSES)
        .map(|_| {
            let mut net = NetBuilder::new(seed);
            let (a, b) = (net.add_node(Echo), net.add_node(Echo));
            let (iface, _) = net.connect(a, b, LinkSpec::lan());
            let mut sim: Simulation<TcpSegment, Echo> = net.build();
            let ping = tcpstack::SegmentBuilder::new(1, 2).build();
            sim.inject(
                a,
                iface,
                Packet::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), ping),
            );
            let start = Instant::now();
            let processed = sim.run_until(SimTime::from_secs(20));
            start.elapsed().as_nanos() as f64 / processed.max(1) as f64
        })
        .collect();
    out.metric("netsim.event_ns", best(&events));

    let packets: Vec<f64> = (0..PASSES)
        .map(|_| {
            let mut fleet = BotFleet::new(BotFleetParams {
                addr_base: Ipv4Addr::new(198, 18, 0, 0),
                target_addr: stack::SERVER_ADDR,
                target_port: stack::SERVER_PORT,
                attack: FleetAttack::SynFlood {
                    rate: 200_000.0,
                    spoof: true,
                },
                flows: 10_000,
                hash_rate: 400_000.0,
                start: SimTime::ZERO,
                stop: SimTime::from_secs(2),
            });
            let mut harness: NodeHarness<TcpSegment> = NodeHarness::new(seed);
            let start = Instant::now();
            harness.start(&mut fleet);
            harness.advance_to(&mut fleet, SimTime::from_secs(1));
            let sent = harness.drain_outbox().count();
            start.elapsed().as_nanos() as f64 / sent.max(1) as f64
        })
        .collect();
    out.metric("hostsim.botfleet_ns_per_packet", best(&packets));
}

/// The rows only a wire workload has: front-end cost (server CPU minus
/// what the engine ledger says the engine itself needs for the same
/// work), datagram counts, drops, hand-off wait, generator health.
fn wire_rows(
    spec: WireSpec,
    seed: u64,
    seconds: f64,
    engine_ns: [f64; 2],
    rtt_us: f64,
    out: &mut Outcome,
) {
    let run = workloads::run_wire_judged(spec, seed, seconds, 1, out);
    let w = &run.window;
    let completed = w.completed.max(1) as f64;
    let engine_ns = w.completed as f64 * engine_ns[0] + w.spoofed_sent as f64 * engine_ns[1];
    let frontend_ns = w.server_cpu_ns as f64 - engine_ns;
    out.metric(
        "wire.server_cpu_us_per_op",
        w.server_cpu_ns as f64 / 1e3 / spec.ops(w).max(1) as f64,
    );
    out.metric(
        "wire.server_wakeups_per_handshake",
        w.server_wakeups as f64 / completed,
    );
    out.metric(
        "wire.frontend_us_per_handshake",
        frontend_ns / 1e3 / completed,
    );
    out.metric(
        "wire.frontend_us_per_datagram",
        frontend_ns / 1e3 / w.datagrams_tx.max(1) as f64,
    );
    out.metric(
        "wire.datagrams_per_handshake",
        (run.stats.datagrams_rx + run.stats.datagrams_tx) as f64
            / run.legit_completed.max(1) as f64,
    );
    out.metric("wire.server_rx_drops", run.server_rx_drops as f64);
    let p50 = if w.connects.is_empty() {
        0.0
    } else {
        w.connect_quantile_ms(0.5)
    };
    out.metric("wire.batch_wait_ms", p50 - 2.0 * rtt_us / 1e3);
    out.metric("run.rss_growth_mb", run.rss_growth_mb);
    out.metric(
        "loadgen.cpu_share",
        w.loadgen_cpu_ns as f64 / w.wall.as_nanos() as f64,
    );
    out.metric("loadgen.late_ms_p99", w.late_p99_ms());
    out.metric("loadgen.rx_drops", run.loadgen_rx_drops as f64);
    out.metric(
        "loadgen.us_per_handshake",
        w.loadgen_cpu_ns as f64 / 1e3 / completed,
    );
    out.metric("setup.warmup_s", run.setup_s);
}

/// `sim_matrix`'s own rows: one timed run of its three cells.
fn sim_rows(seed: u64, out: &mut Outcome) {
    let warmup = Instant::now();
    workloads::sim_warmup(seed);
    out.metric("setup.warmup_s", warmup.elapsed().as_secs_f64());
    let cells = workloads::run_sim_cells(seed);
    out.attempted = cells.len() as u64;
    out.failed = cells
        .iter()
        .filter(|c| !workloads::cell_ok(&c.cell))
        .count() as u64;
    for (run, name) in cells.iter().zip(SIM_ROWS) {
        out.notes.push(format!("{name}: {}", run.cell));
        out.metric(name, run.wall_s);
    }
    out.metric(
        "experiments.goodput_retained",
        cells.iter().map(|c| c.cell.retained()).sum::<f64>() / cells.len() as f64,
    );
}

/// Cell rows in `run_sim_cells` order, then the retained-goodput row.
const SIM_ROWS: [&str; 4] = [
    "experiments.cell_s.nash_syn_10k",
    "experiments.cell_s.nash_conn_10k",
    "experiments.cell_s.stateless_conn_100k",
    "experiments.goodput_retained",
];

const WIRE_ROWS: [&str; 11] = [
    "wire.server_cpu_us_per_op",
    "wire.server_wakeups_per_handshake",
    "wire.frontend_us_per_handshake",
    "wire.frontend_us_per_datagram",
    "wire.datagrams_per_handshake",
    "wire.server_rx_drops",
    "wire.batch_wait_ms",
    "loadgen.cpu_share",
    "loadgen.late_ms_p99",
    "loadgen.rx_drops",
    "loadgen.us_per_handshake",
];

/// The traced run of workload `name`.
pub fn run(name: &str, seed: u64, seconds: f64) -> Option<Outcome> {
    let mut out = Outcome::default();
    let wire_spec = match name {
        "wire_busy" => Some(workloads::WIRE_BUSY),
        "wire_calm" => Some(workloads::WIRE_CALM),
        "wire_attack" => Some(workloads::WIRE_ATTACK),
        "engine_handshake" | "engine_syn_flood" | "sim_matrix" => None,
        _ => return None,
    };

    crypto_and_core(seed, &mut out);
    udp_floor(&mut out);
    sim_layers(seed, &mut out);
    let construct_cfg = EngineKind::Handshake.config(seed);
    out.metric(
        "setup.engine_construct_ms",
        ns_per_call(20, || {
            black_box(ServerEngine::new(&construct_cfg));
        }) / 1e6,
    );

    let rss_before = sys::rss_mb();
    let handshake = engine_ledger(EngineKind::Handshake, seed, &mut out);
    let flood = engine_ledger(EngineKind::SynFlood, seed, &mut out);
    let engine_rss_growth = sys::rss_mb() - rss_before;
    let value = |out: &Outcome, name: &str| {
        out.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} measured earlier"))
            .1
    };

    // Reconciliation. The listener twin contains the core calls, which
    // contain the hashes; the engine contains the codec and listener
    // twins. What is left at each level is that level's own.
    let k = f64::from(stack::K);
    let hash = value(&out, "crypto.sha256_ns_per_hash");
    let core_handshake = value(&out, "core.issue_ns_per_challenge")
        + value(&out, "core.verify_ns_per_proof")
        + value(&out, "core.replay_insert_ns");
    let core_flood = value(&out, "core.issue_windowed_ns_per_challenge");
    out.metric(
        "tcpstack.listener_self_ns_per_handshake",
        handshake.listener_ns - core_handshake,
    );
    out.metric(
        "tcpstack.listener_self_ns_per_flood_syn",
        flood.listener_ns - core_flood,
    );
    for (ledger, self_name, share_name, core_ns, hashes) in [
        (
            &handshake,
            "wire.engine_self_ns_per_handshake",
            "ledger.unattributed_share_handshake",
            core_handshake,
            2.0 + k,
        ),
        (
            &flood,
            "wire.engine_self_ns_per_flood_syn",
            "ledger.unattributed_share_flood",
            core_flood,
            1.0,
        ),
    ] {
        let engine_self = ledger.engine_ns - ledger.codec_ns - ledger.listener_ns;
        out.metric(self_name, engine_self);
        out.metric(share_name, engine_self / ledger.engine_ns);
        out.notes.push(format!(
            "{share_name}: engine {:.0} ns/op = crypto {:.0} ({hashes} hashes) + core self {:.0} + tcpstack self {:.0} + frame codec {:.0} + engine's own {:.0} (unattributed {:.1}%)",
            ledger.engine_ns,
            hashes * hash,
            core_ns - hashes * hash,
            ledger.listener_ns - core_ns,
            ledger.codec_ns,
            engine_self,
            100.0 * engine_self / ledger.engine_ns,
        ));
    }
    out.metric(
        "ledger.trace_overhead_ratio",
        handshake.engine_ns / handshake.plain_replay_ns,
    );

    // The rows that exist only on the workload being run; 0 elsewhere.
    let zero = |out: &mut Outcome, names: &[&'static str]| {
        for name in names {
            out.metric(name, 0.0);
        }
    };
    match wire_spec {
        Some(spec) => {
            let engine_ns = [
                value(&out, "wire.engine_ns_per_handshake"),
                value(&out, "wire.engine_ns_per_flood_syn"),
            ];
            let rtt_us = value(&out, "udp.loopback_rtt_us");
            wire_rows(spec, seed, seconds, engine_ns, rtt_us, &mut out);
            zero(&mut out, &SIM_ROWS);
        }
        None if name == "sim_matrix" => {
            sim_rows(seed, &mut out);
            zero(&mut out, &WIRE_ROWS);
            out.metric("run.rss_growth_mb", sys::rss_mb() - rss_before);
        }
        None => {
            zero(&mut out, &WIRE_ROWS);
            zero(&mut out, &SIM_ROWS);
            out.metric("run.rss_growth_mb", engine_rss_growth);
            out.metric("setup.warmup_s", handshake.compared_replay_s);
        }
    }
    out.metric(
        "run.fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Some(out)
}
