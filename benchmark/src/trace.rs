//! Recorded datagram traces for the two socket-free workloads.
//!
//! A trace is recorded once against a live `ServerEngine` on a scripted
//! clock (real clients, real solves), then replayed into fresh engines
//! built with the same secret and fed the same clock script, so every
//! challenge, proof and reply repeats byte for byte and the replay
//! times only the server's side.

use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

use netsim::{SimDuration, SimTime};
use wire::{decode_frame, encode_frame, ServerConfig, ServerEngine};

use crate::stack::{self, Client, Rng, Step};

/// Datagrams per ingest batch: the live server's reader hand-off size.
pub const BATCH: usize = 256;

/// Frames stored back to back in one allocation.
#[derive(Default)]
pub struct FrameLog {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl FrameLog {
    pub fn push(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// One ingest batch: which ingress frames, at what scripted time, and
/// which replies its flush emitted.
pub struct Batch {
    pub frames: Range<usize>,
    pub now: SimTime,
    pub replies: Range<usize>,
}

/// A recorded run: the ingress frames in arrival order, their batching
/// and clock script, and a fingerprint of every reply in order.
pub struct Trace {
    pub ingress: FrameLog,
    pub batches: Vec<Batch>,
    /// `(length, FNV-1a)` of each reply frame, sorted within each batch:
    /// the engine serves ready requests in hash-map order, so the order
    /// of replies inside one flush differs from engine to engine and
    /// only the set is comparable.
    pub reply_sums: Vec<(u32, u64)>,
    /// The reply frames themselves, kept only for the traced pass
    /// (which times the frame codec over them).
    pub replies: Option<FrameLog>,
    /// Handshakes (or spoofed SYNs) the trace carries.
    pub ops: usize,
}

impl Trace {
    /// One number for everything the engine replied: equal for two
    /// recordings of the same seed.
    pub fn digest(&self) -> u64 {
        self.reply_sums
            .iter()
            .fold(0xCBF2_9CE4_8422_2325, |h, (len, sum)| {
                (h ^ sum ^ u64::from(*len)).wrapping_mul(0x0000_0100_0000_01B3)
            })
    }
}

fn fingerprint(frame: &[u8]) -> (u32, u64) {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in frame {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (frame.len() as u32, h)
}

struct Recorder {
    engine: ServerEngine,
    trace: Trace,
    now: SimTime,
    /// Replies of the most recent batch.
    out: Vec<Vec<u8>>,
}

impl Recorder {
    fn new(cfg: &ServerConfig, keep_replies: bool) -> Self {
        Recorder {
            engine: ServerEngine::new(cfg),
            trace: Trace {
                ingress: FrameLog::default(),
                batches: Vec::new(),
                reply_sums: Vec::new(),
                replies: keep_replies.then(FrameLog::default),
                ops: 0,
            },
            now: SimTime::from_secs(1),
            out: Vec::new(),
        }
    }

    fn batch(&mut self, frames: &[Vec<u8>]) {
        self.now += SimDuration::from_millis(1);
        let first = self.trace.ingress.len();
        for frame in frames {
            self.trace.ingress.push(frame);
            self.engine.ingest_datagram(stack::engine_peer(), frame);
        }
        let frames = first..self.trace.ingress.len();
        let first_reply = self.trace.reply_sums.len();
        self.out.clear();
        let (out, trace) = (&mut self.out, &mut self.trace);
        self.engine.flush(self.now, &mut |_, bytes| {
            trace.reply_sums.push(fingerprint(bytes));
            if let Some(log) = &mut trace.replies {
                log.push(bytes);
            }
            out.push(bytes.to_vec());
        });
        self.trace.reply_sums[first_reply..].sort_unstable();
        self.trace.batches.push(Batch {
            frames,
            now: self.now,
            replies: first_reply..self.trace.reply_sums.len(),
        });
    }
}

/// Records `n` full puzzle handshakes (SYN → challenge → solved ACK +
/// request → response + FIN), `BATCH` datagrams per batch, in the
/// order a client emits them: each flow's request directly follows its
/// ACK.
///
/// # Panics
///
/// Panics if any handshake fails to complete with exactly
/// `RESPONSE_BYTES`: the workload is chosen so that none does.
pub fn record_handshakes(cfg: &ServerConfig, n: usize, seed: u64, keep_replies: bool) -> Trace {
    let mut rec = Recorder::new(cfg, keep_replies);
    let mut rng = Rng(seed);
    let mut frame = Vec::new();
    let mut encode = |endpoint, seg: &tcpstack::TcpSegment| {
        frame.clear();
        encode_frame(endpoint, seg, &mut frame);
        frame.clone()
    };
    let mut completed = 0usize;
    for wave in (0..n).step_by(BATCH) {
        let size = BATCH.min(n - wave);
        let mut clients = Vec::with_capacity(size);
        let mut index = HashMap::with_capacity(size);
        let mut syns = Vec::with_capacity(size);
        for i in 0..size {
            let endpoint = stack::legit_endpoint(seed, (wave + i) as u64);
            let (client, syn) = Client::connect(endpoint, rng.next_u32(), rec.now);
            syns.push(encode(endpoint.0, &syn));
            index.insert(endpoint, i);
            clients.push(client);
        }
        rec.batch(&syns);
        let mut answers = Vec::with_capacity(2 * size);
        for reply in &rec.out {
            let (addr, seg) = decode_frame(reply).expect("server frames decode");
            let client = &mut clients[index[&(addr, seg.dst_port)]];
            match client.on_segment(rec.now, &seg) {
                Step::Answer(ack, request) => {
                    answers.push(encode(addr, &ack));
                    answers.push(encode(addr, &request));
                }
                _ => panic!("backlog 0 must challenge every SYN"),
            }
        }
        for chunk in answers.chunks(BATCH) {
            rec.batch(chunk);
            for reply in &rec.out {
                let (addr, seg) = decode_frame(reply).expect("server frames decode");
                let client = &mut clients[index[&(addr, seg.dst_port)]];
                if let Step::Done(bytes) = client.on_segment(rec.now, &seg) {
                    assert_eq!(bytes, stack::RESPONSE_BYTES, "response size");
                    completed += 1;
                }
            }
        }
    }
    assert_eq!(completed, n, "every recorded handshake completes");
    rec.trace.ops = n;
    rec.trace
}

/// Records a flood of `n` spoofed SYNs with unique seeded endpoints,
/// shaped like a real client's SYN. The attacker never answers, so the
/// "recording" is just the engine's challenges to compare replays with.
pub fn record_syn_flood(cfg: &ServerConfig, n: usize, seed: u64, keep_replies: bool) -> Trace {
    let mut rec = Recorder::new(cfg, keep_replies);
    let mut rng = Rng(seed ^ 0xF100D);
    let mut frames = Vec::with_capacity(BATCH);
    for first in (0..n).step_by(BATCH) {
        frames.clear();
        for i in first..n.min(first + BATCH) {
            let endpoint = stack::spoofed_endpoint(seed, i as u64);
            let (_, syn) = Client::connect(endpoint, rng.next_u32(), rec.now);
            let mut frame = Vec::with_capacity(64);
            encode_frame(endpoint.0, &syn, &mut frame);
            frames.push(frame);
        }
        rec.batch(&frames);
        assert_eq!(rec.out.len(), frames.len(), "every SYN is challenged");
    }
    rec.trace.ops = n;
    rec.trace
}

/// What one replay produced.
pub struct Replayed {
    /// Sum of the per-batch times: `ingest_datagram` + `flush` only.
    pub busy_ns: u64,
    /// Batches whose replies differed from the recording: in count
    /// always, in content when `compare` was asked for.
    pub mismatches: usize,
    pub replies: usize,
}

/// Replays `trace` into `engine`, timing each batch's
/// `ingest_datagram` × n + `flush` into `batch_ns`. With `compare`,
/// every reply is fingerprinted and each flush's replies are checked
/// against the recording's (that costs time inside `flush`, so compared
/// replays are not used for timing); without it the sink only counts.
pub fn replay(
    trace: &Trace,
    engine: &mut ServerEngine,
    compare: bool,
    batch_ns: &mut Vec<f64>,
) -> Replayed {
    let peer = stack::engine_peer();
    let mut done = Replayed {
        busy_ns: 0,
        mismatches: 0,
        replies: 0,
    };
    let mut sums = Vec::new();
    for batch in &trace.batches {
        let start = Instant::now();
        for i in batch.frames.clone() {
            engine.ingest_datagram(peer, trace.ingress.get(i));
        }
        let mut replies = 0;
        engine.flush(batch.now, &mut |_, bytes| {
            if compare {
                sums.push(fingerprint(bytes));
            }
            replies += 1;
        });
        let ns = start.elapsed().as_nanos() as u64;
        done.busy_ns += ns;
        batch_ns.push(ns as f64);
        done.replies += replies;
        if compare {
            sums.sort_unstable();
            if sums != trace.reply_sums[batch.replies.clone()] {
                done.mismatches += 1;
            }
            sums.clear();
        } else if replies != batch.replies.len() {
            done.mismatches += 1;
        }
    }
    done
}
