//! The live server: `ShardedListener` fed from a UDP socket.
//!
//! Split in two layers along the runtime seam:
//!
//! * [`ServerEngine`] is sans-socket: it takes decoded frames plus a
//!   `SimTime` "now" and produces outbound frames through a sink
//!   closure. Everything the server *does* — feeding
//!   `ShardedListener::on_segments`, draining `accept`, answering
//!   `GET /gettext/<n>` requests, the retransmit `poll` cadence — is
//!   here, unit-testable with a [`crate::clock::ManualClock`] and no
//!   I/O.
//! * [`LiveServer`] owns the socket and runs the engine to completion
//!   on one thread: block for a datagram, take whatever else the
//!   kernel already holds, step, reply, repeat. There is no hand-off,
//!   so a datagram never waits for a batch to fill: the batch the
//!   listener sees is the backlog that built up while the last one was
//!   being served — one datagram on a calm socket, [`RX_BATCH`] at
//!   saturation, which is exactly when the batched issue/verify paths
//!   have something to amortise. `shards > 1` still goes multicore
//!   inside `ShardedListener`'s own persistent workers.
//!
//! Unlike the sim's `ServerHost`, the engine serves requests
//! immediately — no worker pool or service-rate model. The live path
//! measures what the *stack* can do under a real scheduler
//! (handshakes, issuance, verification, egress); the apache-style
//! capacity model stays a simulation concern.
//!
//! The engine keeps no pre-proof state of its own either. The UDP peer
//! a datagram came from is remembered for the flush that carries it,
//! and past that flush only while the listener itself holds the flow
//! (half-open, queued or accepted). So a spoofed SYN flood that the
//! installed policy answers statelessly leaves nothing behind in the
//! engine, and right after a retransmit poll the peer table holds at
//! most `backlog + accept_backlog + accepted` entries.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};

use netsim::{SimDuration, SimTime};
use puzzle_core::ServerSecret;
use puzzle_crypto::AutoBackend;
use tcpstack::{
    FlowKey, ListenerConfig, ListenerEvent, ListenerStats, PolicyBuilder, ShardPipeline,
    ShardedListener, TcpSegment,
};

use crate::clock::WireClock;
use crate::frame::{decode_frame_into, encode_frame, MAX_FRAME_LEN};

/// Most datagrams one wake of [`LiveServer::run`] takes off the socket
/// before it steps the engine — received, decodable or not, so a
/// garbage flood cannot hold off `flush` and the retransmit poll.
const RX_BATCH: usize = 256;

/// Everything the live server needs to stand up its listener.
pub struct ServerConfig {
    /// The server's flow endpoint — the address segments are addressed
    /// to *inside* frames (not the UDP bind address).
    pub local_addr: std::net::Ipv4Addr,
    /// Listening port inside the frames.
    pub port: u16,
    /// The defence to install (any registered spec's builder).
    pub policy: PolicyBuilder<AutoBackend>,
    /// RSS-style listener shard count (rounded up to a power of two).
    pub shards: usize,
    /// How multi-shard steps run.
    pub pipeline: ShardPipeline,
    /// Keyed-ISN / puzzle secret. The load generator must share it for
    /// oracle solving, exactly like the sim scenario harness does.
    pub secret: ServerSecret,
    /// Listen-queue capacity (half-open slots), total across shards.
    pub backlog: usize,
    /// Accept-queue capacity, total across shards.
    pub accept_backlog: usize,
    /// Retransmit-poll cadence (the sim's `K_POLL` is 100 ms).
    pub poll_interval: SimDuration,
}

impl ServerConfig {
    /// Defaults matching the sim testbed: serve `10.0.0.1:80` with the
    /// given policy and secret, 1024-deep queues, 100 ms poll.
    pub fn new(policy: PolicyBuilder<AutoBackend>, secret: ServerSecret) -> Self {
        ServerConfig {
            local_addr: std::net::Ipv4Addr::new(10, 0, 0, 1),
            port: 80,
            policy,
            shards: 1,
            pipeline: ShardPipeline::Auto,
            secret,
            backlog: 1024,
            accept_backlog: 1024,
            poll_interval: SimDuration::from_millis(100),
        }
    }
}

/// Counter snapshot the server reports at exit (and periodically).
#[derive(Clone, Debug, Default)]
pub struct WireServerStats {
    /// Datagrams received, including undecodable ones.
    pub datagrams_rx: u64,
    /// Datagrams transmitted.
    pub datagrams_tx: u64,
    /// Application requests served to completion (FIN sent).
    pub requests_served: u64,
    /// Replies dropped because no UDP peer was known for their flow.
    /// Always 0 unless the engine's peer-retention rule is broken.
    pub unaddressed_replies: u64,
    /// Listener counters with wire-level `decode_errors` folded in.
    pub listener: ListenerStats,
}

/// The sans-socket server core. Feed it decoded frames, call
/// [`ServerEngine::flush`] with "now", and it hands encoded reply
/// frames to the sink.
pub struct ServerEngine {
    listener: ShardedListener<AutoBackend>,
    port: u16,
    poll_interval: SimDuration,
    next_poll: SimTime,
    /// Claimed flow endpoint → actual UDP peer, for the flows the
    /// listener holds state for, so `poll` retransmissions reach them in
    /// flushes where they send nothing. Filled from `batch_peers` at the
    /// end of each flush and pruned on every poll: right after a poll it
    /// holds at most `backlog + accept_backlog + accepted` entries,
    /// however many spoofed SYNs arrived.
    peers: HashMap<FlowKey, SocketAddr>,
    /// Claimed flow endpoint → actual UDP peer for this flush's
    /// datagrams; drained at the end of every flush, so it keeps its
    /// capacity. Egress looks here before `peers`, so a flow that
    /// re-binds is answered at its newest peer.
    batch_peers: HashMap<FlowKey, SocketAddr>,
    /// Flows popped from `accept`.
    accepted: HashSet<FlowKey>,
    /// Parsed `gettext` sizes awaiting their flow's accept.
    pending: HashMap<FlowKey, usize>,
    /// Flows that became both accepted and pending during this flush,
    /// in the order they did: the serving order. Reused across flushes.
    ready: Vec<FlowKey>,
    /// Ingress slots: each datagram is decoded in place over the next
    /// slot, so slots keep their option and payload buffers across
    /// flushes. The first `live` hold this flush's batch.
    batch: Vec<(std::net::Ipv4Addr, TcpSegment)>,
    live: usize,
    /// Egress scratch, reused across replies.
    scratch: Vec<u8>,
    decode_errors: u64,
    datagrams_rx: u64,
    datagrams_tx: u64,
    requests_served: u64,
    unaddressed_replies: u64,
}

impl ServerEngine {
    /// Builds the engine and its sharded listener.
    pub fn new(cfg: &ServerConfig) -> Self {
        let mut lcfg = ListenerConfig::new(cfg.local_addr, cfg.port);
        lcfg.backlog = cfg.backlog;
        lcfg.accept_backlog = cfg.accept_backlog;
        let listener = ShardedListener::with_policy_pipeline(
            lcfg,
            cfg.secret.clone(),
            puzzle_crypto::auto_backend(),
            &cfg.policy,
            cfg.shards,
            cfg.pipeline,
        );
        ServerEngine {
            listener,
            port: cfg.port,
            poll_interval: cfg.poll_interval,
            next_poll: SimTime::ZERO,
            peers: HashMap::new(),
            batch_peers: HashMap::new(),
            accepted: HashSet::new(),
            pending: HashMap::new(),
            ready: Vec::new(),
            batch: Vec::new(),
            live: 0,
            scratch: Vec::new(),
            decode_errors: 0,
            datagrams_rx: 0,
            datagrams_tx: 0,
            requests_served: 0,
            unaddressed_replies: 0,
        }
    }

    /// Ingests one raw datagram: frame-decode inline into the next
    /// ingress slot, count failures. The slot joins the batch only once
    /// the decode and the port check succeed; a failed decode leaves it
    /// free for the next datagram to overwrite.
    pub fn ingest_datagram(&mut self, from: SocketAddr, bytes: &[u8]) {
        self.datagrams_rx += 1;
        if self.live == self.batch.len() {
            self.batch
                .push((std::net::Ipv4Addr::UNSPECIFIED, TcpSegment::default()));
        }
        let (endpoint, seg) = &mut self.batch[self.live];
        match decode_frame_into(bytes, seg) {
            Ok(addr) if seg.dst_port == self.port => *endpoint = addr,
            // Undecodable, or deliverable nowhere: malformed input alike.
            _ => {
                self.decode_errors += 1;
                return;
            }
        }
        let flow = FlowKey {
            addr: *endpoint,
            port: seg.src_port,
        };
        self.live += 1;
        self.batch_peers.insert(flow, from);
    }

    /// Steps the listener over the ingress batch, serves application
    /// requests, runs the retransmit poll when due, and emits every
    /// reply as an encoded frame through `sink(peer, frame_bytes)`.
    pub fn flush(&mut self, now: SimTime, sink: &mut dyn FnMut(SocketAddr, &[u8])) {
        if self.live > 0 {
            let out = self.listener.on_segments(now, &self.batch[..self.live]);
            self.live = 0;
            self.transmit(out.replies, sink);
            for ev in out.events {
                match ev {
                    ListenerEvent::Data { flow, payload, fin } => {
                        if let Some(size) = hostsim::parse_gettext_request(&payload) {
                            self.pending.insert(flow, size);
                            if self.accepted.contains(&flow) {
                                self.ready.push(flow);
                            }
                        } else if fin && self.pending.remove(&flow).is_none() {
                            // Peer closed without a parseable request.
                            if self.accepted.remove(&flow) {
                                self.listener.close(flow);
                            }
                        }
                    }
                    ListenerEvent::Established { .. }
                    | ListenerEvent::SynDropped { .. }
                    | ListenerEvent::AckIgnoredQueueFull { .. }
                    | ListenerEvent::SolutionRejected { .. }
                    | ListenerEvent::AcceptOverflow { .. }
                    | ListenerEvent::ResetSent { .. } => {}
                }
            }
        }
        while let Some(flow) = self.listener.accept() {
            self.accepted.insert(flow);
            if self.pending.contains_key(&flow) {
                self.ready.push(flow);
            }
        }
        // Serve every accepted flow with a parsed request: immediate
        // send_data with FIN (no service-time model — see module docs).
        // Between flushes no flow is both accepted and pending, so
        // `ready` holds every candidate, in arrival order; a flow can be
        // listed twice or have lost its request to a bare FIN since, so
        // both sets are checked again.
        let mut ready = std::mem::take(&mut self.ready);
        for flow in ready.drain(..) {
            if !self.accepted.contains(&flow) {
                continue;
            }
            let Some(size) = self.pending.remove(&flow) else {
                continue;
            };
            self.accepted.remove(&flow);
            let segs = self.listener.send_data(flow, size, true);
            self.requests_served += 1;
            self.transmit(segs, sink);
            // Skip hashing the key when there is nothing to remove, the
            // common case under puzzles.
            if !self.peers.is_empty() {
                self.peers.remove(&flow);
            }
        }
        self.ready = ready;
        if now >= self.next_poll {
            let retx = self.listener.poll(now);
            self.transmit(retx, sink);
            self.next_poll = now + self.poll_interval;
            // Let go of expired half-opens and reset or closed flows.
            let listener = &self.listener;
            self.peers.retain(|flow, _| listener.knows_flow(flow));
        }
        // Every reply but one answers a datagram of the same flush —
        // challenges, cookies, SYN-cache SYN-ACKs, RSTs and `send_data`
        // — and finds its peer in `batch_peers`. The exception is
        // `poll`'s SYN-ACK retransmission to a half-open flow, which can
        // come in a flush where that flow sent nothing. So a peer
        // outlives its flush only while the listener holds the flow. The
        // policy's own per-flow state needs none: the SYN cache never
        // retransmits.
        for (flow, peer) in self.batch_peers.drain() {
            if self.listener.knows_flow(&flow) {
                self.peers.insert(flow, peer);
            }
        }
    }

    fn transmit(
        &mut self,
        replies: Vec<(std::net::Ipv4Addr, TcpSegment)>,
        sink: &mut dyn FnMut(SocketAddr, &[u8]),
    ) {
        for (endpoint, seg) in replies {
            let flow = FlowKey {
                addr: endpoint,
                port: seg.dst_port,
            };
            let Some(&peer) = self
                .batch_peers
                .get(&flow)
                .or_else(|| self.peers.get(&flow))
            else {
                // Nowhere to send: the retention rule in `flush` lost
                // a peer it should have kept.
                self.unaddressed_replies += 1;
                continue;
            };
            self.scratch.clear();
            encode_frame(endpoint, &seg, &mut self.scratch);
            sink(peer, &self.scratch);
            self.datagrams_tx += 1;
        }
    }

    /// Snapshot of everything measured, with wire-level decode errors
    /// folded into the listener counters via `merge`.
    pub fn stats(&self) -> WireServerStats {
        let mut listener = self.listener.stats();
        listener.merge(&ListenerStats {
            decode_errors: self.decode_errors,
            ..Default::default()
        });
        WireServerStats {
            datagrams_rx: self.datagrams_rx,
            datagrams_tx: self.datagrams_tx,
            requests_served: self.requests_served,
            unaddressed_replies: self.unaddressed_replies,
            listener,
        }
    }

    /// The installed policy's diagnostic name.
    pub fn policy_name(&self) -> &'static str {
        self.listener.policy_name()
    }
}

/// The socket front of the live server.
pub struct LiveServer {
    socket: UdpSocket,
    engine: ServerEngine,
}

impl LiveServer {
    /// Binds a UDP socket (e.g. `127.0.0.1:9000`, or port 0 for an
    /// ephemeral port) and stands up the engine.
    ///
    /// # Errors
    ///
    /// Returns any socket bind error.
    pub fn bind(bind: &str, cfg: &ServerConfig) -> io::Result<LiveServer> {
        let socket = UdpSocket::bind(bind)?;
        Ok(LiveServer {
            socket,
            engine: ServerEngine::new(cfg),
        })
    }

    /// The bound UDP address (for tests binding port 0).
    ///
    /// # Errors
    ///
    /// Returns the socket's `local_addr` error, if any.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Runs until `stop` goes true, then returns the final stats
    /// snapshot. One run-to-completion loop on the calling thread:
    ///
    /// 1. block in `recv_from` for the first datagram — or for
    ///    `poll_interval`, so an idle socket still honours `stop` and the
    ///    retransmit poll;
    /// 2. take whatever the kernel already holds, without blocking, up
    ///    to [`RX_BATCH`] datagrams in all;
    /// 3. `flush` once and `send_to` the replies.
    ///
    /// Draining what is there beats filling to a target: a fill target
    /// makes every datagram wait for the batch (170 ms for 256 datagrams
    /// at 500 handshakes/s, twice per handshake), while the backlog that
    /// builds up during a step *is* the load, so batches grow exactly
    /// when there is work to amortise. A wake is bounded by `RX_BATCH`
    /// datagrams and one flush, whatever arrives meanwhile.
    ///
    /// # Panics
    ///
    /// Panics if socket configuration (read timeout, blocking mode)
    /// fails.
    pub fn run<C: WireClock>(mut self, clock: &C, stop: &AtomicBool) -> WireServerStats {
        let socket = &self.socket;
        let engine = &mut self.engine;
        // The socket API rejects a zero time-out.
        let idle = std::time::Duration::from_nanos(engine.poll_interval.as_nanos().max(1));
        socket
            .set_read_timeout(Some(idle))
            .expect("set_read_timeout");
        let mut buf = [0u8; MAX_FRAME_LEN + 64];
        while !stop.load(Ordering::Relaxed) {
            // A time-out (or a transient socket error) falls through to
            // the flush, which runs the retransmit poll when due.
            if let Ok((n, from)) = socket.recv_from(&mut buf) {
                engine.ingest_datagram(from, &buf[..n]);
                socket.set_nonblocking(true).expect("set_nonblocking");
                for _ in 1..RX_BATCH {
                    // `WouldBlock`: the kernel holds nothing more.
                    let Ok((n, from)) = socket.recv_from(&mut buf) else {
                        break;
                    };
                    engine.ingest_datagram(from, &buf[..n]);
                }
                socket.set_nonblocking(false).expect("set_nonblocking");
            }
            engine.flush(clock.now(), &mut |peer, bytes| {
                let _ = socket.send_to(bytes, peer);
            });
        }
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use experiments::scenario::DefenseSpec;
    use hostsim::mix::{self, MixParams};
    use hostsim::SolveStrategy;
    use puzzle_core::SolveCostModel;
    use tcpstack::{SegmentBuilder, TcpFlags};

    use super::*;
    use crate::clock::ManualClock;
    use crate::frame::decode_frame;
    use crate::{secret_from_seed, LoadEngine, WireClock};

    const SERVER_ENDPOINT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SYNS: u32 = 10_000;
    const STEP: SimDuration = SimDuration::from_millis(10);

    fn engine(defense: &str, backlog: usize) -> ServerEngine {
        engine_with_queues(defense, backlog, 1024)
    }

    fn engine_with_queues(defense: &str, backlog: usize, accept_backlog: usize) -> ServerEngine {
        let spec = DefenseSpec::by_name(defense).expect("registered defense");
        let mut cfg = ServerConfig::new(spec.builder().clone(), secret_from_seed(21));
        cfg.backlog = backlog;
        cfg.accept_backlog = accept_backlog;
        ServerEngine::new(&cfg)
    }

    fn peer() -> SocketAddr {
        "127.0.0.1:5555".parse().unwrap()
    }

    /// The `i`-th spoofed SYN, from a source endpoint no other `i` uses.
    fn spoofed_syn(i: u32) -> Vec<u8> {
        let src = Ipv4Addr::from(0xC612_0000 | (i >> 8));
        let seg = SegmentBuilder::new(1024 + (i & 0xff) as u16, 80)
            .seq(i)
            .flags(TcpFlags::SYN)
            .build();
        let mut frame = Vec::new();
        encode_frame(src, &seg, &mut frame);
        frame
    }

    /// Feeds [`SYNS`] unique spoofed SYNs in [`RX_BATCH`]-datagram
    /// flushes [`STEP`] apart and calls `check` after every flush.
    fn flood(engine: &mut ServerEngine, clock: &ManualClock, mut check: impl FnMut(&ServerEngine)) {
        let mut next = 0;
        while next < SYNS {
            let end = (next + RX_BATCH as u32).min(SYNS);
            for i in next..end {
                engine.ingest_datagram(peer(), &spoofed_syn(i));
            }
            next = end;
            clock.advance(STEP);
            engine.flush(clock.now(), &mut |_, _| {});
            assert!(engine.batch_peers.is_empty());
            check(engine);
        }
        assert_eq!(engine.stats().listener.syns_received, u64::from(SYNS));
        assert_eq!(engine.stats().unaddressed_replies, 0);
    }

    #[test]
    fn stateless_answers_leave_no_peers_behind() {
        for defense in ["stateless-puzzles", "puzzles"] {
            let mut engine = engine(defense, 0);
            flood(&mut engine, &ManualClock::new(), |e| {
                assert!(e.peers.is_empty(), "{defense}: {} peers", e.peers.len());
            });
            let stats = engine.stats();
            assert_eq!(stats.listener.challenges_sent, u64::from(SYNS), "{defense}");
            assert_eq!(stats.datagrams_tx, u64::from(SYNS), "{defense}");
        }
    }

    #[test]
    fn half_open_peers_are_bounded_by_backlog_and_expire() {
        let backlog = 1024;
        let mut engine = engine("none", backlog);
        let clock = ManualClock::new();
        let mut most = 0;
        flood(&mut engine, &clock, |e| {
            assert!(e.peers.len() <= backlog, "{} peers", e.peers.len());
            most = most.max(e.peers.len());
        });
        assert_eq!(most, backlog);

        // Past the last SYN-ACK retry's back-off every half-open has
        // expired, and the poll that expired it let go of its peer.
        let cfg = engine.listener.config();
        let horizon =
            clock.now() + cfg.synack_timeout * (2u64 << cfg.synack_retries) + engine.poll_interval;
        while clock.now() < horizon {
            clock.advance(engine.poll_interval);
            engine.flush(clock.now(), &mut |_, _| {});
        }
        assert_eq!(engine.listener.queue_depths(), (0, 0));
        assert!(engine.peers.is_empty(), "{} peers", engine.peers.len());
        assert_eq!(engine.stats().unaddressed_replies, 0);
    }

    #[test]
    fn conn_flood_peers_are_bounded_by_listener_state() {
        // Queues far shallower than the flood, so most attempts are
        // dropped and the bound is tight.
        let mut engine = engine_with_queues("none", 64, 64);
        let mut p = MixParams::new(
            Ipv4Addr::new(198, 18, 0, 0),
            SERVER_ENDPOINT,
            80,
            SolveStrategy::Oracle {
                secret: secret_from_seed(21),
                cost_model: SolveCostModel::UniformPlacement,
            },
        );
        p.rate = 500.0;
        p.stop = SimTime::from_secs(1);
        let mut load = LoadEngine::new(
            SERVER_ENDPOINT,
            vec![(
                "conn-flood".to_string(),
                mix::by_name("conn-flood", &p).unwrap(),
            )],
            23,
        );
        let clock = ManualClock::new();
        load.start();
        let (mut polls, mut most) = (0, 0);
        while clock.now() < SimTime::from_secs(4) {
            clock.advance(STEP);
            let now = clock.now();
            load.advance(now, &mut |bytes| engine.ingest_datagram(peer(), bytes));
            let polled = now >= engine.next_poll;
            let mut replies = Vec::new();
            engine.flush(now, &mut |_, bytes| replies.push(bytes.to_vec()));
            for frame in &replies {
                let (endpoint, seg) = decode_frame(frame).expect("server emits valid frames");
                load.deliver(now, endpoint, seg);
            }
            if polled {
                polls += 1;
                let cfg = engine.listener.config();
                let bound = cfg.backlog + cfg.accept_backlog + engine.accepted.len();
                assert!(
                    engine.peers.len() <= bound,
                    "{} > {bound}",
                    engine.peers.len()
                );
                assert!(engine.peers.keys().all(|f| engine.listener.knows_flow(f)));
            }
            most = most.max(engine.peers.len());
        }
        let stats = engine.stats();
        assert!(polls >= 30, "{polls} polls");
        assert!(stats.listener.established_total() >= 64, "{stats:?}");
        assert!(stats.listener.syns_dropped > 0, "{stats:?}");
        assert!(most > 0);
        assert_eq!(stats.unaddressed_replies, 0);
    }
}
