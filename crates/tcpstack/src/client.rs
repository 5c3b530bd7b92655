//! The active (client) side of the handshake.
//!
//! One sans-IO core speaks it for every client in the workspace: a
//! `Copy` [`FlowRecord`] (our ISN, the server's ISN, the timestamp a
//! solution echoes) whose methods accept a SYN-ACK and build each segment
//! a client sends, plus the [`ts_ms`] clock and the [`syn_retransmit`]
//! schedule. The `hostsim` fleets keep one record per flow in their flat
//! tables and call the core directly, so a fleet flow sends
//! [`ClientConn`]'s bytes by construction.
//!
//! [`ClientConn`] is a record plus its config, retransmit timer and
//! counters: the state machine for one outgoing connection. Because
//! solving costs CPU time that only the embedding host can model or
//! spend, it *surfaces* challenges as events rather than solving inline.
//! The host answers with either [`ClientConn::provide_solution`] (a
//! solving client, after paying the solve cost) or
//! [`ClientConn::acknowledge_plain`] (a non-adopter or non-solving
//! attacker; the paper's §6.5 scenarios).
//!
//! Note the deception asymmetry from the paper (§5): a client whose ACK
//! the server silently ignored *believes* it is established; only a later
//! RST (triggered by its data) reveals the truth. The state machine
//! mirrors that: `Established` is a local belief, revoked by
//! [`ClientEvent::Reset`].

use std::net::Ipv4Addr;

use crate::options::{ChallengeOption, SolutionOption, TcpOption};
use crate::segment::{SegmentBuilder, TcpFlags, TcpSegment};
use netsim::{SimDuration, SimTime};

/// MSS every client announces, in its SYN and in its solution block.
pub const CLIENT_MSS: u16 = 1460;
/// Window-scale shift every client announces.
pub const CLIENT_WSCALE: u8 = 7;
/// SYN retransmissions before a client gives up.
const SYN_RETRIES: u32 = 3;
/// Time from the first SYN to its first retransmission; it doubles per
/// retransmission.
pub const SYN_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// Millisecond clock of the TCP timestamps option. The TSval is the low
/// 32 bits of the simulation's 64-bit clock, so it wraps every 2³² ms
/// (≈ 49.7 days): RFC 7323 semantics, compared wraparound-aware.
pub fn ts_ms(now: SimTime) -> u32 {
    (now.as_nanos() / 1_000_000) as u32
}

/// The SYN retransmission schedule. The first timer is armed
/// [`SYN_TIMEOUT`] after the SYN. When a timer fires after `sent`
/// retransmissions, the client gives up (`None`) or retransmits and
/// re-arms after the returned timeout: 1 s × 2^(sent + 1), so
/// retransmissions go out at 1, 3 and 7 s and the client gives up at 15 s.
pub fn syn_retransmit(sent: u32) -> Option<SimDuration> {
    (sent < SYN_RETRIES).then(|| SYN_TIMEOUT * (1u64 << (sent + 1)))
}

/// A SYN-ACK that [`FlowRecord::on_synack`] accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynAck<'a> {
    /// No challenge: the handshake completes with a plain ACK.
    Plain,
    /// The server demands a puzzle solution.
    Challenged(&'a ChallengeOption),
}

/// The per-flow state the client protocol needs: 12 bytes, `Copy`, so a
/// fleet can keep one per flow in a flat table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowRecord {
    /// Our initial sequence number.
    pub isn: u32,
    /// The server's ISN, recorded from its SYN-ACK.
    pub server_isn: u32,
    /// The timestamp a solution echoes: the challenge SYN-ACK's TSval,
    /// or else the challenge block's embedded timestamp.
    pub issued_at: u32,
}

impl FlowRecord {
    /// A flow that has sent (or is about to send) its SYN with `isn`.
    pub fn new(isn: u32) -> Self {
        FlowRecord {
            isn,
            ..FlowRecord::default()
        }
    }

    /// Accepts a SYN-ACK that acknowledges our SYN, recording the
    /// server's ISN and, for a challenge, the timestamp to echo; any
    /// other segment is ignored (`None`). The caller checks that the
    /// flow is still waiting for a SYN-ACK.
    pub fn on_synack<'s>(&mut self, seg: &'s TcpSegment) -> Option<SynAck<'s>> {
        if !seg.flags.contains(TcpFlags::SYN | TcpFlags::ACK) || seg.ack != self.isn.wrapping_add(1)
        {
            return None;
        }
        self.server_isn = seg.seq;
        let Some(copt) = seg.challenge() else {
            return Some(SynAck::Plain);
        };
        self.issued_at = seg
            .timestamps()
            .map(|(tsval, _)| tsval)
            .or(copt.timestamp)
            .unwrap_or(0);
        Some(SynAck::Challenged(copt))
    }

    /// The SYN (first or retransmitted) from `ports` = (ours, theirs),
    /// with a TS option iff `timestamps`.
    pub fn build_syn(&self, ports: (u16, u16), now: SimTime, timestamps: bool) -> TcpSegment {
        let mut syn = SegmentBuilder::new(ports.0, ports.1)
            .seq(self.isn)
            .flags(TcpFlags::SYN)
            .mss(CLIENT_MSS)
            .window_scale(CLIENT_WSCALE);
        if timestamps {
            syn = syn.timestamps(ts_ms(now), 0);
        }
        syn.build()
    }

    /// An ACK of the server's SYN, before options and payload.
    fn ack(&self, ports: (u16, u16)) -> SegmentBuilder {
        SegmentBuilder::new(ports.0, ports.1)
            .seq(self.isn.wrapping_add(1))
            .ack_num(self.server_isn.wrapping_add(1))
            .flags(TcpFlags::ACK)
    }

    /// The handshake-completing ACK without a solution: the answer to a
    /// plain SYN-ACK, or a non-solving host's answer to a challenge.
    pub fn build_plain_ack(&self, ports: (u16, u16)) -> TcpSegment {
        self.ack(ports).build()
    }

    /// The solution ACK carrying `proofs`. With `timestamps` the echoed
    /// timestamp rides in the TS option; without, it is embedded in the
    /// solution block.
    pub fn build_solution_ack(
        &self,
        ports: (u16, u16),
        now: SimTime,
        proofs: &[Vec<u8>],
        timestamps: bool,
    ) -> TcpSegment {
        let embed = (!timestamps).then_some(self.issued_at);
        let sol = SolutionOption::build(CLIENT_MSS, CLIENT_WSCALE, proofs, embed);
        let mut ack = self.ack(ports).option(TcpOption::Solution(sol));
        if timestamps {
            ack = ack.timestamps(ts_ms(now), self.issued_at);
        }
        ack.build()
    }

    /// The request: `payload` on the established flow.
    pub fn build_request(&self, ports: (u16, u16), payload: Vec<u8>) -> TcpSegment {
        self.ack(ports)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(payload)
            .build()
    }
}

/// Client connection configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Our address.
    pub local_addr: Ipv4Addr,
    /// Our port.
    pub local_port: u16,
    /// Server address.
    pub remote_addr: Ipv4Addr,
    /// Server port.
    pub remote_port: u16,
    /// Whether to send the timestamps option.
    pub use_timestamps: bool,
}

impl ClientConfig {
    /// A conventional client config.
    pub fn new(
        local_addr: Ipv4Addr,
        local_port: u16,
        remote_addr: Ipv4Addr,
        remote_port: u16,
    ) -> Self {
        ClientConfig {
            local_addr,
            local_port,
            remote_addr,
            remote_port,
            use_timestamps: true,
        }
    }
}

/// Connection lifecycle states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientState {
    /// SYN sent, waiting for a SYN-ACK.
    SynSent,
    /// Challenge received, waiting for the host to provide a solution or
    /// a plain ACK.
    Challenged,
    /// Handshake complete (from this side's perspective).
    Established,
    /// Closed normally (FIN seen after establishment).
    Closed,
    /// Failed: reset by the server or timed out.
    Failed,
}

/// Events surfaced to the host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientEvent {
    /// The handshake completed (locally observed).
    Established,
    /// The server demands a puzzle solution.
    Challenged {
        /// The challenge block from the SYN-ACK.
        challenge: ChallengeOption,
        /// The timestamp to echo back (from the TS option or the block).
        issued_at: u32,
    },
    /// Application data arrived.
    Data {
        /// Payload length in bytes.
        len: usize,
        /// Whether FIN was set (server finished the response).
        fin: bool,
    },
    /// The server reset the connection.
    Reset,
    /// SYN retransmissions were exhausted.
    TimedOut,
}

/// A single client connection state machine.
#[derive(Clone, Debug)]
pub struct ClientConn {
    cfg: ClientConfig,
    state: ClientState,
    flow: FlowRecord,
    retries: u32,
    next_retx: SimTime,
    started: SimTime,
    established_at: Option<SimTime>,
    bytes_received: usize,
}

impl ClientConn {
    /// Opens a connection: returns the state machine and the initial SYN.
    pub fn connect(cfg: ClientConfig, isn: u32, now: SimTime) -> (Self, TcpSegment) {
        let conn = ClientConn {
            cfg,
            state: ClientState::SynSent,
            flow: FlowRecord::new(isn),
            retries: 0,
            next_retx: now + SYN_TIMEOUT,
            started: now,
            established_at: None,
            bytes_received: 0,
        };
        let syn = conn.syn(now);
        (conn, syn)
    }

    fn ports(&self) -> (u16, u16) {
        (self.cfg.local_port, self.cfg.remote_port)
    }

    fn syn(&self, now: SimTime) -> TcpSegment {
        let ts = self.cfg.use_timestamps;
        self.flow.build_syn(self.ports(), now, ts)
    }

    /// Current state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// When the connection attempt started.
    pub fn started(&self) -> SimTime {
        self.started
    }

    /// When the handshake completed locally, if it has.
    pub fn established_at(&self) -> Option<SimTime> {
        self.established_at
    }

    /// Handshake latency, if established: the paper's "connection time"
    /// metric (Fig. 6).
    pub fn connection_time(&self) -> Option<SimDuration> {
        self.established_at.map(|at| at.since(self.started))
    }

    /// Application bytes received so far.
    pub fn bytes_received(&self) -> usize {
        self.bytes_received
    }

    fn establish(&mut self, now: SimTime) {
        self.state = ClientState::Established;
        self.established_at = Some(now);
    }

    /// Feeds an inbound segment; returns an optional reply plus events.
    pub fn on_segment(
        &mut self,
        now: SimTime,
        seg: &TcpSegment,
    ) -> (Option<TcpSegment>, Vec<ClientEvent>) {
        let mut events = Vec::new();
        if seg.flags.contains(TcpFlags::RST) {
            if self.state != ClientState::Closed && self.state != ClientState::Failed {
                self.state = ClientState::Failed;
                events.push(ClientEvent::Reset);
            }
            return (None, events);
        }

        match self.state {
            ClientState::SynSent => match self.flow.on_synack(seg) {
                Some(SynAck::Challenged(copt)) => {
                    self.state = ClientState::Challenged;
                    events.push(ClientEvent::Challenged {
                        challenge: copt.clone(),
                        issued_at: self.flow.issued_at,
                    });
                    (None, events)
                }
                Some(SynAck::Plain) => {
                    self.establish(now);
                    events.push(ClientEvent::Established);
                    (Some(self.flow.build_plain_ack(self.ports())), events)
                }
                None => (None, events),
            },
            ClientState::Challenged => (None, events), // waiting on the host
            ClientState::Established | ClientState::Closed => {
                if !seg.payload.is_empty() || seg.flags.contains(TcpFlags::FIN) {
                    self.bytes_received += seg.payload.len();
                    let fin = seg.flags.contains(TcpFlags::FIN);
                    if fin {
                        self.state = ClientState::Closed;
                    }
                    events.push(ClientEvent::Data {
                        len: seg.payload.len(),
                        fin,
                    });
                }
                (None, events)
            }
            ClientState::Failed => (None, events),
        }
    }

    /// Responds to a challenge with solved proofs (the host has already
    /// accounted for the solve cost). Transitions to `Established`
    /// (locally believed) and returns the ACK-with-solution.
    ///
    /// # Panics
    ///
    /// Panics if no challenge is pending.
    pub fn provide_solution(&mut self, now: SimTime, proofs: &[Vec<u8>]) -> TcpSegment {
        assert_eq!(self.state, ClientState::Challenged, "no pending challenge");
        self.establish(now);
        self.flow
            .build_solution_ack(self.ports(), now, proofs, self.cfg.use_timestamps)
    }

    /// Acknowledges a challenge *without* solving it (a non-adopting
    /// client or non-solving attacker). Locally transitions to
    /// `Established` — the deceived state the paper describes.
    ///
    /// # Panics
    ///
    /// Panics if no challenge is pending.
    pub fn acknowledge_plain(&mut self, now: SimTime) -> TcpSegment {
        assert_eq!(self.state, ClientState::Challenged, "no pending challenge");
        self.establish(now);
        self.flow.build_plain_ack(self.ports())
    }

    /// Sends application data (e.g. the HTTP-like request).
    ///
    /// # Panics
    ///
    /// Panics unless the connection is (believed) established.
    pub fn send(&mut self, payload: Vec<u8>) -> TcpSegment {
        assert_eq!(
            self.state,
            ClientState::Established,
            "send on non-established connection"
        );
        self.flow.build_request(self.ports(), payload)
    }

    /// Drives SYN retransmission; call when a timer fires. Returns a SYN
    /// to retransmit and/or a timeout event.
    pub fn poll(&mut self, now: SimTime) -> (Option<TcpSegment>, Vec<ClientEvent>) {
        if self.state != ClientState::SynSent || now < self.next_retx {
            return (None, Vec::new());
        }
        let Some(timeout) = syn_retransmit(self.retries) else {
            self.state = ClientState::Failed;
            return (None, vec![ClientEvent::TimedOut]);
        };
        self.retries += 1;
        self.next_retx = now + timeout;
        (Some(self.syn(now)), Vec::new())
    }

    /// The next instant at which [`ClientConn::poll`] has work to do, if
    /// any (used by hosts to arm timers precisely).
    pub fn next_deadline(&self) -> Option<SimTime> {
        (self.state == ClientState::SynSent).then_some(self.next_retx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puzzle_core::AlgoId;

    fn cfg() -> ClientConfig {
        ClientConfig::new(
            Ipv4Addr::new(10, 0, 0, 2),
            40000,
            Ipv4Addr::new(10, 0, 0, 1),
            80,
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn synack(ack: u32, server_isn: u32) -> TcpSegment {
        SegmentBuilder::new(80, 40000)
            .seq(server_isn)
            .ack_num(ack)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .mss(1460)
            .build()
    }

    #[test]
    fn plain_handshake() {
        let (mut c, syn) = ClientConn::connect(cfg(), 100, t(0));
        assert!(syn.flags.contains(TcpFlags::SYN));
        assert_eq!(syn.seq, 100);
        assert_eq!(c.state(), ClientState::SynSent);

        let (reply, events) = c.on_segment(t(1), &synack(101, 9000));
        assert_eq!(events, vec![ClientEvent::Established]);
        let ack = reply.unwrap();
        assert_eq!(ack.ack, 9001);
        assert_eq!(c.state(), ClientState::Established);
        assert_eq!(c.connection_time(), Some(SimDuration::from_secs(1)));
    }

    #[test]
    fn wrong_ack_ignored() {
        let (mut c, _) = ClientConn::connect(cfg(), 100, t(0));
        let (reply, events) = c.on_segment(t(1), &synack(999, 9000));
        assert!(reply.is_none());
        assert!(events.is_empty());
        assert_eq!(c.state(), ClientState::SynSent);
    }

    fn challenged_synack(ack: u32, server_isn: u32) -> TcpSegment {
        SegmentBuilder::new(80, 40000)
            .seq(server_isn)
            .ack_num(ack)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .mss(1460)
            .timestamps(55, 1)
            .option(TcpOption::Challenge(ChallengeOption {
                k: 2,
                m: 17,
                preimage: vec![1, 2, 3, 4],
                timestamp: None,
                algo: AlgoId::Prefix,
            }))
            .build()
    }

    #[test]
    fn challenge_surfaces_and_solution_acknowledges() {
        let (mut c, _) = ClientConn::connect(cfg(), 100, t(0));
        let (reply, events) = c.on_segment(t(1), &challenged_synack(101, 9000));
        assert!(reply.is_none(), "must wait for host decision");
        assert!(matches!(
            events.as_slice(),
            [ClientEvent::Challenged { issued_at: 55, .. }]
        ));
        assert_eq!(c.state(), ClientState::Challenged);

        let ack = c.provide_solution(t(2), &[vec![1; 4], vec![2; 4]]);
        assert_eq!(c.state(), ClientState::Established);
        let sol = ack.solution().unwrap();
        let (proofs, ts) = sol.split(2, 32, AlgoId::Prefix, false).unwrap();
        assert_eq!(proofs.len(), 2);
        assert_eq!(ts, None);
        // TS option echoes the challenge timestamp.
        assert_eq!(ack.timestamps().unwrap().1, 55);
        assert_eq!(c.connection_time(), Some(SimDuration::from_secs(2)));
    }

    #[test]
    fn embedded_timestamp_when_ts_disabled() {
        let mut config = cfg();
        config.use_timestamps = false;
        let (mut c, syn) = ClientConn::connect(config, 100, t(0));
        assert!(syn.timestamps().is_none());
        // Challenge with embedded ts (no TS option).
        let chall = SegmentBuilder::new(80, 40000)
            .seq(9000)
            .ack_num(101)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .option(TcpOption::Challenge(ChallengeOption {
                k: 1,
                m: 8,
                preimage: vec![1, 2, 3, 4],
                timestamp: Some(77),
                algo: AlgoId::Prefix,
            }))
            .build();
        let (_, events) = c.on_segment(t(1), &chall);
        assert!(matches!(
            events.as_slice(),
            [ClientEvent::Challenged { issued_at: 77, .. }]
        ));
        let ack = c.provide_solution(t(2), &[vec![5; 4]]);
        let sol = ack.solution().unwrap();
        let (_, ts) = sol.split(1, 32, AlgoId::Prefix, true).unwrap();
        assert_eq!(ts, Some(77));
    }

    #[test]
    fn plain_ack_on_challenge_is_deceived_establishment() {
        let (mut c, _) = ClientConn::connect(cfg(), 100, t(0));
        c.on_segment(t(1), &challenged_synack(101, 9000));
        let ack = c.acknowledge_plain(t(1));
        assert!(ack.solution().is_none());
        assert_eq!(c.state(), ClientState::Established);
        // Server never admitted us; our data will trigger RST.
        let _data = c.send(b"GET /gettext/100".to_vec());
        let rst = SegmentBuilder::new(80, 40000).flags(TcpFlags::RST).build();
        let (_, events) = c.on_segment(t(2), &rst);
        assert_eq!(events, vec![ClientEvent::Reset]);
        assert_eq!(c.state(), ClientState::Failed);
    }

    #[test]
    fn data_reception_counts_bytes_and_fin_closes() {
        let (mut c, _) = ClientConn::connect(cfg(), 100, t(0));
        c.on_segment(t(1), &synack(101, 9000));
        let data = SegmentBuilder::new(80, 40000)
            .flags(TcpFlags::ACK)
            .payload(vec![0; 1460])
            .build();
        let (_, ev) = c.on_segment(t(2), &data);
        assert_eq!(
            ev,
            vec![ClientEvent::Data {
                len: 1460,
                fin: false
            }]
        );
        let last = SegmentBuilder::new(80, 40000)
            .flags(TcpFlags::ACK | TcpFlags::PSH | TcpFlags::FIN)
            .payload(vec![0; 500])
            .build();
        let (_, ev) = c.on_segment(t(3), &last);
        assert_eq!(
            ev,
            vec![ClientEvent::Data {
                len: 500,
                fin: true
            }]
        );
        assert_eq!(c.state(), ClientState::Closed);
        assert_eq!(c.bytes_received(), 1960);
    }

    #[test]
    fn syn_retransmission_with_backoff_then_timeout() {
        let (mut c, _) = ClientConn::connect(cfg(), 100, t(0));
        assert_eq!(c.next_deadline(), Some(t(1)));
        let (r, e) = c.poll(t(1));
        assert!(r.is_some() && e.is_empty()); // retx 1
        assert_eq!(c.next_deadline(), Some(t(3))); // 1 + 2
        let (r, _) = c.poll(t(3));
        assert!(r.is_some()); // retx 2
        let (r, _) = c.poll(t(7));
        assert!(r.is_some()); // retx 3
        let (r, e) = c.poll(t(15));
        assert!(r.is_none());
        assert_eq!(e, vec![ClientEvent::TimedOut]);
        assert_eq!(c.state(), ClientState::Failed);
        // No further deadlines.
        assert_eq!(c.next_deadline(), None);
    }

    #[test]
    fn poll_before_deadline_is_noop() {
        let (mut c, _) = ClientConn::connect(cfg(), 100, t(0));
        let (r, e) = c.poll(SimTime::from_millis(500));
        assert!(r.is_none() && e.is_empty());
        assert_eq!(c.state(), ClientState::SynSent);
    }

    #[test]
    #[should_panic(expected = "no pending challenge")]
    fn provide_solution_without_challenge_panics() {
        let (mut c, _) = ClientConn::connect(cfg(), 100, t(0));
        c.provide_solution(t(1), &[vec![0; 4]]);
    }

    #[test]
    #[should_panic(expected = "non-established")]
    fn send_before_established_panics() {
        let (mut c, _) = ClientConn::connect(cfg(), 100, t(0));
        c.send(vec![1]);
    }
}
