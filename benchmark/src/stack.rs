//! What every workload shares: the two server configurations, the
//! legitimate client (state machine + real solver), seeded endpoints,
//! and the order statistics the report uses.

use std::net::{Ipv4Addr, SocketAddr};

use netsim::{SimDuration, SimTime};
use puzzle_core::{AlgoId, Challenge, ChallengeParams, Difficulty, Solver};
use puzzle_crypto::AutoBackend;
use tcpstack::{
    ChallengeOption, ClientConfig, ClientConn, ClientEvent, PolicyBuilder, PuzzleConfig,
    TcpSegment, VerifyMode,
};
use wire::ServerConfig;

/// Sub-solutions per challenge. Verification costs `1 + K` hashes
/// whatever `M` is, so the server does the paper's (2, 17) work…
pub const K: u8 = 2;
/// …while `M = 6` keeps the generator's real brute-force solve near
/// 64 hashes, cheap enough to run beside the server on two cores.
pub const M: u8 = 6;
/// Acceptance-window length of the near-stateless policy, in seconds.
pub const WINDOW_LEN: u32 = 8;

/// The server's flow endpoint inside frames (`ServerConfig::new`'s).
pub const SERVER_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// The server's port inside frames.
pub const SERVER_PORT: u16 = 80;
/// Response size every legitimate request asks for.
pub const RESPONSE_BYTES: usize = 1000;
const REQUEST: &[u8] = b"GET /gettext/1000";

/// Which defence the server under test installs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defense {
    /// `PolicyBuilder::puzzles`: classic puzzles with replay admissions.
    Puzzles,
    /// `PolicyBuilder::stateless_puzzles`: windowed, near-stateless.
    Stateless,
}

/// The puzzle parameters of both policies. Registered `DefenseSpec`s
/// verify with an HMAC oracle; the benchmark builds its own policy so
/// the server runs the real `issue_batch`/`verify_batch_with` path.
pub fn puzzle_config() -> PuzzleConfig {
    PuzzleConfig {
        difficulty: Difficulty::new(K, M).expect("static difficulty"),
        preimage_bits: 32,
        expiry: 8,
        verify: VerifyMode::Real,
        hold: SimDuration::from_secs(30),
        verify_workers: 1,
        algo: AlgoId::Prefix,
    }
}

/// The policy for `defense`, over the auto-selected hash backend.
pub fn policy(defense: Defense) -> PolicyBuilder<AutoBackend> {
    match defense {
        Defense::Puzzles => PolicyBuilder::puzzles(puzzle_config()),
        Defense::Stateless => PolicyBuilder::stateless_puzzles(puzzle_config(), WINDOW_LEN),
    }
}

/// One-shard server configuration. `backlog = 0` challenges every SYN;
/// the default 1024 challenges only under queue pressure.
pub fn server_config(defense: Defense, backlog: usize, seed: u64) -> ServerConfig {
    let mut cfg = ServerConfig::new(policy(defense), wire::secret_from_seed(seed));
    cfg.backlog = backlog;
    cfg
}

/// splitmix64: the benchmark's only randomness, so a seed fixes every
/// ISN and endpoint.
#[derive(Clone)]
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Endpoint of the `i`-th legitimate flow: unique per `i`, inside
/// `10.16.0.0/12` (2^20 addresses × 60 000 ports); the seed picks
/// where in that space the run starts.
pub fn legit_endpoint(seed: u64, i: u64) -> (Ipv4Addr, u16) {
    let n = i + (seed % 4096) * 60_000;
    let addr = Ipv4Addr::from(0x0A10_0000 + ((n / 60_000) % (1 << 20)) as u32);
    (addr, 1024 + (n % 60_000) as u16)
}

/// Endpoint of the `i`-th spoofed SYN: an affine bijection on 30 bits
/// keyed by the seed, so every spoofed source is distinct, and none is
/// in `10/8` where the legitimate flows live.
pub fn spoofed_endpoint(seed: u64, i: u64) -> (Ipv4Addr, u16) {
    let mixed = i
        .wrapping_mul(0x2545_F491_4F6C_DD1D | 1)
        .wrapping_add(seed.wrapping_mul(0x9E37_79B9))
        & 0x3FFF_FFFF;
    let addr = Ipv4Addr::from(0x4000_0000 | mixed as u32);
    (addr, 1024 + (i.wrapping_mul(31) % 60_000) as u16)
}

/// UDP peer the socket-free workloads claim to receive from.
pub fn engine_peer() -> SocketAddr {
    SocketAddr::from((Ipv4Addr::LOCALHOST, 40_000))
}

/// What a server segment did to a legitimate client.
pub enum Step {
    /// Nothing to send.
    Quiet,
    /// Challenge solved: the ACK carrying the proofs, then the request.
    Answer(TcpSegment, TcpSegment),
    /// Plain SYN-ACK (no challenge): the ACK, then the request.
    AnswerPlain(TcpSegment, TcpSegment),
    /// Response complete (FIN seen) with this many payload bytes.
    Done(usize),
    /// Reset by the server.
    Reset,
}

/// One legitimate client: `tcpstack::ClientConn` plus the real
/// brute-force `Solver`, exactly what a puzzle-aware client runs.
pub struct Client {
    conn: ClientConn,
}

impl Client {
    /// Opens the connection; returns the SYN to send.
    pub fn connect(endpoint: (Ipv4Addr, u16), isn: u32, now: SimTime) -> (Client, TcpSegment) {
        let cfg = ClientConfig::new(endpoint.0, endpoint.1, SERVER_ADDR, SERVER_PORT);
        let (conn, syn) = ClientConn::connect(cfg, isn, now);
        (Client { conn }, syn)
    }

    /// Feeds one server segment and says what to send back.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) -> Step {
        let (reply, events) = self.conn.on_segment(now, seg);
        for event in events {
            match event {
                ClientEvent::Challenged {
                    challenge,
                    issued_at,
                } => {
                    let proofs = solve(&challenge, issued_at);
                    let ack = self.conn.provide_solution(now, &proofs);
                    return Step::Answer(ack, self.conn.send(REQUEST.to_vec()));
                }
                ClientEvent::Established => {
                    let ack = reply.expect("plain SYN-ACK is acknowledged");
                    return Step::AnswerPlain(ack, self.conn.send(REQUEST.to_vec()));
                }
                ClientEvent::Data { fin: true, .. } => {
                    return Step::Done(self.conn.bytes_received())
                }
                ClientEvent::Data { fin: false, .. } => {}
                ClientEvent::Reset | ClientEvent::TimedOut => return Step::Reset,
            }
        }
        Step::Quiet
    }
}

fn solve(challenge: &ChallengeOption, issued_at: u32) -> Vec<Vec<u8>> {
    let params = ChallengeParams {
        difficulty: Difficulty::new(challenge.k, challenge.m).expect("server sent valid (k, m)"),
        preimage_bits: challenge.l_bits(),
        timestamp: issued_at,
    };
    let challenge = Challenge::from_wire(params, challenge.preimage.clone())
        .expect("server sent a consistent challenge");
    Solver::new().solve(&challenge).solution.proofs().to_vec()
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}
