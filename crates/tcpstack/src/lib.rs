//! TCP handshake stack with client-puzzle and SYN-cookie defences.
//!
//! This crate is the reproduction of the paper's Linux 4.13 kernel patch
//! (§5): the TCP three-way handshake with
//!
//! * a bounded **listen queue** of half-open connections (the SYN-flood
//!   target) and a bounded **accept queue** of established-but-unaccepted
//!   connections (the connection-flood target);
//! * **SYN cookies** (RFC-style, [`cookie::SynCookieCodec`]) as the
//!   baseline defence;
//! * **client puzzles** carried in TCP options — challenge option
//!   `0xfc` (paper Fig. 4) and solution option `0xfd` (Fig. 5), encoded
//!   byte-exactly by [`options`];
//! * the paper's **opportunistic controller**: puzzles engage only when
//!   the listen queue is full, challenges take precedence over cookies,
//!   ACKs are ignored (not RST) when the accept queue overflows so that
//!   non-compliant floods believe they connected (§5).
//!
//! The state machines are *sans-IO*: [`Listener`] (passive side) and
//! [`ClientConn`] (active side) consume segments and produce segments +
//! events, with no sockets or event loop — the `hostsim` crate adapts them
//! onto the `netsim` simulator, and tests drive them directly.
//!
//! # Verification backends
//!
//! [`VerifyMode::Real`] runs the actual brute-force-verifiable protocol
//! from `puzzle-core` (used in tests, examples, and the profiler).
//! [`VerifyMode::Oracle`] preserves every protocol behaviour — tuple and
//! timestamp binding, expiry, forgery rejection — while replacing the
//! client's brute-force search with a secret-keyed proof the simulation
//! can mint in O(1), so that simulated solve *time* can be modelled at
//! difficulties like the paper's `(2, 17)` without burning real CPU. See
//! `DESIGN.md` ("Substitutions").

// `deny`, not `forbid`: the SPSC ring and the persistent shard-worker
// plumbing ([`ring`], `pipeline`) are the crate's only `unsafe` islands
// — each opts in locally with documented invariants, the same pattern
// `puzzle-crypto` uses for its SHA-NI kernel.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod client;
pub mod cookie;
pub mod listener;
pub mod options;
mod pipeline;
pub mod policy;
pub mod ring;
pub mod segment;
pub mod shard;

pub use client::{ClientConfig, ClientConn, ClientEvent, ClientState};
pub use cookie::SynCookieCodec;
pub use listener::{
    oracle_proof, oracle_proof_with, puzzle_clock, FlowKey, Listener, ListenerConfig, ListenerCore,
    ListenerEvent, ListenerStats, PuzzleConfig, SynCacheConfig, VerifyMode, TCP_MIN_SND_MSS,
};
pub use options::{ChallengeOption, OptionDecodeError, SolutionOption, TcpOption};
pub use policy::{
    AckClass, AckDisposition, DefensePolicy, NoDefense, PolicyBuilder, PolicyStats, PuzzleDefense,
    QueuePressure, SolutionRun, Stacked, SynCacheDefense, SynCookieDefense, SynDisposition,
};
pub use segment::{
    SegmentBuilder, SegmentDecodeError, TcpFlags, TcpSegment, MAX_OPTIONS_LEN, TCP_HEADER_LEN,
};
pub use shard::{shard_for, PipelineStats, ShardPipeline, ShardQueueStats, ShardedListener};
