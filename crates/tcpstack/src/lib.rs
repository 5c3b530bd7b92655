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
//! Both modes verify through the one `puzzle_core::Verifier` path;
//! they differ only in the per-proof predicate.
//! [`VerifyMode::Real`] checks the algorithm's hash predicate, so clients
//! must really brute-force (tests, examples, the wire front-end).
//! [`VerifyMode::Oracle`] checks each proof against a secret-keyed MAC
//! (`puzzle_core::oracle_proof`) the simulation mints in O(1), so that
//! simulated solve *time* can be modelled at difficulties like the
//! paper's `(2, 17)` without burning real CPU. Freshness, binding,
//! replay admission and hash charges are the same code in both. See
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

pub use client::{ClientConfig, ClientConn, ClientEvent, ClientState, FlowRecord, SynAck};
pub use cookie::SynCookieCodec;
pub use listener::{
    puzzle_clock, FlowKey, Listener, ListenerConfig, ListenerCore, ListenerEvent, ListenerStats,
    PuzzleConfig, SynCacheConfig, VerifyMode, TCP_MIN_SND_MSS,
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
