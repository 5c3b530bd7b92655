//! Live wire front-end: the defense stack on real loopback sockets.
//!
//! The paper validates client puzzles inside a real kernel on a
//! physical testbed; the reproduction was simulation-only. This crate
//! closes that gap without adding dependencies: UDP datagrams carry
//! the existing [`tcpstack::TcpSegment`] wire codec (framed with the
//! claimed flow endpoint, see [`frame`]), so the *same*
//! `ShardedListener` the pinned golden scenarios drive also serves
//! real packet I/O under a real scheduler.
//!
//! Layout, along the runtime seam ([`clock::WireClock`]):
//!
//! * [`clock`] — sim-time vs wall-time abstraction; event loops are
//!   generic over it and unit-testable without sockets.
//! * [`frame`] — the datagram framing (magic, version, endpoint,
//!   encoded segment).
//! * [`server`] — `ServerEngine` (sans-socket) + `LiveServer` (one
//!   run-to-completion loop: take what the socket holds, step, reply;
//!   a wake is at most 256 datagrams and one flush).
//! * [`load`] — `LoadEngine` (harness-driven `hostsim` fleets) +
//!   `LiveLoad` (single-threaded replay loop, one reply per turn, never
//!   waiting past the next fleet timer). Reports handshakes/sec,
//!   goodput, and completion-latency percentiles measured at the wire
//!   boundary.
//!
//! Binaries: `live_server` and `live_load` (see the README's
//! two-command quick-start). The sim path is untouched: golden digests
//! stay the authority on listener behaviour, and this crate only adds
//! an I/O front.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod frame;
pub mod load;
pub mod server;

pub use clock::{ManualClock, WallClock, WireClock};
pub use frame::{
    decode_frame, decode_frame_into, encode_frame, FrameError, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
pub use load::{LiveLoad, LoadEngine, LoadReport};
pub use server::{LiveServer, ServerConfig, ServerEngine, WireServerStats};

use puzzle_core::ServerSecret;

/// Derives the shared server secret from a CLI `--secret` seed, the
/// same way on both binaries (splitmix64 over the seed). The server
/// mints challenges and keyed ISNs with it; the load generator needs
/// it for oracle-mode solving — exactly the trust relationship the sim
/// scenario harness has.
pub fn secret_from_seed(seed: u64) -> ServerSecret {
    let mut bytes = [0u8; 32];
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    for chunk in bytes.chunks_mut(8) {
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        chunk.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    ServerSecret::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secret_derivation_is_deterministic_and_seed_sensitive() {
        assert!(secret_from_seed(7) == secret_from_seed(7));
        assert!(secret_from_seed(7) != secret_from_seed(8));
    }
}
