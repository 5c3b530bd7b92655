//! Datagram framing: one UDP payload = one addressed `TcpSegment`.
//!
//! The sans-IO listener works on `(Ipv4Addr, TcpSegment)` pairs — the
//! address is the *flow endpoint* (the claimed client source on
//! ingress, the reply destination on egress), not the UDP peer. Over
//! loopback every datagram arrives from `127.0.0.1:<ephemeral>`, so
//! the frame carries the endpoint explicitly:
//!
//! ```text
//! +------+---------+-------------------+------------------------+
//! | 0xD5 | version |  endpoint (IPv4,  |  TcpSegment::encode()  |
//! |      |  (0x01) |  4 bytes, BE)     |  (20..60B hdr + data)  |
//! +------+---------+-------------------+------------------------+
//! ```
//!
//! This is the moral equivalent of a raw IP header shrunk to the one
//! field the stack reads. Spoofed floods are then honest: the load
//! generator varies the endpoint field exactly where a real attacker
//! varies the source address, and the server's defenses (source-keyed
//! puzzles, cookies) see the same distribution the sim shows them.

use std::net::Ipv4Addr;

use tcpstack::{SegmentDecodeError, TcpSegment, MAX_OPTIONS_LEN, TCP_HEADER_LEN};

/// First byte of every frame.
pub const FRAME_MAGIC: u8 = 0xD5;
/// Framing version this build speaks.
pub const FRAME_VERSION: u8 = 1;
/// Bytes before the encoded segment.
pub const FRAME_HEADER_LEN: usize = 6;

/// A receive buffer bound: header + maximal TCP header + the largest
/// payload the stack emits (one MSS). Anything longer is a framing
/// error by construction.
pub const MAX_FRAME_LEN: usize = FRAME_HEADER_LEN + TCP_HEADER_LEN + MAX_OPTIONS_LEN + 1460;

/// Why a datagram failed to frame-decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the frame header.
    Truncated,
    /// First byte was not [`FRAME_MAGIC`].
    BadMagic(u8),
    /// Unsupported version byte.
    BadVersion(u8),
    /// The segment body failed to decode.
    Segment(SegmentDecodeError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic(b) => write!(f, "bad frame magic {b:#04x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Segment(e) => write!(f, "bad segment: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends the frame for `(endpoint, seg)` to `out` (not cleared
/// first — callers reuse one scratch buffer across sends).
pub fn encode_frame(endpoint: Ipv4Addr, seg: &TcpSegment, out: &mut Vec<u8>) {
    out.reserve(FRAME_HEADER_LEN + seg.wire_len());
    out.push(FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.extend_from_slice(&endpoint.octets());
    seg.encode_into(out);
}

/// Decodes one datagram into its flow endpoint and segment. A wrapper
/// over [`decode_frame_into`] with a fresh segment.
///
/// # Errors
///
/// Returns [`FrameError`] on truncation, bad magic/version, or a
/// segment that does not parse.
pub fn decode_frame(bytes: &[u8]) -> Result<(Ipv4Addr, TcpSegment), FrameError> {
    let mut seg = TcpSegment::default();
    let endpoint = decode_frame_into(bytes, &mut seg)?;
    Ok((endpoint, seg))
}

/// Decodes one datagram's segment over `seg` in place
/// ([`TcpSegment::decode_into`]) and returns the flow endpoint. On error
/// `seg`'s contents are unspecified (but valid).
///
/// # Errors
///
/// As [`decode_frame`].
pub fn decode_frame_into(bytes: &[u8], seg: &mut TcpSegment) -> Result<Ipv4Addr, FrameError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    if bytes[0] != FRAME_MAGIC {
        return Err(FrameError::BadMagic(bytes[0]));
    }
    if bytes[1] != FRAME_VERSION {
        return Err(FrameError::BadVersion(bytes[1]));
    }
    seg.decode_into(&bytes[FRAME_HEADER_LEN..])
        .map_err(FrameError::Segment)?;
    Ok(Ipv4Addr::new(bytes[2], bytes[3], bytes[4], bytes[5]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpstack::{SegmentBuilder, TcpFlags};

    fn syn() -> TcpSegment {
        SegmentBuilder::new(49152, 80)
            .seq(7)
            .flags(TcpFlags::SYN)
            .timestamps(12, 0)
            .build()
    }

    #[test]
    fn frame_round_trips() {
        let endpoint = Ipv4Addr::new(198, 18, 3, 4);
        let seg = syn();
        let mut buf = Vec::new();
        encode_frame(endpoint, &seg, &mut buf);
        assert_eq!(buf.len(), FRAME_HEADER_LEN + seg.wire_len());
        assert!(buf.len() <= MAX_FRAME_LEN);
        assert_eq!(decode_frame(&buf), Ok((endpoint, seg)));
    }

    #[test]
    fn encode_appends_without_clearing() {
        let mut buf = vec![0xAA];
        encode_frame(Ipv4Addr::LOCALHOST, &syn(), &mut buf);
        assert_eq!(buf[0], 0xAA);
        assert_eq!(decode_frame(&buf[1..]).unwrap().0, Ipv4Addr::LOCALHOST);
    }

    #[test]
    fn rejects_bad_magic_version_truncation() {
        let mut buf = Vec::new();
        encode_frame(Ipv4Addr::LOCALHOST, &syn(), &mut buf);

        assert_eq!(decode_frame(&buf[..3]), Err(FrameError::Truncated));

        let mut bad = buf.clone();
        bad[0] = 0x00;
        assert_eq!(decode_frame(&bad), Err(FrameError::BadMagic(0x00)));

        let mut bad = buf.clone();
        bad[1] = 9;
        assert_eq!(decode_frame(&bad), Err(FrameError::BadVersion(9)));

        // A frame cut inside the segment is a segment error.
        assert!(matches!(
            decode_frame(&buf[..FRAME_HEADER_LEN + 4]),
            Err(FrameError::Segment(SegmentDecodeError::Truncated))
        ));
    }
}
