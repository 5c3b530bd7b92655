//! TCP segments: flags, header fields, options, payload — including the
//! full wire codec ([`TcpSegment::encode`] / [`TcpSegment::decode`], and
//! [`TcpSegment::decode_into`] for recycled slots).

use crate::options::{OptionDecodeError, TcpOption};
use netsim::Payload;

/// Fixed TCP header length (no options), in bytes.
pub const TCP_HEADER_LEN: usize = 20;

/// Maximum TCP options area: the 4-bit data-offset field caps the header
/// at 60 bytes, leaving 40 for options. The puzzle option formats were
/// designed to fit this budget (paper §5).
pub const MAX_OPTIONS_LEN: usize = 40;

/// TCP control flags (the subset the handshake model uses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const NONE: TcpFlags = TcpFlags(0);
    /// FIN: sender is done sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: the acknowledgement number is valid.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// Union of two flag sets.
    pub const fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// Does this set contain every flag in `other`?
    pub const fn contains(self, other: TcpFlags) -> bool {
        (self.0 & other.0) == other.0
    }

    /// The raw bit pattern (matches the wire layout's low byte).
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Builds from a raw bit pattern (unknown bits are preserved).
    pub const fn from_bits(bits: u8) -> TcpFlags {
        TcpFlags(bits)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        self.union(rhs)
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (bit, name) in [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
        ] {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A TCP segment as carried through the simulator.
///
/// Header fields are kept parsed for speed; the options list round-trips
/// byte-exactly through [`crate::options`] (property-tested), and
/// [`TcpSegment::wire_len`] accounts for the encoded size including
/// padding, so link-level timing and throughput see real bytes. The
/// default is an empty all-zero segment: a blank slot for
/// [`TcpSegment::decode_into`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number (meaningful when ACK is set).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// TCP options, in wire order.
    pub options: Vec<TcpOption>,
    /// Application payload bytes.
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// Encoded length of the options area including NOP padding to a
    /// 32-bit boundary.
    pub fn options_len(&self) -> usize {
        let raw: usize = self.options.iter().map(TcpOption::encoded_len).sum();
        raw.div_ceil(4) * 4
    }

    /// Total TCP bytes on the wire: header + padded options + payload.
    pub fn wire_len(&self) -> usize {
        TCP_HEADER_LEN + self.options_len() + self.payload.len()
    }

    /// Looks up the first option matching `pred`.
    pub fn find_option<T>(&self, pred: impl Fn(&TcpOption) -> Option<T>) -> Option<T> {
        self.options.iter().find_map(pred)
    }

    /// The MSS option value, if present.
    pub fn mss(&self) -> Option<u16> {
        self.find_option(|o| match o {
            TcpOption::Mss(v) => Some(*v),
            _ => None,
        })
    }

    /// The timestamps option, if present: `(tsval, tsecr)`.
    pub fn timestamps(&self) -> Option<(u32, u32)> {
        self.find_option(|o| match o {
            TcpOption::Timestamps { tsval, tsecr } => Some((*tsval, *tsecr)),
            _ => None,
        })
    }

    /// The challenge option, if present.
    pub fn challenge(&self) -> Option<&crate::options::ChallengeOption> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Challenge(c) => Some(c),
            _ => None,
        })
    }

    /// The solution option, if present.
    pub fn solution(&self) -> Option<&crate::options::SolutionOption> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Solution(s) => Some(s),
            _ => None,
        })
    }

    /// Encodes the segment to its wire bytes: the 20-byte base header
    /// (RFC 793 layout, checksum zero — the simulator never corrupts),
    /// the NOP-padded options area, then the payload. The result's
    /// length equals [`TcpSegment::wire_len`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the wire bytes to `out` without intermediate allocation —
    /// the batched-egress path of the live wire front-end reuses one
    /// scratch buffer across replies. Appends exactly
    /// [`TcpSegment::wire_len`] bytes; `out` is not cleared first.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let raw: usize = self.options.iter().map(TcpOption::encoded_len).sum();
        let options_len = raw.div_ceil(4) * 4;
        debug_assert!(options_len <= MAX_OPTIONS_LEN);
        out.reserve(TCP_HEADER_LEN + options_len + self.payload.len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        let data_offset = ((TCP_HEADER_LEN + options_len) / 4) as u8;
        out.push(data_offset << 4);
        out.push(self.flags.bits());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum (unused in simulation)
        out.extend_from_slice(&[0, 0]); // urgent pointer
        let options_start = out.len();
        for o in &self.options {
            o.encode_into(out);
        }
        while out.len() - options_start < options_len {
            out.push(1); // NOP padding
        }
        out.extend_from_slice(&self.payload);
    }

    /// Decodes a segment produced by [`TcpSegment::encode`] (or a real
    /// stack). Everything after the header is payload. A wrapper over
    /// [`TcpSegment::decode_into`] with a fresh segment.
    ///
    /// # Errors
    ///
    /// Returns [`SegmentDecodeError`] when the buffer is shorter than
    /// the declared header, the data offset is impossible, or the
    /// options area does not parse.
    pub fn decode(bytes: &[u8]) -> Result<TcpSegment, SegmentDecodeError> {
        let mut seg = TcpSegment::default();
        seg.decode_into(bytes)?;
        Ok(seg)
    }

    /// Decodes `bytes` over this segment in place, reusing the capacity
    /// of its `options` and `payload` (and of option byte buffers, see
    /// [`TcpOption::decode_all_into`]): a recycled ingress slot decodes
    /// a steady stream of datagrams without allocating. On success the
    /// segment equals what [`TcpSegment::decode`] returns; on error its
    /// contents are unspecified (but valid).
    ///
    /// # Errors
    ///
    /// As [`TcpSegment::decode`].
    pub fn decode_into(&mut self, bytes: &[u8]) -> Result<(), SegmentDecodeError> {
        if bytes.len() < TCP_HEADER_LEN {
            return Err(SegmentDecodeError::Truncated);
        }
        let header_len = ((bytes[12] >> 4) as usize) * 4;
        if !(TCP_HEADER_LEN..=TCP_HEADER_LEN + MAX_OPTIONS_LEN).contains(&header_len) {
            return Err(SegmentDecodeError::BadDataOffset {
                offset_words: bytes[12] >> 4,
            });
        }
        if bytes.len() < header_len {
            return Err(SegmentDecodeError::Truncated);
        }
        TcpOption::decode_all_into(&bytes[TCP_HEADER_LEN..header_len], &mut self.options)
            .map_err(SegmentDecodeError::Options)?;
        self.src_port = u16::from_be_bytes([bytes[0], bytes[1]]);
        self.dst_port = u16::from_be_bytes([bytes[2], bytes[3]]);
        self.seq = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        self.ack = u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        self.flags = TcpFlags::from_bits(bytes[13]);
        self.window = u16::from_be_bytes([bytes[14], bytes[15]]);
        self.payload.clear();
        self.payload.extend_from_slice(&bytes[header_len..]);
        Ok(())
    }
}

/// Error decoding a TCP segment from wire bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentDecodeError {
    /// The buffer ends before the declared header does.
    Truncated,
    /// The data-offset field is below the minimum header or above the
    /// 60-byte maximum.
    BadDataOffset {
        /// The offending offset, in 32-bit words.
        offset_words: u8,
    },
    /// The options area failed to parse.
    Options(OptionDecodeError),
}

impl std::fmt::Display for SegmentDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentDecodeError::Truncated => write!(f, "segment truncated"),
            SegmentDecodeError::BadDataOffset { offset_words } => {
                write!(f, "impossible data offset {offset_words} words")
            }
            SegmentDecodeError::Options(e) => write!(f, "bad options: {e}"),
        }
    }
}

impl std::error::Error for SegmentDecodeError {}

impl Payload for TcpSegment {
    fn wire_len(&self) -> usize {
        TcpSegment::wire_len(self)
    }
}

/// Fluent constructor for segments.
///
/// # Example
///
/// ```
/// use tcpstack::{SegmentBuilder, TcpFlags};
///
/// let syn = SegmentBuilder::new(40000, 80)
///     .seq(1000)
///     .flags(TcpFlags::SYN)
///     .mss(1460)
///     .build();
/// assert!(syn.flags.contains(TcpFlags::SYN));
/// assert_eq!(syn.wire_len(), 20 + 4); // header + MSS option
/// ```
#[derive(Clone, Debug)]
pub struct SegmentBuilder {
    seg: TcpSegment,
}

impl SegmentBuilder {
    /// Starts a segment from `src_port` to `dst_port`.
    pub fn new(src_port: u16, dst_port: u16) -> Self {
        SegmentBuilder {
            seg: TcpSegment {
                src_port,
                dst_port,
                seq: 0,
                ack: 0,
                flags: TcpFlags::NONE,
                window: 65535,
                options: Vec::new(),
                payload: Vec::new(),
            },
        }
    }

    /// Sets the sequence number.
    pub fn seq(mut self, seq: u32) -> Self {
        self.seg.seq = seq;
        self
    }

    /// Sets the acknowledgement number (does not set the ACK flag).
    pub fn ack_num(mut self, ack: u32) -> Self {
        self.seg.ack = ack;
        self
    }

    /// Sets the control flags.
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.seg.flags = flags;
        self
    }

    /// Sets the advertised window.
    pub fn window(mut self, window: u16) -> Self {
        self.seg.window = window;
        self
    }

    /// Appends an arbitrary option.
    pub fn option(mut self, option: TcpOption) -> Self {
        self.seg.options.push(option);
        self
    }

    /// Appends an MSS option.
    pub fn mss(self, mss: u16) -> Self {
        self.option(TcpOption::Mss(mss))
    }

    /// Appends a window-scale option.
    pub fn window_scale(self, shift: u8) -> Self {
        self.option(TcpOption::WindowScale(shift))
    }

    /// Appends a timestamps option.
    pub fn timestamps(self, tsval: u32, tsecr: u32) -> Self {
        self.option(TcpOption::Timestamps { tsval, tsecr })
    }

    /// Sets the payload.
    pub fn payload(mut self, payload: Vec<u8>) -> Self {
        self.seg.payload = payload;
        self
    }

    /// Finishes the segment.
    ///
    /// # Panics
    ///
    /// Panics if the encoded options exceed [`MAX_OPTIONS_LEN`] — the
    /// segment could not exist on a real wire, so building it is a bug.
    pub fn build(self) -> TcpSegment {
        assert!(
            self.seg.options_len() <= MAX_OPTIONS_LEN,
            "options occupy {} bytes > TCP max {}",
            self.seg.options_len(),
            MAX_OPTIONS_LEN
        );
        self.seg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ChallengeOption;
    use puzzle_core::AlgoId;

    #[test]
    fn flags_algebra() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::RST));
        assert_eq!(f.bits(), 0x12);
        assert_eq!(TcpFlags::from_bits(0x12), f);
        assert_eq!(f.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::NONE.to_string(), "-");
    }

    #[test]
    fn wire_len_counts_padded_options_and_payload() {
        let seg = SegmentBuilder::new(1, 2)
            .flags(TcpFlags::SYN)
            .mss(1460) // 4 bytes
            .window_scale(7) // 3 bytes -> 7 raw -> 8 padded
            .payload(vec![0; 10])
            .build();
        assert_eq!(seg.options_len(), 8);
        assert_eq!(seg.wire_len(), 20 + 8 + 10);
        assert_eq!(Payload::wire_len(&seg), 38);
    }

    #[test]
    fn builder_roundtrip_accessors() {
        let seg = SegmentBuilder::new(5, 6)
            .seq(100)
            .ack_num(200)
            .flags(TcpFlags::ACK)
            .window(1024)
            .mss(536)
            .timestamps(9, 8)
            .build();
        assert_eq!(seg.mss(), Some(536));
        assert_eq!(seg.timestamps(), Some((9, 8)));
        assert_eq!(seg.window, 1024);
        assert!(seg.challenge().is_none());
        assert!(seg.solution().is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let seg = SegmentBuilder::new(40000, 80)
            .seq(0xdead_beef)
            .ack_num(0x0102_0304)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .window(8192)
            .mss(1460)
            .window_scale(7)
            .timestamps(55, 1)
            .payload(b"hello".to_vec())
            .build();
        let bytes = seg.encode();
        assert_eq!(bytes.len(), seg.wire_len());
        assert_eq!(TcpSegment::decode(&bytes), Ok(seg));
    }

    #[test]
    fn decode_rejects_truncation_and_bad_offset() {
        let seg = SegmentBuilder::new(1, 2)
            .flags(TcpFlags::SYN)
            .mss(1460)
            .build();
        let bytes = seg.encode();
        // Any cut inside the header/options area is an error.
        for k in 0..bytes.len() {
            assert_eq!(
                TcpSegment::decode(&bytes[..k]),
                Err(SegmentDecodeError::Truncated)
            );
        }
        // Data offset below 5 words or above 15... (15 is the wire max
        // and equals 60 bytes, which is allowed; below-minimum rejected.)
        let mut bad = bytes.clone();
        bad[12] = 4 << 4;
        assert_eq!(
            TcpSegment::decode(&bad),
            Err(SegmentDecodeError::BadDataOffset { offset_words: 4 })
        );
    }

    #[test]
    fn decode_surfaces_option_errors() {
        let seg = SegmentBuilder::new(1, 2)
            .flags(TcpFlags::ACK)
            .mss(9)
            .build();
        let mut bytes = seg.encode();
        bytes[TCP_HEADER_LEN + 1] = 3; // MSS with impossible length
        assert!(matches!(
            TcpSegment::decode(&bytes),
            Err(SegmentDecodeError::Options(_))
        ));
    }

    #[test]
    #[should_panic(expected = "options occupy")]
    fn oversized_options_rejected() {
        // A challenge with a 31-byte pre-image plus timestamps blows the
        // 40-byte budget.
        let big = ChallengeOption {
            k: 2,
            m: 17,
            preimage: vec![0; 31],
            timestamp: Some(1),
            algo: AlgoId::Prefix,
        };
        SegmentBuilder::new(1, 2)
            .option(TcpOption::Challenge(big))
            .timestamps(1, 2)
            .build();
    }
}
