//! TCP option wire formats, including the paper's challenge (`0xfc`) and
//! solution (`0xfd`) blocks (Figures 4 and 5).
//!
//! Encoding follows RFC 793 TLV rules: kind byte, length byte covering the
//! whole block, value. The challenge block is fully self-describing
//! (`k`, `m`, `l`, pre-image, optional embedded timestamp). The solution
//! block, exactly as in the paper, is *not* self-describing — it carries
//! the re-sent MSS and window-scale plus an opaque run of `k` solutions
//! (and optionally an embedded timestamp) that only the server, which
//! knows its current `(k, l)` configuration, can split; see
//! [`SolutionOption::split`] / [`SolutionOption::split_into`].

use std::error::Error;
use std::fmt;

use puzzle_core::{AlgoId, Solution};

/// Option kind for a puzzle challenge (unassigned opcode used by the
/// paper, Figure 4).
pub const KIND_CHALLENGE: u8 = 0xfc;
/// Option kind for a puzzle solution (unassigned opcode, Figure 5).
pub const KIND_SOLUTION: u8 = 0xfd;

/// A decoded TCP option.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TcpOption {
    /// Maximum segment size (kind 2).
    Mss(u16),
    /// Window scale shift (kind 3).
    WindowScale(u8),
    /// SACK permitted (kind 4).
    SackPermitted,
    /// Timestamps (kind 8): value and echo reply.
    Timestamps {
        /// Sender's timestamp clock value.
        tsval: u32,
        /// Echo of the peer's most recent `tsval`.
        tsecr: u32,
    },
    /// Puzzle challenge (kind `0xfc`, paper Figure 4).
    Challenge(ChallengeOption),
    /// Puzzle solution (kind `0xfd`, paper Figure 5).
    Solution(SolutionOption),
    /// Any other option, preserved verbatim for round-tripping.
    Unknown {
        /// Option kind byte.
        kind: u8,
        /// Value bytes (excluding kind and length).
        data: Vec<u8>,
    },
}

/// The challenge block (Figure 4): difficulty `(k, m)`, pre-image length
/// `l` (bits), the pre-image itself, and — when the connection does not
/// negotiate the timestamps option — the embedded issue timestamp (§5).
///
/// Beyond the paper, a challenge can pose a non-default puzzle
/// algorithm: a one-byte [`AlgoId`] travels at the very end of the
/// block, emitted **only** when the algorithm is not [`AlgoId::Prefix`].
/// Default-algorithm challenges therefore encode to the exact Figure 4
/// bytes they always did (goldens unchanged), and old decoders reading
/// a tagged block fail its length check instead of mis-verifying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChallengeOption {
    /// Number of sub-solutions requested.
    pub k: u8,
    /// Difficulty bits per sub-solution.
    pub m: u8,
    /// The `l`-bit pre-image as whole bytes (`l = 8 × preimage.len()`).
    pub preimage: Vec<u8>,
    /// Embedded issue timestamp; `None` when the TCP timestamps option
    /// carries it instead.
    pub timestamp: Option<u32>,
    /// The puzzle algorithm posed (wire byte omitted for the default).
    pub algo: AlgoId,
}

impl ChallengeOption {
    /// Pre-image length in bits (the wire `l` field).
    pub fn l_bits(&self) -> u8 {
        (self.preimage.len() * 8) as u8
    }

    fn value_len(&self) -> usize {
        3 + self.preimage.len()
            + if self.timestamp.is_some() { 4 } else { 0 }
            + if self.algo == AlgoId::Prefix { 0 } else { 1 }
    }
}

/// The solution block (Figure 5): the client re-sends its MSS and window
/// scale (the stateless server ignored the SYN's options), then the `k`
/// solutions, then optionally the embedded timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolutionOption {
    /// Re-sent maximum segment size (16 bits, vs. 3 bits under SYN
    /// cookies — one of the paper's arguments for the self-contained
    /// block, §5).
    pub mss: u16,
    /// Re-sent window scale shift.
    pub wscale: u8,
    /// Opaque solutions area: `k` solutions of `l/8` bytes each, plus an
    /// optional trailing embedded timestamp. Split with
    /// [`SolutionOption::split`].
    pub data: Vec<u8>,
}

impl SolutionOption {
    /// Builds the block from structured parts.
    pub fn build(mss: u16, wscale: u8, proofs: &[Vec<u8>], timestamp: Option<u32>) -> Self {
        let mut data = Vec::with_capacity(proofs.iter().map(Vec::len).sum::<usize>() + 4);
        for p in proofs {
            data.extend_from_slice(p);
        }
        if let Some(ts) = timestamp {
            data.extend_from_slice(&ts.to_be_bytes());
        }
        SolutionOption { mss, wscale, data }
    }

    /// Splits the opaque area into `k` solutions of `algo.proof_len(l/8)`
    /// bytes each and the embedded timestamp (present iff `embedded_ts`),
    /// using the server's current configuration — mirroring how the
    /// kernel patch interprets the block. The per-algo proof length is
    /// what rejects cross-algo solutions at the wire: a prefix-puzzle
    /// block presented to a collide-configured server splits to the
    /// wrong total length and errors here, before any verification.
    /// A wrapper over [`SolutionOption::split_into`] with a fresh
    /// [`Solution`].
    ///
    /// # Errors
    ///
    /// Returns [`OptionDecodeError::BadLength`] if the area does not match
    /// `k·proof_len (+4)` exactly.
    pub fn split(
        &self,
        k: u8,
        l_bits: u16,
        algo: AlgoId,
        embedded_ts: bool,
    ) -> Result<(Vec<Vec<u8>>, Option<u32>), OptionDecodeError> {
        let mut solution = Solution::new(Vec::with_capacity(k as usize));
        let ts = self.split_into(k, l_bits, algo, embedded_ts, &mut solution)?;
        Ok((solution.into_proofs(), ts))
    }

    /// [`SolutionOption::split`] into `solution` in place
    /// ([`Solution::refill`]), returning the embedded timestamp: the
    /// server's verification staging re-splits into recycled request
    /// slots. On error `solution` is left untouched.
    ///
    /// # Errors
    ///
    /// As [`SolutionOption::split`].
    pub fn split_into(
        &self,
        k: u8,
        l_bits: u16,
        algo: AlgoId,
        embedded_ts: bool,
        solution: &mut Solution,
    ) -> Result<Option<u32>, OptionDecodeError> {
        let sol_len = algo.proof_len(l_bits as usize / 8);
        let expect = k as usize * sol_len + if embedded_ts { 4 } else { 0 };
        if !l_bits.is_multiple_of(8) || self.data.len() != expect {
            return Err(OptionDecodeError::BadLength {
                kind: KIND_SOLUTION,
                len: self.data.len(),
            });
        }
        solution.refill((0..k as usize).map(|i| &self.data[i * sol_len..(i + 1) * sol_len]));
        Ok(embedded_ts.then(|| {
            let t = &self.data[self.data.len() - 4..];
            u32::from_be_bytes([t[0], t[1], t[2], t[3]])
        }))
    }

    fn value_len(&self) -> usize {
        3 + self.data.len()
    }
}

/// Error decoding a TCP options area.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptionDecodeError {
    /// An option header ran past the end of the buffer.
    Truncated,
    /// An option's declared length is inconsistent with its kind.
    BadLength {
        /// Offending option kind.
        kind: u8,
        /// Declared or observed length.
        len: usize,
    },
}

impl fmt::Display for OptionDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionDecodeError::Truncated => write!(f, "options area truncated"),
            OptionDecodeError::BadLength { kind, len } => {
                write!(f, "option kind {kind:#04x} has invalid length {len}")
            }
        }
    }
}

impl Error for OptionDecodeError {}

impl TcpOption {
    /// Encoded length of this option in bytes (kind + length + value; no
    /// padding).
    pub fn encoded_len(&self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps { .. } => 10,
            TcpOption::Challenge(c) => 2 + c.value_len(),
            TcpOption::Solution(s) => 2 + s.value_len(),
            TcpOption::Unknown { data, .. } => 2 + data.len(),
        }
    }

    /// Appends this option's wire bytes to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            TcpOption::Mss(mss) => {
                out.extend_from_slice(&[2, 4]);
                out.extend_from_slice(&mss.to_be_bytes());
            }
            TcpOption::WindowScale(shift) => {
                out.extend_from_slice(&[3, 3, *shift]);
            }
            TcpOption::SackPermitted => {
                out.extend_from_slice(&[4, 2]);
            }
            TcpOption::Timestamps { tsval, tsecr } => {
                out.extend_from_slice(&[8, 10]);
                out.extend_from_slice(&tsval.to_be_bytes());
                out.extend_from_slice(&tsecr.to_be_bytes());
            }
            TcpOption::Challenge(c) => {
                out.extend_from_slice(&[KIND_CHALLENGE, self.encoded_len() as u8]);
                out.extend_from_slice(&[c.k, c.m, c.l_bits()]);
                out.extend_from_slice(&c.preimage);
                if let Some(ts) = c.timestamp {
                    out.extend_from_slice(&ts.to_be_bytes());
                }
                if c.algo != AlgoId::Prefix {
                    out.push(c.algo.wire_id());
                }
            }
            TcpOption::Solution(s) => {
                out.extend_from_slice(&[KIND_SOLUTION, self.encoded_len() as u8]);
                out.extend_from_slice(&s.mss.to_be_bytes());
                out.push(s.wscale);
                out.extend_from_slice(&s.data);
            }
            TcpOption::Unknown { kind, data } => {
                out.extend_from_slice(&[*kind, (2 + data.len()) as u8]);
                out.extend_from_slice(data);
            }
        }
    }

    /// Encodes a full options area: every option in order, NOP-padded to a
    /// 32-bit boundary (§5: "each option block must be 32 bits aligned" —
    /// we pad the area as Linux does).
    pub fn encode_all(options: &[TcpOption]) -> Vec<u8> {
        let raw: usize = options.iter().map(TcpOption::encoded_len).sum();
        let padded = raw.div_ceil(4) * 4;
        let mut out = Vec::with_capacity(padded);
        for o in options {
            o.encode_into(&mut out);
        }
        while out.len() < padded {
            out.push(1); // NOP
        }
        out
    }

    /// Decodes an options area produced by [`TcpOption::encode_all`] (or a
    /// real TCP stack). NOPs are skipped; EOL stops parsing; unknown kinds
    /// are preserved as [`TcpOption::Unknown`]. A wrapper over
    /// [`TcpOption::decode_all_into`] with a fresh list.
    ///
    /// # Errors
    ///
    /// Returns [`OptionDecodeError`] on truncation or impossible lengths.
    pub fn decode_all(bytes: &[u8]) -> Result<Vec<TcpOption>, OptionDecodeError> {
        let mut out = Vec::new();
        Self::decode_all_into(bytes, &mut out)?;
        Ok(out)
    }

    /// Decodes an options area over `out`, reusing its storage: the list
    /// keeps its capacity, and an option decoded into a slot that held a
    /// challenge, solution or unknown option refills that option's byte
    /// buffer instead of allocating one. On success `out` holds exactly
    /// the decoded options; on error its contents are unspecified (but
    /// valid), so a recycled slot never needs clearing first.
    ///
    /// # Errors
    ///
    /// Returns [`OptionDecodeError`] on truncation or impossible lengths.
    pub fn decode_all_into(
        mut bytes: &[u8],
        out: &mut Vec<TcpOption>,
    ) -> Result<(), OptionDecodeError> {
        let mut n = 0;
        while let Some((&kind, rest)) = bytes.split_first() {
            match kind {
                0 => break,        // EOL
                1 => bytes = rest, // NOP
                _ => {
                    let Some((&len, _)) = rest.split_first() else {
                        return Err(OptionDecodeError::Truncated);
                    };
                    let len = len as usize;
                    if len < 2 || len > bytes.len() {
                        return Err(OptionDecodeError::Truncated);
                    }
                    let buf = out
                        .get_mut(n)
                        .map(TcpOption::take_bytes)
                        .unwrap_or_default();
                    let option = Self::decode_one(kind, &bytes[2..len], buf)?;
                    match out.get_mut(n) {
                        Some(slot) => *slot = option,
                        None => out.push(option),
                    }
                    n += 1;
                    bytes = &bytes[len..];
                }
            }
        }
        out.truncate(n);
        Ok(())
    }

    /// Moves this option's byte buffer out (empty for the fixed-size
    /// kinds), so a re-decode can refill it.
    fn take_bytes(&mut self) -> Vec<u8> {
        match self {
            TcpOption::Challenge(c) => std::mem::take(&mut c.preimage),
            TcpOption::Solution(s) => std::mem::take(&mut s.data),
            TcpOption::Unknown { data, .. } => std::mem::take(data),
            _ => Vec::new(),
        }
    }

    /// Decodes one option's value; a byte-carrying kind stores its bytes
    /// in `buf` (overwritten).
    fn decode_one(
        kind: u8,
        value: &[u8],
        mut buf: Vec<u8>,
    ) -> Result<TcpOption, OptionDecodeError> {
        let bad = |len: usize| OptionDecodeError::BadLength { kind, len };
        let mut fill = |bytes: &[u8]| {
            buf.clear();
            buf.extend_from_slice(bytes);
            std::mem::take(&mut buf)
        };
        Ok(match kind {
            2 => {
                if value.len() != 2 {
                    return Err(bad(value.len() + 2));
                }
                TcpOption::Mss(u16::from_be_bytes([value[0], value[1]]))
            }
            3 => {
                if value.len() != 1 {
                    return Err(bad(value.len() + 2));
                }
                TcpOption::WindowScale(value[0])
            }
            4 => {
                if !value.is_empty() {
                    return Err(bad(value.len() + 2));
                }
                TcpOption::SackPermitted
            }
            8 => {
                if value.len() != 8 {
                    return Err(bad(value.len() + 2));
                }
                TcpOption::Timestamps {
                    tsval: u32::from_be_bytes([value[0], value[1], value[2], value[3]]),
                    tsecr: u32::from_be_bytes([value[4], value[5], value[6], value[7]]),
                }
            }
            KIND_CHALLENGE => {
                if value.len() < 3 {
                    return Err(bad(value.len() + 2));
                }
                let (k, m, l_bits) = (value[0], value[1], value[2]);
                if l_bits % 8 != 0 {
                    return Err(bad(l_bits as usize));
                }
                let pre_len = l_bits as usize / 8;
                let rest = &value[3..];
                // Trailer layout after the pre-image: nothing, a 1-byte
                // algo id, a 4-byte timestamp, or timestamp + algo id.
                // The lengths are pairwise distinct, so the block stays
                // self-describing; an *unknown* algo byte is a decode
                // error, not a guess.
                let (timestamp, algo) = match rest.len().checked_sub(pre_len) {
                    Some(0) => (None, AlgoId::Prefix),
                    Some(1) => {
                        let algo =
                            AlgoId::from_wire(rest[pre_len]).ok_or_else(|| bad(value.len() + 2))?;
                        (None, algo)
                    }
                    Some(4) => {
                        let t = &rest[pre_len..];
                        (
                            Some(u32::from_be_bytes([t[0], t[1], t[2], t[3]])),
                            AlgoId::Prefix,
                        )
                    }
                    Some(5) => {
                        let t = &rest[pre_len..pre_len + 4];
                        let algo = AlgoId::from_wire(rest[pre_len + 4])
                            .ok_or_else(|| bad(value.len() + 2))?;
                        (Some(u32::from_be_bytes([t[0], t[1], t[2], t[3]])), algo)
                    }
                    _ => return Err(bad(value.len() + 2)),
                };
                TcpOption::Challenge(ChallengeOption {
                    k,
                    m,
                    preimage: fill(&rest[..pre_len]),
                    timestamp,
                    algo,
                })
            }
            KIND_SOLUTION => {
                if value.len() < 3 {
                    return Err(bad(value.len() + 2));
                }
                TcpOption::Solution(SolutionOption {
                    mss: u16::from_be_bytes([value[0], value[1]]),
                    wscale: value[2],
                    data: fill(&value[3..]),
                })
            }
            _ => TcpOption::Unknown {
                kind,
                data: fill(value),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(options: Vec<TcpOption>) {
        let bytes = TcpOption::encode_all(&options);
        assert_eq!(bytes.len() % 4, 0, "area must be 32-bit aligned");
        let decoded = TcpOption::decode_all(&bytes).unwrap();
        assert_eq!(decoded, options);
    }

    #[test]
    fn standard_options_round_trip() {
        round_trip(vec![
            TcpOption::Mss(1460),
            TcpOption::WindowScale(7),
            TcpOption::SackPermitted,
            TcpOption::Timestamps {
                tsval: 0xdead_beef,
                tsecr: 0x0102_0304,
            },
        ]);
    }

    #[test]
    fn challenge_round_trip_with_and_without_embedded_ts() {
        round_trip(vec![TcpOption::Challenge(ChallengeOption {
            k: 2,
            m: 17,
            preimage: vec![1, 2, 3, 4],
            timestamp: None,
            algo: AlgoId::Prefix,
        })]);
        round_trip(vec![TcpOption::Challenge(ChallengeOption {
            k: 1,
            m: 8,
            preimage: vec![9; 8],
            timestamp: Some(12345),
            algo: AlgoId::Prefix,
        })]);
    }

    #[test]
    fn solution_round_trip() {
        let sol = SolutionOption::build(1460, 7, &[vec![1; 4], vec![2; 4]], Some(77));
        round_trip(vec![TcpOption::Solution(sol)]);
    }

    #[test]
    fn solution_split_recovers_parts() {
        let proofs = vec![vec![0xaa; 4], vec![0xbb; 4], vec![0xcc; 4]];
        let sol = SolutionOption::build(1200, 3, &proofs, Some(42));
        let (got, ts) = sol.split(3, 32, AlgoId::Prefix, true).unwrap();
        assert_eq!(got, proofs);
        assert_eq!(ts, Some(42));

        let sol2 = SolutionOption::build(1200, 3, &proofs, None);
        let (got2, ts2) = sol2.split(3, 32, AlgoId::Prefix, false).unwrap();
        assert_eq!(got2, proofs);
        assert_eq!(ts2, None);
    }

    #[test]
    fn solution_split_rejects_mismatched_config() {
        let sol = SolutionOption::build(1460, 0, &[vec![1; 4]], None);
        assert!(sol.split(2, 32, AlgoId::Prefix, false).is_err()); // wrong k
        assert!(sol.split(1, 64, AlgoId::Prefix, false).is_err()); // wrong l
        assert!(sol.split(1, 32, AlgoId::Prefix, true).is_err()); // ts expected but absent
        assert!(sol.split(1, 12, AlgoId::Prefix, false).is_err()); // l not a byte multiple
    }

    #[test]
    fn paper_figure_4_layout() {
        // Figure 4: opcode, length, k, m | l, preimage..., NOP padding.
        let c = TcpOption::Challenge(ChallengeOption {
            k: 2,
            m: 17,
            preimage: vec![0xde, 0xad, 0xbe, 0xef],
            timestamp: None,
            algo: AlgoId::Prefix,
        });
        let bytes = TcpOption::encode_all(std::slice::from_ref(&c));
        assert_eq!(bytes[0], 0xfc);
        assert_eq!(bytes[1], 9); // 2 header + k + m + l + 4 preimage
        assert_eq!(bytes[2], 2); // k
        assert_eq!(bytes[3], 17); // m
        assert_eq!(bytes[4], 32); // l bits
        assert_eq!(&bytes[5..9], &[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(bytes[9..], [1, 1, 1]); // NOP padding to 12
    }

    #[test]
    fn paper_figure_5_layout() {
        // Figure 5: opcode, length, MSS(2) | wscale, solutions..., padding.
        let s = TcpOption::Solution(SolutionOption::build(
            1460,
            7,
            &[vec![0x11; 4], vec![0x22; 4]],
            None,
        ));
        let bytes = TcpOption::encode_all(std::slice::from_ref(&s));
        assert_eq!(bytes[0], 0xfd);
        assert_eq!(bytes[1], 13); // 2 + mss 2 + wscale 1 + 8 solutions
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]), 1460);
        assert_eq!(bytes[4], 7);
        assert_eq!(&bytes[5..9], &[0x11; 4]);
        assert_eq!(&bytes[9..13], &[0x22; 4]);
    }

    #[test]
    fn unknown_options_preserved() {
        round_trip(vec![TcpOption::Unknown {
            kind: 254,
            data: vec![1, 2, 3],
        }]);
    }

    #[test]
    fn eol_stops_parsing() {
        let mut bytes = TcpOption::encode_all(&[TcpOption::SackPermitted]);
        bytes.push(0); // EOL
        bytes.push(99); // garbage after EOL must be ignored
        let decoded = TcpOption::decode_all(&bytes).unwrap();
        assert_eq!(decoded, vec![TcpOption::SackPermitted]);
    }

    #[test]
    fn truncation_detected() {
        assert_eq!(
            TcpOption::decode_all(&[2]),
            Err(OptionDecodeError::Truncated)
        );
        assert_eq!(
            TcpOption::decode_all(&[2, 4, 5]),
            Err(OptionDecodeError::Truncated)
        );
        assert_eq!(
            TcpOption::decode_all(&[8, 1]),
            Err(OptionDecodeError::Truncated)
        );
    }

    #[test]
    fn bad_lengths_detected() {
        // MSS with wrong length.
        assert!(matches!(
            TcpOption::decode_all(&[2, 3, 5, 0]),
            Err(OptionDecodeError::BadLength { kind: 2, .. })
        ));
        // Challenge with l not a multiple of 8.
        assert!(matches!(
            TcpOption::decode_all(&[0xfc, 6, 1, 4, 12, 0]),
            Err(OptionDecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn nash_difficulty_fits_option_budget() {
        // The paper's Nash parameters (k=2, m=17, l=32) plus standard SYN
        // options must fit the 40-byte TCP option budget.
        let challenge_area = TcpOption::encode_all(&[
            TcpOption::Mss(1460),
            TcpOption::Timestamps { tsval: 1, tsecr: 0 },
            TcpOption::Challenge(ChallengeOption {
                k: 2,
                m: 17,
                preimage: vec![0; 4],
                timestamp: None,
                algo: AlgoId::Prefix,
            }),
        ]);
        assert!(challenge_area.len() <= 40, "{} > 40", challenge_area.len());

        let solution_area = TcpOption::encode_all(&[
            TcpOption::Timestamps { tsval: 2, tsecr: 1 },
            TcpOption::Solution(SolutionOption::build(
                1460,
                7,
                &[vec![0; 4], vec![0; 4]],
                None,
            )),
        ]);
        assert!(solution_area.len() <= 40, "{} > 40", solution_area.len());
    }

    #[test]
    fn algo_tagged_challenge_round_trips_with_and_without_ts() {
        round_trip(vec![TcpOption::Challenge(ChallengeOption {
            k: 2,
            m: 30,
            preimage: vec![5, 6, 7, 8],
            timestamp: None,
            algo: AlgoId::Collide,
        })]);
        round_trip(vec![TcpOption::Challenge(ChallengeOption {
            k: 3,
            m: 24,
            preimage: vec![0xee; 4],
            timestamp: Some(0xfeed_beef),
            algo: AlgoId::Collide,
        })]);
    }

    #[test]
    fn default_algo_encoding_is_byte_identical_to_figure_4() {
        // A Prefix challenge must not grow an algo byte: the encoded area
        // is exactly what a pre-seam encoder produced.
        let mk = |algo| {
            TcpOption::encode_all(&[TcpOption::Challenge(ChallengeOption {
                k: 2,
                m: 17,
                preimage: vec![0xde, 0xad, 0xbe, 0xef],
                timestamp: Some(4242),
                algo,
            })])
        };
        let prefix = mk(AlgoId::Prefix);
        let collide = mk(AlgoId::Collide);
        assert_eq!(prefix[1], 13); // 2 header + k + m + l + 4 preimage + 4 ts
        assert_eq!(collide[1], 14); // one extra trailing algo byte
        assert_eq!(prefix[0], collide[0]); // same option kind…
        assert_eq!(&prefix[2..13], &collide[2..13]); // …same payload up to the tag
        assert_eq!(collide[collide[1] as usize - 1], AlgoId::Collide.wire_id());
    }

    #[test]
    fn unknown_algo_byte_rejected() {
        // k, m, l=32, 4-byte preimage, then a trailer byte that is not a
        // known AlgoId: decode must fail, not guess.
        let block = [0xfc, 10, 2, 17, 32, 1, 2, 3, 4, 0x7f];
        assert!(matches!(
            TcpOption::decode_all(&block),
            Err(OptionDecodeError::BadLength { kind: 0xfc, .. })
        ));
        // Same with an embedded timestamp before the bogus algo byte.
        let block_ts = [0xfc, 14, 2, 17, 32, 1, 2, 3, 4, 0, 0, 0, 9, 0x7f, 1, 1];
        assert!(matches!(
            TcpOption::decode_all(&block_ts),
            Err(OptionDecodeError::BadLength { kind: 0xfc, .. })
        ));
    }

    #[test]
    fn collide_solution_split_uses_doubled_proof_len() {
        // Collide proofs are nonce pairs: 2 × (l/8) bytes each.
        let proofs = vec![vec![0xaa; 8], vec![0xbb; 8]];
        let sol = SolutionOption::build(1460, 7, &proofs, None);
        let (got, ts) = sol.split(2, 32, AlgoId::Collide, false).unwrap();
        assert_eq!(got, proofs);
        assert_eq!(ts, None);
        // The same block read under the wrong algorithm fails the split:
        // cross-algo rejection happens at the wire, before verification.
        assert!(sol.split(2, 32, AlgoId::Prefix, false).is_err());
        let prefix_sol = SolutionOption::build(1460, 7, &[vec![1; 4], vec![2; 4]], None);
        assert!(prefix_sol.split(2, 32, AlgoId::Collide, false).is_err());
    }

    #[test]
    fn collide_challenge_fits_option_budget() {
        // The collide registry entry (k=2, m=30, l=32) must also fit the
        // 40-byte budget: one extra algo byte on the challenge, and
        // 2 × 2 × 4 = 16 proof bytes on the solution.
        let challenge_area = TcpOption::encode_all(&[
            TcpOption::Mss(1460),
            TcpOption::Timestamps { tsval: 1, tsecr: 0 },
            TcpOption::Challenge(ChallengeOption {
                k: 2,
                m: 30,
                preimage: vec![0; 4],
                timestamp: None,
                algo: AlgoId::Collide,
            }),
        ]);
        assert!(challenge_area.len() <= 40, "{} > 40", challenge_area.len());

        let solution_area = TcpOption::encode_all(&[
            TcpOption::Timestamps { tsval: 2, tsecr: 1 },
            TcpOption::Solution(SolutionOption::build(
                1460,
                7,
                &[vec![0; 8], vec![0; 8]],
                None,
            )),
        ]);
        assert!(solution_area.len() <= 40, "{} > 40", solution_area.len());
    }
}
