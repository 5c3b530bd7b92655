//! Property tests: the full-segment wire codec round-trips arbitrary
//! segments — including solution-bearing ACKs and odd option padding —
//! rejects every truncation of the header/options area, and decodes the
//! same over a recycled (dirty) slot as into a fresh one.

use proptest::prelude::*;
use puzzle_core::AlgoId;
use tcpstack::{
    ChallengeOption, SegmentBuilder, SegmentDecodeError, SolutionOption, TcpFlags, TcpOption,
    TcpSegment, TCP_HEADER_LEN,
};

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    prop::sample::select(vec![
        TcpFlags::SYN,
        TcpFlags::SYN | TcpFlags::ACK,
        TcpFlags::ACK,
        TcpFlags::ACK | TcpFlags::PSH,
        TcpFlags::ACK | TcpFlags::FIN,
        TcpFlags::RST,
    ])
}

/// Option sets as the stack actually combines them, deliberately
/// including odd raw lengths (window scale = 3 bytes, challenge = 9+)
/// so the NOP padding path is always on the table.
fn arb_options() -> impl Strategy<Value = Vec<TcpOption>> {
    prop_oneof![
        Just(vec![]),
        Just(vec![TcpOption::Mss(1460), TcpOption::WindowScale(7)]),
        (any::<u32>(), any::<u32>()).prop_map(|(tsval, tsecr)| vec![
            TcpOption::Mss(536),
            TcpOption::Timestamps { tsval, tsecr },
        ]),
        (1u8..4, 1u8..30, prop::collection::vec(any::<u8>(), 4..8)).prop_map(
            |(k, m, preimage)| vec![
                TcpOption::Timestamps { tsval: 9, tsecr: 0 },
                TcpOption::Challenge(ChallengeOption {
                    k,
                    m,
                    preimage,
                    timestamp: None,
                    algo: AlgoId::Prefix,
                }),
            ]
        ),
        // The solution ACK: the wire shape the listener chokepoint
        // batches on.
        (
            1usize..4,
            prop::sample::select(vec![2usize, 4]),
            any::<u8>(),
            prop::option::of(any::<u32>()),
        )
            .prop_map(|(k, l_bytes, seed, ts)| {
                let proofs: Vec<Vec<u8>> = (0..k)
                    .map(|i| vec![seed.wrapping_add(i as u8); l_bytes])
                    .collect();
                vec![
                    TcpOption::Timestamps { tsval: 3, tsecr: 2 },
                    TcpOption::Solution(SolutionOption::build(1460, 7, &proofs, ts)),
                ]
            }),
    ]
}

fn arb_segment() -> impl Strategy<Value = TcpSegment> {
    (
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>()),
        arb_flags(),
        any::<u16>(),
        arb_options(),
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|((src, dst, seq, ack), flags, window, options, payload)| {
            let mut b = SegmentBuilder::new(src, dst)
                .seq(seq)
                .ack_num(ack)
                .flags(flags)
                .window(window)
                .payload(payload);
            for o in options {
                b = b.option(o);
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity, and the encoding is exactly
    /// `wire_len` bytes with a 32-bit-aligned header.
    #[test]
    fn segment_round_trips(seg in arb_segment()) {
        let bytes = seg.encode();
        prop_assert_eq!(bytes.len(), seg.wire_len());
        prop_assert_eq!((TCP_HEADER_LEN + seg.options_len()) % 4, 0);
        let decoded = TcpSegment::decode(&bytes);
        prop_assert_eq!(decoded, Ok(seg));
    }

    /// Every strict prefix of the header + options area is rejected as
    /// truncated — a cut segment never silently parses.
    #[test]
    fn truncated_headers_rejected(seg in arb_segment(), cut in 0.0f64..1.0) {
        let bytes = seg.encode();
        let header_len = TCP_HEADER_LEN + seg.options_len();
        let k = (cut * header_len as f64) as usize; // < header_len
        prop_assert_eq!(
            TcpSegment::decode(&bytes[..k]),
            Err(SegmentDecodeError::Truncated)
        );
    }

    /// The decoder is total on arbitrary bytes: structured error or
    /// parse, never a panic.
    #[test]
    fn decoder_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = TcpSegment::decode(&bytes);
    }

    /// Datagram-sized garbage — the live wire path hands the decoder
    /// whole UDP payloads, so the totality property must hold well past
    /// the header area, and anything that *does* parse must be a fixed
    /// point: re-encoding and re-decoding lands on the same segment
    /// (garbage never round-trips to a *different* segment).
    #[test]
    fn decoder_total_and_canonical_on_datagram_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..2048)
    ) {
        if let Ok(seg) = TcpSegment::decode(&bytes) {
            let reencoded = seg.encode();
            prop_assert_eq!(TcpSegment::decode(&reencoded), Ok(seg));
        }
    }

    /// Fuzz-shaped corpus: valid encodings with byte flips, truncations,
    /// and trailing junk — the mutations real wire corruption produces.
    /// Decode never panics, and a mutated buffer that still parses
    /// re-encodes to a stable segment, never a different one on the
    /// second pass.
    #[test]
    fn mutated_encodings_decode_canonically(
        seg in arb_segment(),
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 0..8),
        cut in prop::option::of(any::<u16>()),
        tail in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut bytes = seg.encode();
        for (pos, mask) in &flips {
            let i = *pos as usize % bytes.len();
            bytes[i] ^= mask;
        }
        if let Some(pos) = cut {
            bytes.truncate(pos as usize % (bytes.len() + 1));
        }
        bytes.extend_from_slice(&tail);
        if let Ok(mutant) = TcpSegment::decode(&bytes) {
            let reencoded = mutant.encode();
            prop_assert_eq!(TcpSegment::decode(&reencoded), Ok(mutant));
        }
    }
}

/// A recycled ingress slot after it has carried every heap-backed shape:
/// a challenge, a solution, unknown options and a long payload (the
/// options need not fit a real header — the slot is only memory).
fn arb_dirty_slot() -> impl Strategy<Value = TcpSegment> {
    (
        arb_segment(),
        prop::collection::vec(any::<u8>(), 0..16),
        prop::collection::vec(any::<u8>(), 64..1460),
    )
        .prop_map(|(mut seg, junk, payload)| {
            seg.options = vec![
                TcpOption::Unknown {
                    kind: 254,
                    data: junk.clone(),
                },
                TcpOption::Challenge(ChallengeOption {
                    k: 2,
                    m: 17,
                    preimage: junk.clone(),
                    timestamp: Some(7),
                    algo: AlgoId::Collide,
                }),
                TcpOption::Solution(SolutionOption::build(
                    536,
                    3,
                    std::slice::from_ref(&junk),
                    Some(5),
                )),
                TcpOption::Unknown {
                    kind: 30,
                    data: junk,
                },
            ];
            seg.payload = payload;
            seg
        })
}

/// `seg`'s encoding with its options area replaced by `area` (NOP-padded
/// to a word; the data offset follows).
fn with_options_area(seg: &TcpSegment, mut area: Vec<u8>) -> Vec<u8> {
    while !area.len().is_multiple_of(4) {
        area.push(1);
    }
    let mut bare = seg.clone();
    bare.options.clear();
    let mut bytes = bare.encode();
    bytes[12] = (((TCP_HEADER_LEN + area.len()) / 4) as u8) << 4;
    bytes.splice(TCP_HEADER_LEN..TCP_HEADER_LEN, area);
    bytes
}

/// Wire bytes of every outcome class: valid, truncated, an impossible
/// data offset, an options area that fails only after earlier options
/// (including byte-carrying ones) decoded, and plain garbage.
fn arb_wire_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_segment().prop_map(|seg| seg.encode()),
        (arb_segment(), any::<u16>()).prop_map(|(seg, cut)| {
            let mut bytes = seg.encode();
            bytes.truncate(cut as usize % (bytes.len() + 1));
            bytes
        }),
        (arb_segment(), 0u8..16).prop_map(|(seg, words)| {
            let mut bytes = seg.encode();
            bytes[12] = words << 4;
            bytes
        }),
        (
            arb_segment(),
            prop::sample::select(vec![
                vec![2u8, 3, 0],                             // MSS, bad length
                vec![0xfc, 6, 1, 4, 12, 0],                  // challenge, l % 8 != 0
                vec![0xfc, 10, 2, 17, 32, 1, 2, 3, 4, 0x7f], // unknown algo byte
                vec![0xfd, 4, 0, 0],                         // solution too short
                vec![8],                                     // header cut
            ]),
        )
            .prop_map(|(seg, bad)| {
                let mut area = Vec::new();
                TcpOption::Timestamps { tsval: 1, tsecr: 2 }.encode_into(&mut area);
                TcpOption::Solution(SolutionOption::build(1460, 7, &[vec![9; 4]], None))
                    .encode_into(&mut area);
                area.extend_from_slice(&bad);
                with_options_area(&seg, area)
            }),
        prop::collection::vec(any::<u8>(), 0..128),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Slot reuse is unobservable: decoding over a dirty slot yields
    /// exactly what a fresh decode yields — the same segment, or the
    /// same error — whatever the slot held before.
    #[test]
    fn decode_into_dirty_slot_matches_decode(
        mut slot in arb_dirty_slot(),
        bytes in arb_wire_bytes(),
    ) {
        let fresh = TcpSegment::decode(&bytes);
        let reused = slot.decode_into(&bytes).map(|()| slot.clone());
        prop_assert_eq!(reused, fresh);
    }
}
