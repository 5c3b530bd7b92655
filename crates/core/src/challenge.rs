//! Challenge construction (paper Figure 2) and solution containers.

use crate::difficulty::Difficulty;
use crate::error::IssueError;
use crate::tuple::ConnectionTuple;
use crate::verify::ServerSecret;
use puzzle_crypto::{HashBackend, MessageArena, ScalarBackend};

/// Maximum pre-image length in bits (the wire format encodes `l` in one
/// byte and the pre-image is truncated SHA-256 output, so at most 248 bits
/// = 31 whole bytes).
pub const MAX_PREIMAGE_BITS: u16 = 248;

/// The parameters of a challenge that travel in the clear (TCP option
/// fields, paper Figure 4): difficulty `(k, m)`, pre-image length `l` in
/// bits, and the issuing timestamp `T`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChallengeParams {
    /// Difficulty `(k, m)`.
    pub difficulty: Difficulty,
    /// Pre-image (and per-solution) length in bits; a multiple of 8.
    pub preimage_bits: u8,
    /// Server timestamp at issue time (seconds in the server's clock).
    pub timestamp: u32,
}

impl ChallengeParams {
    /// Pre-image length in whole bytes.
    pub fn preimage_len(&self) -> usize {
        self.preimage_bits as usize / 8
    }
}

/// A puzzle challenge: clear parameters plus the `l`-bit pre-image `P`
/// derived as the truncation of `y = h(secret ‖ T ‖ packet-data)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Challenge {
    params: ChallengeParams,
    preimage: Vec<u8>,
}

impl Challenge {
    /// Issues a challenge for `tuple` at time `timestamp`.
    ///
    /// Costs exactly one hash operation (g(p) = 1, paper §4) and stores no
    /// state: the server can recompute the same pre-image from the echoed
    /// fields at verification time.
    ///
    /// # Errors
    ///
    /// * [`IssueError::BadPreimageLength`] if `preimage_bits` is zero, not
    ///   a multiple of 8, or exceeds [`MAX_PREIMAGE_BITS`].
    /// * [`IssueError::DifficultyExceedsPreimage`] if `m >= preimage_bits`.
    pub fn issue(
        secret: &ServerSecret,
        tuple: &ConnectionTuple,
        timestamp: u32,
        difficulty: Difficulty,
        preimage_bits: u16,
    ) -> Result<Self, IssueError> {
        Self::issue_with(
            &ScalarBackend,
            secret,
            tuple,
            timestamp,
            difficulty,
            preimage_bits,
        )
    }

    /// [`Challenge::issue`] through an explicit [`HashBackend`].
    ///
    /// # Errors
    ///
    /// Same as [`Challenge::issue`].
    pub fn issue_with<B: HashBackend>(
        backend: &B,
        secret: &ServerSecret,
        tuple: &ConnectionTuple,
        timestamp: u32,
        difficulty: Difficulty,
        preimage_bits: u16,
    ) -> Result<Self, IssueError> {
        validate_preimage_bits(preimage_bits, difficulty)?;
        let preimage = compute_preimage(
            backend,
            secret,
            tuple,
            timestamp,
            preimage_bits as usize / 8,
        );
        Ok(Challenge {
            params: ChallengeParams {
                difficulty,
                preimage_bits: preimage_bits as u8,
                timestamp,
            },
            preimage,
        })
    }

    /// Reconstructs a challenge from fields received on the wire (client
    /// side). The client cannot check the pre-image's provenance — it just
    /// solves what it was sent.
    ///
    /// # Errors
    ///
    /// Returns [`IssueError::BadPreimageLength`] if the pre-image length is
    /// inconsistent with `params`.
    pub fn from_wire(params: ChallengeParams, preimage: Vec<u8>) -> Result<Self, IssueError> {
        validate_preimage_bits(params.preimage_bits as u16, params.difficulty)?;
        if preimage.len() != params.preimage_len() {
            // Saturate: an oversized wire pre-image (e.g. 8192 bytes)
            // must not wrap the reported bit length around to 0.
            let bits = u16::try_from(preimage.len().saturating_mul(8)).unwrap_or(u16::MAX);
            return Err(IssueError::BadPreimageLength(bits));
        }
        Ok(Challenge { params, preimage })
    }

    /// The clear parameters of this challenge.
    pub fn params(&self) -> ChallengeParams {
        self.params
    }

    /// The difficulty `(k, m)`.
    pub fn difficulty(&self) -> Difficulty {
        self.params.difficulty
    }

    /// The `l`-bit pre-image `P` as whole bytes.
    pub fn preimage(&self) -> &[u8] {
        &self.preimage
    }

    /// Checks one sub-solution: does the first `m` bits of
    /// `h(P ‖ i ‖ candidate)` equal the first `m` bits of `P`?
    ///
    /// `index` is 1-based, matching the paper's `1 ≤ i ≤ k`.
    pub fn sub_solution_ok(&self, index: u8, candidate: &[u8]) -> bool {
        sub_solution_ok(
            &ScalarBackend,
            &self.preimage,
            self.params.difficulty.m(),
            index,
            candidate,
        )
    }
}

/// Validates `(l, difficulty)` compatibility: `l` must be a non-zero
/// multiple of 8 no larger than [`MAX_PREIMAGE_BITS`], and `m < l`.
///
/// Public so issuing configurations can be validated once at build time
/// (e.g. a defense policy's constructor) and the per-SYN hot path can
/// rely on infallible issuance instead of re-checking every call.
///
/// # Errors
///
/// * [`IssueError::BadPreimageLength`] if `preimage_bits` is zero, not a
///   multiple of 8, or exceeds [`MAX_PREIMAGE_BITS`].
/// * [`IssueError::DifficultyExceedsPreimage`] if `m >= preimage_bits`.
pub fn validate_preimage_bits(
    preimage_bits: u16,
    difficulty: Difficulty,
) -> Result<(), IssueError> {
    if preimage_bits == 0 || !preimage_bits.is_multiple_of(8) || preimage_bits > MAX_PREIMAGE_BITS {
        return Err(IssueError::BadPreimageLength(preimage_bits));
    }
    if difficulty.m() as u16 >= preimage_bits {
        return Err(IssueError::DifficultyExceedsPreimage {
            m: difficulty.m(),
            l: preimage_bits,
        });
    }
    Ok(())
}

/// `P = first l bits of h(secret ‖ T ‖ packet-data)` — paper Figure 2.
///
/// Generic over the [`HashBackend`] so batch/SIMD backends serve the same
/// derivation (one hash, g(p) = 1).
pub fn compute_preimage<B: HashBackend>(
    backend: &B,
    secret: &ServerSecret,
    tuple: &ConnectionTuple,
    timestamp: u32,
    len_bytes: usize,
) -> Vec<u8> {
    let digest = backend.sha256_parts(&[
        secret.as_bytes(),
        &timestamp.to_be_bytes(),
        &tuple.to_bytes(),
    ]);
    digest[..len_bytes].to_vec()
}

/// Appends the exact message bytes hashed by [`compute_preimage`] to the
/// batch arena — the unit the batched verifier hands to
/// [`HashBackend::sha256_arena`]. Writing straight into the arena keeps
/// the round loop allocation-free.
pub(crate) fn push_preimage_message(
    arena: &mut MessageArena,
    secret: &ServerSecret,
    tuple: &ConnectionTuple,
    timestamp: u32,
) {
    let ts = timestamp.to_be_bytes();
    let tb = tuple.to_bytes();
    arena.push_parts(&[secret.as_bytes(), &ts, &tb]);
}

/// `P = first l bits of h(N_w ‖ packet-data)` — the near-stateless
/// variant of [`compute_preimage`], binding the challenge to a
/// PRF-derived window nonce `N_w` instead of `(secret, T)` directly.
/// The window index travels in the challenge's `timestamp` field, so
/// verification recomputes the same nonce from echoed fields alone.
pub fn compute_windowed_preimage<B: HashBackend>(
    backend: &B,
    nonce: &puzzle_crypto::Digest,
    tuple: &ConnectionTuple,
    len_bytes: usize,
) -> Vec<u8> {
    let digest = backend.sha256_parts(&[nonce, &tuple.to_bytes()]);
    digest[..len_bytes].to_vec()
}

/// Appends the exact message bytes hashed by
/// [`compute_windowed_preimage`] to the batch arena. The message is
/// `32 + 16 = 48` bytes — within one SHA-256 block, so batched windowed
/// issuance stays one compression per SYN.
pub(crate) fn push_windowed_preimage_message(
    arena: &mut MessageArena,
    nonce: &puzzle_crypto::Digest,
    tuple: &ConnectionTuple,
) {
    let tb = tuple.to_bytes();
    arena.push_parts(&[nonce, &tb]);
}

/// The sub-solution tag `h(P ‖ i ‖ candidate)` — the digest every
/// puzzle algorithm's predicate is built from (the prefix puzzle
/// matches it against `P`, the collision puzzle against a second tag).
pub(crate) fn sub_solution_digest<B: HashBackend>(
    backend: &B,
    preimage: &[u8],
    index: u8,
    candidate: &[u8],
) -> puzzle_crypto::Digest {
    backend.sha256_parts(&[preimage, &[index], candidate])
}

/// Shared sub-solution predicate used by both solver and verifier.
pub(crate) fn sub_solution_ok<B: HashBackend>(
    backend: &B,
    preimage: &[u8],
    m: u8,
    index: u8,
    candidate: &[u8],
) -> bool {
    let digest = sub_solution_digest(backend, preimage, index, candidate);
    leading_bits_match(&digest, preimage, m as usize)
}

/// Appends the exact message bytes hashed by [`sub_solution_ok`] to the
/// batch arena — the unit the batched verifier hands to
/// [`HashBackend::sha256_arena`].
pub(crate) fn push_sub_solution_message(
    arena: &mut MessageArena,
    preimage: &[u8],
    index: u8,
    candidate: &[u8],
) {
    arena.push_parts(&[preimage, &[index], candidate]);
}

/// Do the first `m` bits of `a` and `b` agree?
pub(crate) fn leading_bits_match(a: &[u8], b: &[u8], m: usize) -> bool {
    let full = m / 8;
    let rem = m % 8;
    debug_assert!(a.len() >= full + usize::from(rem > 0));
    debug_assert!(b.len() >= full + usize::from(rem > 0));
    if a[..full] != b[..full] {
        return false;
    }
    if rem == 0 {
        return true;
    }
    ((a[full] ^ b[full]) >> (8 - rem)) == 0
}

/// A full solution: `k` sub-solutions of `l` bits each, in index order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    proofs: Vec<Vec<u8>>,
}

impl Solution {
    /// Wraps sub-solutions (index order, 1-based index `i` = position
    /// `i − 1`).
    pub fn new(proofs: Vec<Vec<u8>>) -> Self {
        Solution { proofs }
    }

    /// The sub-solutions in index order.
    pub fn proofs(&self) -> &[Vec<u8>] {
        &self.proofs
    }

    /// Unwraps the sub-solutions.
    pub fn into_proofs(self) -> Vec<Vec<u8>> {
        self.proofs
    }

    /// Overwrites the sub-solutions with `proofs`, reusing both the list
    /// and every per-proof buffer it already holds — a recycled request
    /// slot takes a fresh solution without allocating.
    pub fn refill<'a>(&mut self, proofs: impl IntoIterator<Item = &'a [u8]>) {
        let mut n = 0;
        for proof in proofs {
            match self.proofs.get_mut(n) {
                Some(slot) => {
                    slot.clear();
                    slot.extend_from_slice(proof);
                }
                None => self.proofs.push(proof.to_vec()),
            }
            n += 1;
        }
        self.proofs.truncate(n);
    }

    /// Number of sub-solutions carried.
    pub fn len(&self) -> usize {
        self.proofs.len()
    }

    /// True if no sub-solutions are present.
    pub fn is_empty(&self) -> bool {
        self.proofs.is_empty()
    }

    /// Total payload bytes when serialized (sum of sub-solution lengths).
    pub fn wire_len(&self) -> usize {
        self.proofs.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn secret() -> ServerSecret {
        ServerSecret::from_bytes([3u8; 32])
    }

    fn tuple() -> ConnectionTuple {
        ConnectionTuple::new(
            Ipv4Addr::new(10, 0, 0, 1),
            1000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
            7,
        )
    }

    fn diff(k: u8, m: u8) -> Difficulty {
        Difficulty::new(k, m).unwrap()
    }

    #[test]
    fn issue_is_deterministic_and_stateless() {
        let c1 = Challenge::issue(&secret(), &tuple(), 5, diff(2, 8), 64).unwrap();
        let c2 = Challenge::issue(&secret(), &tuple(), 5, diff(2, 8), 64).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(c1.preimage().len(), 8);
    }

    #[test]
    fn preimage_depends_on_every_input() {
        let base = Challenge::issue(&secret(), &tuple(), 5, diff(1, 8), 64).unwrap();
        let other_t = Challenge::issue(&secret(), &tuple(), 6, diff(1, 8), 64).unwrap();
        assert_ne!(base.preimage(), other_t.preimage());

        let mut t2 = tuple();
        t2.src_port += 1;
        let other_tuple = Challenge::issue(&secret(), &t2, 5, diff(1, 8), 64).unwrap();
        assert_ne!(base.preimage(), other_tuple.preimage());

        let other_secret = ServerSecret::from_bytes([4u8; 32]);
        let other_s = Challenge::issue(&other_secret, &tuple(), 5, diff(1, 8), 64).unwrap();
        assert_ne!(base.preimage(), other_s.preimage());
    }

    #[test]
    fn preimage_is_hash_truncation() {
        let c8 = Challenge::issue(&secret(), &tuple(), 5, diff(1, 7), 8).unwrap();
        let c64 = Challenge::issue(&secret(), &tuple(), 5, diff(1, 7), 64).unwrap();
        assert_eq!(c8.preimage(), &c64.preimage()[..1]);
    }

    #[test]
    fn validation_rejects_bad_lengths() {
        assert_eq!(
            Challenge::issue(&secret(), &tuple(), 0, diff(1, 8), 0).unwrap_err(),
            IssueError::BadPreimageLength(0)
        );
        assert_eq!(
            Challenge::issue(&secret(), &tuple(), 0, diff(1, 8), 12).unwrap_err(),
            IssueError::BadPreimageLength(12)
        );
        assert_eq!(
            Challenge::issue(&secret(), &tuple(), 0, diff(1, 8), 256).unwrap_err(),
            IssueError::BadPreimageLength(256)
        );
        assert_eq!(
            Challenge::issue(&secret(), &tuple(), 0, diff(1, 16), 16).unwrap_err(),
            IssueError::DifficultyExceedsPreimage { m: 16, l: 16 }
        );
    }

    #[test]
    fn from_wire_round_trips() {
        let c = Challenge::issue(&secret(), &tuple(), 9, diff(2, 10), 64).unwrap();
        let rebuilt = Challenge::from_wire(c.params(), c.preimage().to_vec()).unwrap();
        assert_eq!(c, rebuilt);
        // Wrong pre-image length rejected.
        assert!(Challenge::from_wire(c.params(), vec![0; 7]).is_err());
    }

    #[test]
    fn from_wire_reports_oversized_preimage_without_wrapping() {
        // Regression: the error payload used to be computed as
        // `len as u16 * 8`, so an 8192-byte wire pre-image reported a
        // bit length of 0 (8192 * 8 = 65536 ≡ 0 mod 2^16). Oversized
        // pre-images must saturate instead.
        let c = Challenge::issue(&secret(), &tuple(), 9, diff(2, 10), 64).unwrap();
        assert_eq!(
            Challenge::from_wire(c.params(), vec![0; 8192]).unwrap_err(),
            IssueError::BadPreimageLength(u16::MAX)
        );
        // A merely-wrong (in-range) length still reports exactly.
        assert_eq!(
            Challenge::from_wire(c.params(), vec![0; 7]).unwrap_err(),
            IssueError::BadPreimageLength(56)
        );
    }

    #[test]
    fn windowed_preimage_binds_nonce_and_tuple() {
        use puzzle_crypto::{ScalarBackend, WindowPrf};
        let prf = WindowPrf::new(secret().as_bytes(), 8);
        let p = compute_windowed_preimage(&ScalarBackend, &prf.nonce(3), &tuple(), 8);
        assert_eq!(p.len(), 8);
        // Same (window, tuple) is deterministic; either input changes it.
        assert_eq!(
            p,
            compute_windowed_preimage(&ScalarBackend, &prf.nonce(3), &tuple(), 8)
        );
        assert_ne!(
            p,
            compute_windowed_preimage(&ScalarBackend, &prf.nonce(4), &tuple(), 8)
        );
        let mut t2 = tuple();
        t2.src_port += 1;
        assert_ne!(
            p,
            compute_windowed_preimage(&ScalarBackend, &prf.nonce(3), &t2, 8)
        );
        // Arena staging hashes the identical message.
        let mut arena = MessageArena::default();
        push_windowed_preimage_message(&mut arena, &prf.nonce(3), &tuple());
        let mut digests = Vec::new();
        ScalarBackend.sha256_arena(&arena, &mut digests);
        assert_eq!(p, digests[0][..8].to_vec());
    }

    #[test]
    fn leading_bits_match_edge_cases() {
        let a = [0b1010_1010, 0xff];
        let b = [0b1010_1011, 0x00];
        assert!(leading_bits_match(&a, &b, 7)); // differ only in bit 8
        assert!(!leading_bits_match(&a, &b, 8));
        assert!(leading_bits_match(&a, &a, 16));
        assert!(leading_bits_match(&a, &b, 1));
    }

    #[test]
    fn sub_solution_check_is_consistent() {
        let c = Challenge::issue(&secret(), &tuple(), 5, diff(1, 4), 64).unwrap();
        // Find a solution by brute force, then check index sensitivity.
        let mut candidate = [0u8; 8];
        let mut found = None;
        for i in 0u64..100_000 {
            candidate = i.to_le_bytes();
            if c.sub_solution_ok(1, &candidate) {
                found = Some(candidate);
                break;
            }
        }
        let sol = found.expect("m=4 must be solvable quickly");
        assert!(c.sub_solution_ok(1, &sol));
        // The same bytes almost surely fail for a different index.
        // (Probability of accidental pass is 2^-4; check it is not trivially true.)
        let _ = c.sub_solution_ok(2, &candidate);
    }

    #[test]
    fn solution_accessors() {
        let s = Solution::new(vec![vec![1; 8], vec![2; 8]]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.wire_len(), 16);
        assert_eq!(s.proofs()[1], vec![2; 8]);
        assert!(Solution::new(vec![]).is_empty());
    }
}
