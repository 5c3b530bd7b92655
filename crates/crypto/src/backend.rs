//! The pluggable hashing seam for the puzzle verification data path.
//!
//! Every hash the puzzle protocol performs — pre-image derivation,
//! sub-solution checks, keyed ISN/oracle tags — flows through a
//! [`HashBackend`]. Four implementations ship in this crate:
//!
//! * [`ScalarBackend`] — the portable FIPS 180-4 reference path; always
//!   available, the semantic baseline every other backend must match.
//! * [`MultiLaneBackend`] — portable multi-buffer hashing: batches are
//!   interleaved [`crate::multilane::LANES`] messages at a time through a
//!   structure-of-arrays compression kernel the compiler auto-vectorizes
//!   (re-instantiated under AVX2 when the CPU has it). Single-message
//!   calls fall through to the scalar path.
//! * [`ShaNiBackend`] — the x86 SHA extensions (runtime-detected);
//!   hardware round computation for both single and batched hashing.
//! * [`AutoBackend`] — runtime selection of the best of the above via
//!   [`auto_backend`], honouring the `PUZZLE_BACKEND` environment
//!   variable so tests and CI can force a specific engine.
//!
//! The trait is deliberately generic (no trait objects anywhere in the
//! verification path): callers are monomorphized over the backend, so the
//! scalar implementation compiles to direct calls and the batch backends
//! dispatch without indirection. [`HashBackend::sha256_arena`] is the
//! scaling hook: the batched verifier hands over whole *rounds* of
//! independent messages in a flat [`MessageArena`], which is exactly the
//! shape multi-buffer SHA-256 kernels want — contiguous bytes, O(1)
//! per-message access, no per-message allocations.

use crate::arena::MessageArena;
use crate::hmac::HmacSha256;
use crate::multilane::{sha256_arena_lanes, sha256_arena_lanes_seeded};
use crate::sha256::{Digest, Sha256, Sha256Midstate};
use crate::shani;

/// A provider of the hash primitives the puzzle protocol needs.
///
/// Implementations must be cheap to clone (they are carried by value in
/// verifiers and listeners) and thread-safe, so one backend instance can
/// serve sharded verification pipelines.
pub trait HashBackend: Clone + Send + Sync + std::fmt::Debug {
    /// SHA-256 over the concatenation of `parts` (equivalent to hashing
    /// the flattened byte string; parts only exist to avoid copies).
    fn sha256_parts(&self, parts: &[&[u8]]) -> Digest;

    /// HMAC-SHA-256 over the concatenation of `parts` under `key`.
    fn hmac_sha256_parts(&self, key: &[u8], parts: &[&[u8]]) -> Digest;

    /// One-shot SHA-256 of a single message.
    fn sha256(&self, data: &[u8]) -> Digest {
        self.sha256_parts(&[data])
    }

    /// A short static name identifying the hashing engine, so benchmark
    /// reports and experiment outputs can attribute their numbers.
    fn name(&self) -> &'static str {
        "custom"
    }

    /// Hashes a batch of *independent* messages stored in a flat
    /// [`MessageArena`], appending one digest per message to `out` in
    /// order.
    ///
    /// This is the hot entry point of the verification pipeline: the
    /// batched verifier reuses one arena across rounds, so steady-state
    /// calls allocate nothing. The default implementation loops over
    /// [`HashBackend::sha256_parts`]; batch-capable backends override it
    /// with multi-buffer kernels. Callers must not assume any particular
    /// evaluation order beyond the output ordering.
    fn sha256_arena(&self, messages: &MessageArena, out: &mut Vec<Digest>) {
        out.reserve(messages.len());
        for msg in messages.iter() {
            out.push(self.sha256_parts(&[msg]));
        }
    }

    /// Hashes each arena message as the suffix of a shared, already
    /// compressed prefix: the digest appended for message `m` equals
    /// `SHA-256(prefix ‖ m)`, where `seed` captured the state after the
    /// prefix's blocks (see [`crate::Sha256Midstate`]).
    ///
    /// This is the HMAC hook of the batched issuance path: with a key
    /// schedule's cached ipad/opad midstates, each HMAC pass over a short
    /// message costs one compression instead of two — the 64-byte padded
    /// key block never re-enters the kernel. Same ordering and reuse
    /// contract as [`HashBackend::sha256_arena`].
    fn sha256_arena_seeded(
        &self,
        seed: &Sha256Midstate,
        messages: &MessageArena,
        out: &mut Vec<Digest>,
    ) {
        out.reserve(messages.len());
        for msg in messages.iter() {
            out.push(crate::sha256::sha256_seeded(seed, msg));
        }
    }
}

/// The default backend: this crate's portable scalar SHA-256 and HMAC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScalarBackend;

impl HashBackend for ScalarBackend {
    fn sha256_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    fn hmac_sha256_parts(&self, key: &[u8], parts: &[&[u8]]) -> Digest {
        let mut mac = HmacSha256::new(key);
        for part in parts {
            mac.update(part);
        }
        mac.finalize()
    }

    fn name(&self) -> &'static str {
        "scalar"
    }
}

/// Portable multi-buffer backend: batches run through the lane-interleaved
/// compression kernel (see [`crate::multilane`]); single-message hashing
/// and HMAC are identical to [`ScalarBackend`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MultiLaneBackend;

impl HashBackend for MultiLaneBackend {
    fn sha256_parts(&self, parts: &[&[u8]]) -> Digest {
        ScalarBackend.sha256_parts(parts)
    }

    fn hmac_sha256_parts(&self, key: &[u8], parts: &[&[u8]]) -> Digest {
        ScalarBackend.hmac_sha256_parts(key, parts)
    }

    fn name(&self) -> &'static str {
        "multilane"
    }

    fn sha256_arena(&self, messages: &MessageArena, out: &mut Vec<Digest>) {
        sha256_arena_lanes(messages, out);
    }

    fn sha256_arena_seeded(
        &self,
        seed: &Sha256Midstate,
        messages: &MessageArena,
        out: &mut Vec<Digest>,
    ) {
        sha256_arena_lanes_seeded(seed, messages, out);
    }
}

/// Hardware backend over the x86 SHA extensions. Construct via
/// [`ShaNiBackend::new`], which returns `None` when the running CPU (or
/// target architecture) lacks the extension — so a value of this type is
/// proof the kernel is safe to dispatch.
///
/// Streaming HMAC keying runs through the scalar path (the batched
/// issuance path instead caches key-schedule midstates and drives both
/// HMAC passes through the seeded arena kernel); all SHA-256 hashing
/// uses the hardware kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShaNiBackend {
    _proof: (),
}

impl ShaNiBackend {
    /// Returns the backend iff the running CPU supports the `sha`
    /// extension (plus the SSSE3/SSE4.1 shuffles the kernel uses).
    pub fn new() -> Option<Self> {
        shani::available().then_some(ShaNiBackend { _proof: () })
    }
}

impl HashBackend for ShaNiBackend {
    fn sha256_parts(&self, parts: &[&[u8]]) -> Digest {
        shani::sha256_parts_ni(parts)
    }

    fn hmac_sha256_parts(&self, key: &[u8], parts: &[&[u8]]) -> Digest {
        ScalarBackend.hmac_sha256_parts(key, parts)
    }

    fn name(&self) -> &'static str {
        "sha-ni"
    }

    fn sha256_arena(&self, messages: &MessageArena, out: &mut Vec<Digest>) {
        shani::sha256_arena_ni(messages, out);
    }

    fn sha256_arena_seeded(
        &self,
        seed: &Sha256Midstate,
        messages: &MessageArena,
        out: &mut Vec<Digest>,
    ) {
        shani::sha256_arena_ni_seeded(seed, messages, out);
    }
}

/// Runtime-selected backend: one concrete type the whole pipeline can be
/// monomorphized over while the actual engine is picked per-process (per
/// CPU capabilities or the `PUZZLE_BACKEND` environment variable). The
/// per-call `match` is branch-predicted away next to a hash compression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AutoBackend {
    /// Portable scalar engine.
    Scalar(ScalarBackend),
    /// Portable lane-interleaved engine.
    MultiLane(MultiLaneBackend),
    /// x86 SHA extensions engine.
    ShaNi(ShaNiBackend),
}

impl HashBackend for AutoBackend {
    fn sha256_parts(&self, parts: &[&[u8]]) -> Digest {
        match self {
            AutoBackend::Scalar(b) => b.sha256_parts(parts),
            AutoBackend::MultiLane(b) => b.sha256_parts(parts),
            AutoBackend::ShaNi(b) => b.sha256_parts(parts),
        }
    }

    fn hmac_sha256_parts(&self, key: &[u8], parts: &[&[u8]]) -> Digest {
        match self {
            AutoBackend::Scalar(b) => b.hmac_sha256_parts(key, parts),
            AutoBackend::MultiLane(b) => b.hmac_sha256_parts(key, parts),
            AutoBackend::ShaNi(b) => b.hmac_sha256_parts(key, parts),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AutoBackend::Scalar(b) => b.name(),
            AutoBackend::MultiLane(b) => b.name(),
            AutoBackend::ShaNi(b) => b.name(),
        }
    }

    fn sha256_arena(&self, messages: &MessageArena, out: &mut Vec<Digest>) {
        match self {
            AutoBackend::Scalar(b) => b.sha256_arena(messages, out),
            AutoBackend::MultiLane(b) => b.sha256_arena(messages, out),
            AutoBackend::ShaNi(b) => b.sha256_arena(messages, out),
        }
    }

    fn sha256_arena_seeded(
        &self,
        seed: &Sha256Midstate,
        messages: &MessageArena,
        out: &mut Vec<Digest>,
    ) {
        match self {
            AutoBackend::Scalar(b) => b.sha256_arena_seeded(seed, messages, out),
            AutoBackend::MultiLane(b) => b.sha256_arena_seeded(seed, messages, out),
            AutoBackend::ShaNi(b) => b.sha256_arena_seeded(seed, messages, out),
        }
    }
}

/// The fastest backend the running CPU supports: SHA-NI where available,
/// else the portable multi-lane engine.
fn best_backend() -> AutoBackend {
    match ShaNiBackend::new() {
        Some(b) => AutoBackend::ShaNi(b),
        None => AutoBackend::MultiLane(MultiLaneBackend),
    }
}

/// Warns (once per process) when a `PUZZLE_BACKEND` request cannot be
/// honoured, so CI logs and benchmark output never silently attribute
/// numbers to an engine that did not run.
fn warn_backend_fallback(msg: &str) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| eprintln!("puzzle-crypto: {msg}"));
}

/// Selects the hashing backend for this process.
///
/// By default picks the fastest engine the CPU supports (SHA-NI →
/// multi-lane). The `PUZZLE_BACKEND` environment variable overrides the
/// choice — `scalar`, `multilane`, `shani`, or `auto` — so CI can run the
/// whole test suite against each engine. Forcing `shani` on hardware
/// without the extension, or passing an unrecognized value, falls back
/// to the best available engine with a one-time warning on stderr
/// rather than crashing — check [`HashBackend::name`] when attribution
/// matters.
///
/// # Example
///
/// ```
/// use puzzle_crypto::{auto_backend, HashBackend};
///
/// let backend = auto_backend();
/// println!("verifying through the {} backend", backend.name());
/// assert_eq!(backend.sha256(b"abc"), puzzle_crypto::sha256(b"abc"));
/// ```
pub fn auto_backend() -> AutoBackend {
    match std::env::var("PUZZLE_BACKEND").ok().as_deref() {
        Some("scalar") => AutoBackend::Scalar(ScalarBackend),
        Some("multilane") => AutoBackend::MultiLane(MultiLaneBackend),
        Some("shani" | "sha-ni") => match ShaNiBackend::new() {
            Some(b) => AutoBackend::ShaNi(b),
            None => {
                warn_backend_fallback(
                    "PUZZLE_BACKEND=shani requested but this CPU lacks the SHA \
                     extensions; falling back to the best available backend",
                );
                best_backend()
            }
        },
        Some("auto") | None => best_backend(),
        Some(other) => {
            warn_backend_fallback(&format!(
                "unrecognized PUZZLE_BACKEND value {other:?} (expected scalar, \
                 multilane, shani, or auto); using the best available backend"
            ));
            best_backend()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn scalar_sha256_matches_nist_vectors() {
        let b = ScalarBackend;
        assert_eq!(
            hex::encode(&b.sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex::encode(&b.sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn parts_are_concatenation() {
        let b = ScalarBackend;
        assert_eq!(b.sha256_parts(&[b"ab", b"c"]), b.sha256(b"abc"));
        assert_eq!(b.sha256_parts(&[b"", b"abc", b""]), b.sha256(b"abc"));
    }

    #[test]
    fn scalar_hmac_matches_rfc4231() {
        let b = ScalarBackend;
        let tag = b.hmac_sha256_parts(&[0x0b; 20], &[b"Hi ", b"There"]);
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn arena_batch_matches_singles() {
        let b = ScalarBackend;
        let messages: Vec<Vec<u8>> = (0u8..9).map(|i| vec![i; i as usize * 7]).collect();
        let arena = MessageArena::from_messages(&messages);
        let mut out = Vec::new();
        b.sha256_arena(&arena, &mut out);
        assert_eq!(out.len(), messages.len());
        for (msg, digest) in messages.iter().zip(&out) {
            assert_eq!(*digest, b.sha256(msg));
        }
    }

    #[test]
    fn arena_batch_appends_to_existing_output() {
        let b = ScalarBackend;
        let mut out = vec![b.sha256(b"sentinel")];
        let mut arena = MessageArena::new();
        arena.push(b"x");
        b.sha256_arena(&arena, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], b.sha256(b"sentinel"));
        assert_eq!(out[1], b.sha256(b"x"));
    }

    #[test]
    fn multilane_matches_scalar() {
        let scalar = ScalarBackend;
        let lanes = MultiLaneBackend;
        assert_eq!(lanes.sha256(b"abc"), scalar.sha256(b"abc"));
        let messages: Vec<Vec<u8>> = (0u8..20).map(|i| vec![i; i as usize * 11]).collect();
        let arena = MessageArena::from_messages(&messages);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar.sha256_arena(&arena, &mut a);
        lanes.sha256_arena(&arena, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn shani_matches_scalar_when_available() {
        let Some(ni) = ShaNiBackend::new() else {
            eprintln!("SHA-NI not available; skipping");
            return;
        };
        let scalar = ScalarBackend;
        assert_eq!(ni.sha256(b"abc"), scalar.sha256(b"abc"));
        assert_eq!(
            ni.sha256_parts(&[b"ab", b"c"]),
            scalar.sha256_parts(&[b"ab", b"c"])
        );
        assert_eq!(
            ni.hmac_sha256_parts(b"key", &[b"msg"]),
            scalar.hmac_sha256_parts(b"key", &[b"msg"])
        );
    }

    #[test]
    fn seeded_arena_matches_prefixed_scalar_on_every_backend() {
        // Digests from the seeded kernels must equal hashing
        // prefix ‖ message from scratch, for every backend and for
        // message lengths straddling every padding boundary.
        let schedule = crate::HmacKeySchedule::new(b"seeded-equivalence-key");
        let seeds = [schedule.inner_midstate(), schedule.outer_midstate()];
        let prefixes = [schedule.ipad_key(), schedule.opad_key()];
        let messages: Vec<Vec<u8>> = (0usize..40)
            .map(|i| (0..i * 3 + (i % 7)).map(|j| (j % 251) as u8).collect())
            .collect();
        let arena = MessageArena::from_messages(&messages);
        for (seed, prefix) in seeds.iter().zip(prefixes) {
            let expected: Vec<Digest> = messages
                .iter()
                .map(|m| ScalarBackend.sha256_parts(&[prefix, m]))
                .collect();
            let mut out = Vec::new();
            ScalarBackend.sha256_arena_seeded(seed, &arena, &mut out);
            assert_eq!(out, expected, "scalar");
            out.clear();
            MultiLaneBackend.sha256_arena_seeded(seed, &arena, &mut out);
            assert_eq!(out, expected, "multilane");
            if let Some(ni) = ShaNiBackend::new() {
                out.clear();
                ni.sha256_arena_seeded(seed, &arena, &mut out);
                assert_eq!(out, expected, "sha-ni");
            }
            out.clear();
            auto_backend().sha256_arena_seeded(seed, &arena, &mut out);
            assert_eq!(out, expected, "auto");
        }
    }

    #[test]
    fn auto_backend_selects_and_names() {
        let b = auto_backend();
        assert!(["scalar", "multilane", "sha-ni"].contains(&b.name()));
        assert_eq!(b.sha256(b"abc"), ScalarBackend.sha256(b"abc"));
    }

    #[test]
    fn backend_names_are_distinct() {
        assert_eq!(ScalarBackend.name(), "scalar");
        assert_eq!(MultiLaneBackend.name(), "multilane");
        if let Some(ni) = ShaNiBackend::new() {
            assert_eq!(ni.name(), "sha-ni");
        }
    }
}
