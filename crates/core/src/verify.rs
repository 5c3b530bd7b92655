//! Server secret and stateless solution verification.
//!
//! The [`Verifier`] is generic over a [`HashBackend`] — the workspace's
//! pluggable hashing seam — and exposes two entry points:
//!
//! * [`Verifier::verify`] — one flow, identical semantics to the paper's
//!   per-ACK check (freshness → structure → pre-image → sub-solutions,
//!   failing at the first invalid proof);
//! * [`Verifier::verify_batch`] — the scalable engine: whole *rounds* of
//!   independent hashes are staged in a flat [`MessageArena`] and handed
//!   to [`HashBackend::sha256_arena`], and an optional sharded
//!   [`ReplayCache`] rejects duplicate admissions before any hash is
//!   spent. [`Verifier::verify_batch_with`] reuses caller-owned
//!   [`BatchScratch`] buffers (zero steady-state allocations), and
//!   [`Verifier::verify_batch_parallel`] fans a batch across scoped
//!   worker threads partitioned by replay key.
//!
//! Both report the number of hash operations charged, which is the single
//! source of truth the host simulation's CPU accounting consumes.
//!
//! The per-proof predicate is the puzzle algorithm's hash check, or,
//! under [`Verifier::with_oracle_proofs`], equality with the simulation
//! oracle's keyed [`oracle_proof`]; everything around it is shared.

use std::sync::Arc;

use crate::algo::AlgoId;
use crate::challenge::{
    compute_windowed_preimage, push_preimage_message, push_windowed_preimage_message, Solution,
};
use crate::challenge::{Challenge, ChallengeParams};
use crate::difficulty::Difficulty;
use crate::error::{IssueError, VerifyError};
use crate::replay::ReplayCache;
use crate::tuple::ConnectionTuple;
use puzzle_crypto::{Digest, HashBackend, MessageArena, ScalarBackend, WindowPrf};

/// The server's puzzle secret, generated once per listening socket
/// lifetime (paper §5).
///
/// Knowing the secret is what lets the server *recompute* a challenge's
/// pre-image from the ACK packet instead of storing it — the statelessness
/// property that makes puzzles immune to the very state exhaustion they
/// defend against.
#[derive(Clone, PartialEq, Eq)]
pub struct ServerSecret {
    bytes: [u8; 32],
}

impl ServerSecret {
    /// Wraps explicit key bytes (e.g. drawn from a seeded RNG in tests and
    /// simulations).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        ServerSecret { bytes }
    }

    /// Generates a secret by pulling 32 bytes from `fill` (any entropy
    /// source: OS randomness in production, the simulation RNG in tests).
    pub fn generate(fill: impl FnOnce(&mut [u8])) -> Self {
        let mut bytes = [0u8; 32];
        fill(&mut bytes);
        ServerSecret { bytes }
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }
}

// Deliberately redact the key material from debug output.
impl std::fmt::Debug for ServerSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerSecret(..)")
    }
}

/// One verification request for [`Verifier::verify_batch`]: the echoed
/// connection tuple, the clear challenge parameters, and the returned
/// solution.
pub type VerifyRequest = (ConnectionTuple, ChallengeParams, Solution);

/// The outcome of a [`Verifier::verify_batch`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Per-request verdicts, in request order; identical to what
    /// sequential [`Verifier::verify`] would return for each request
    /// (plus [`VerifyError::Replayed`] when a replay cache is attached).
    pub verdicts: Vec<Result<(), VerifyError>>,
    /// Total hash operations charged across the batch (pre-images plus
    /// sub-solution checks; replay-cache hits cost zero).
    pub hashes: u64,
}

impl BatchOutcome {
    /// Number of accepted requests.
    pub fn accepted(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_ok()).count()
    }
}

/// Reusable working memory for [`Verifier::verify_batch_with`].
///
/// The batch engine hashes whole rounds of independent messages. With a
/// scratch reused across batches, every buffer — the flat message arena,
/// the digest output, the live set, the verdict list — retains its
/// high-water capacity, so steady-state batch verification performs
/// **zero heap allocations** (checked by the workspace's
/// counting-allocator test). Create one per verification pipeline (e.g.
/// per listener, per worker thread) and hand it to every call.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Flat message storage for the current hashing round.
    arena: MessageArena,
    /// Digest output of the current round.
    digests: Vec<Digest>,
    /// Still-live requests: position in the batch plus the recomputed
    /// pre-image digest (truncated on use to the request's `l`).
    live: Vec<(u32, Digest)>,
    /// Per-request verdicts, positional.
    verdicts: Vec<Result<(), VerifyError>>,
}

impl BatchScratch {
    /// Creates an empty scratch; buffers grow to their steady-state sizes
    /// during the first batches.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Verdicts of the most recent batch, in request order — identical to
    /// what sequential [`Verifier::verify`] would return per request.
    pub fn verdicts(&self) -> &[Result<(), VerifyError>] {
        &self.verdicts
    }

    /// Number of accepted requests in the most recent batch.
    pub fn accepted(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_ok()).count()
    }
}

/// Reusable working memory for [`Verifier::issue_batch`] — the issuance
/// sibling of [`BatchScratch`].
///
/// A batch of challenges shares one `(timestamp, difficulty, l)` triple,
/// so all that differs per challenge is the pre-image. The scratch holds
/// the staged pre-image messages and the digest outputs; the pre-images
/// are read back as truncating slices into the digest buffer
/// ([`IssueScratch::preimage`]) rather than per-challenge `Vec`s, so a
/// warmed scratch makes steady-state issuance **zero heap allocations**
/// (checked by the workspace's counting-allocator test). Create one per
/// issuing pipeline (e.g. per listener shard) and hand it to every call.
#[derive(Debug, Default)]
pub struct IssueScratch {
    /// Flat message storage for the pre-image round.
    arena: MessageArena,
    /// Full digests, one per issued challenge, in request order.
    digests: Vec<Digest>,
    /// Pre-image truncation length of the most recent batch.
    len_bytes: usize,
}

impl IssueScratch {
    /// Creates an empty scratch; buffers grow to their steady-state sizes
    /// during the first batches.
    pub fn new() -> Self {
        IssueScratch::default()
    }

    /// Number of challenges issued by the most recent batch.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// True if the most recent batch was empty.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// The `i`-th challenge's pre-image — the first `l` bits of its
    /// digest, as whole bytes borrowed from the scratch. Valid until the
    /// next [`Verifier::issue_batch`] call reuses the buffers.
    pub fn preimage(&self, i: usize) -> &[u8] {
        &self.digests[i][..self.len_bytes]
    }
}

/// Stateless verifier: recomputes pre-images from echoed packet fields and
/// checks sub-solutions and the replay-defence timestamp window.
///
/// Generic over the [`HashBackend`]; [`Verifier::new`] picks the scalar
/// default, [`Verifier::with_backend`] plugs in anything else.
///
/// # Example
///
/// ```
/// use puzzle_core::{Challenge, ConnectionTuple, Difficulty, ServerSecret, Solver, Verifier};
///
/// let secret = ServerSecret::from_bytes([5u8; 32]);
/// let verifier = Verifier::new(secret.clone()).with_expiry(4);
/// let tuple = ConnectionTuple::new(
///     "10.0.0.9".parse()?, 999, "10.0.0.1".parse()?, 80, 1);
/// let c = verifier.issue(&tuple, 100, Difficulty::new(1, 5)?, 64)?;
/// let out = Solver::new().solve(&c);
///
/// // Fresh solution verifies...
/// assert!(verifier.verify(&tuple, &c.params(), &out.solution, 101).is_ok());
/// // ...but an expired replay is rejected.
/// assert!(verifier.verify(&tuple, &c.params(), &out.solution, 200).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Verifier<B: HashBackend = ScalarBackend> {
    secret: ServerSecret,
    /// Maximum accepted challenge age, in the server's timestamp unit.
    max_age: u32,
    /// Tolerated forward clock skew.
    future_skew: u32,
    backend: B,
    /// Optional replay-window cache consulted by the batch engine.
    replay: Option<Arc<ReplayCache>>,
    /// Near-stateless windowed mode ([`Verifier::with_window`]): the
    /// challenge `timestamp` field carries a *window index* instead of a
    /// clock reading, pre-images bind to the PRF-derived window nonce,
    /// and freshness is the strict current-or-previous-window check.
    window: Option<WindowPrf>,
    /// Which puzzle algorithm this verifier poses and checks
    /// ([`Verifier::with_algo`]). Solutions for any other algorithm
    /// fail the structural precheck (their proofs have the wrong
    /// length) before any hash is spent.
    algo: AlgoId,
    /// Whether proofs are checked against [`oracle_proof`] instead of
    /// the algorithm's hash predicate ([`Verifier::with_oracle_proofs`]).
    oracle_proofs: bool,
}

impl Verifier<ScalarBackend> {
    /// Creates a verifier over the default scalar backend with the default
    /// expiry window and no tolerated future skew.
    pub fn new(secret: ServerSecret) -> Self {
        Verifier::with_backend(secret, ScalarBackend)
    }
}

impl<B: HashBackend> Verifier<B> {
    /// Default challenge expiry window (paper §5 leaves the timeout as a
    /// `sysctl` tunable; 8 time units is this library's default).
    pub const DEFAULT_MAX_AGE: u32 = 8;

    /// Creates a verifier hashing through `backend`.
    pub fn with_backend(secret: ServerSecret, backend: B) -> Self {
        Verifier {
            secret,
            max_age: Self::DEFAULT_MAX_AGE,
            future_skew: 0,
            backend,
            replay: None,
            window: None,
            algo: AlgoId::Prefix,
            oracle_proofs: false,
        }
    }

    /// Selects the puzzle algorithm this verifier poses and checks
    /// (default [`AlgoId::Prefix`], the paper's hash-prefix puzzle).
    /// The algorithm is server configuration, echoed to clients in the
    /// challenge option: a solution built for a different algorithm is
    /// structurally malformed here and is rejected for free.
    pub fn with_algo(mut self, algo: AlgoId) -> Self {
        self.algo = algo;
        self
    }

    /// The configured puzzle algorithm.
    pub fn algo(&self) -> AlgoId {
        self.algo
    }

    /// Checks each proof against [`oracle_proof`] instead of the
    /// algorithm's hash predicate, charging the same
    /// [`AlgoId::verify_hashes_per_proof`]. Freshness, structure, replay
    /// admission and the pre-image round are unchanged, so verdicts and
    /// charges match the default wherever proof bytes are not at stake.
    pub fn with_oracle_proofs(mut self) -> Self {
        self.oracle_proofs = true;
        self
    }

    /// Sets the maximum accepted challenge age (replay window).
    pub fn with_expiry(mut self, max_age: u32) -> Self {
        self.max_age = max_age;
        self
    }

    /// Sets the tolerated forward clock skew.
    pub fn with_future_skew(mut self, skew: u32) -> Self {
        self.future_skew = skew;
        self
    }

    /// Attaches a sharded replay cache. [`Verifier::verify_batch`] then
    /// rejects any `(tuple, timestamp)` admission it has already granted
    /// inside the expiry window — without spending hash work on it.
    pub fn with_replay_cache(mut self, cache: Arc<ReplayCache>) -> Self {
        self.replay = Some(cache);
        self
    }

    /// Switches the verifier into near-stateless *windowed* mode with
    /// `window_len` clock units per window (rspow's "near-stateless"
    /// design; paper §5's statelessness property taken to issuance).
    ///
    /// In windowed mode a challenge's `timestamp` field carries the
    /// window index `w = ⌊now / window_len⌋`, its pre-image binds to the
    /// PRF-derived window nonce `N_w` instead of `(secret, T)` directly
    /// ([`compute_windowed_preimage`]), and the freshness check becomes
    /// the strict acceptance window: only the current and the previous
    /// window verify. The attached [`ReplayCache`] is then keyed
    /// `(tuple, w)`, so its horizon is bounded by two windows of
    /// admissions. Use [`Verifier::issue_windowed`] /
    /// [`Verifier::issue_batch_windowed`] to issue matching challenges.
    ///
    /// # Panics
    ///
    /// Panics if `window_len` is zero.
    pub fn with_window(mut self, window_len: u32) -> Self {
        self.window = Some(WindowPrf::new(self.secret.as_bytes(), window_len));
        self
    }

    /// The window PRF when in windowed mode ([`Verifier::with_window`]).
    pub fn window_prf(&self) -> Option<&WindowPrf> {
        self.window.as_ref()
    }

    /// The freshness frame verification runs in: `(now, max_age)` in
    /// clock units for the classic mode, `(current window, 1)` in
    /// windowed mode. Replay admissions are keyed and aged in this
    /// frame.
    fn freshness_frame(&self, now: u32) -> (u32, u32) {
        match &self.window {
            Some(prf) => (prf.window_of(now), 1),
            None => (now, self.max_age),
        }
    }

    /// The configured replay window.
    pub fn max_age(&self) -> u32 {
        self.max_age
    }

    /// The hashing backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The attached replay cache, if any.
    pub fn replay_cache(&self) -> Option<&Arc<ReplayCache>> {
        self.replay.as_ref()
    }

    /// Issues a challenge under this verifier's secret and backend — a
    /// convenience wrapper over [`Challenge::issue_with`].
    ///
    /// # Errors
    ///
    /// Propagates [`IssueError`] for invalid `(l, difficulty)` pairs.
    pub fn issue(
        &self,
        tuple: &ConnectionTuple,
        timestamp: u32,
        difficulty: Difficulty,
        preimage_bits: u16,
    ) -> Result<Challenge, IssueError> {
        Challenge::issue_with(
            &self.backend,
            &self.secret,
            tuple,
            timestamp,
            difficulty,
            preimage_bits,
        )
    }

    /// Issues one challenge per tuple in a single batched hashing round —
    /// the issuance sibling of [`Verifier::verify_batch_with`].
    ///
    /// All challenges share `(timestamp, difficulty, preimage_bits)` —
    /// the shape a SYN-flood burst has at the listener, where one batch
    /// is issued under one clock reading and one difficulty setting. The
    /// pre-image messages are staged in the scratch's [`MessageArena`]
    /// and hashed through one [`HashBackend::sha256_arena`] call, so the
    /// multi-lane and SHA-NI kernels apply; each pre-image is then read
    /// back with [`IssueScratch::preimage`] — byte-identical to what
    /// sequential [`Verifier::issue`] computes, with no `Vec` per
    /// challenge. Costs exactly one hash per tuple (g(p) = 1, paper §4).
    ///
    /// Returns the shared [`ChallengeParams`]; the per-tuple pre-images
    /// live in `scratch`, in tuple order.
    ///
    /// # Errors
    ///
    /// Propagates [`IssueError`] for invalid `(l, difficulty)` pairs —
    /// validated once per batch, not per tuple.
    pub fn issue_batch(
        &self,
        tuples: &[ConnectionTuple],
        timestamp: u32,
        difficulty: Difficulty,
        preimage_bits: u16,
        scratch: &mut IssueScratch,
    ) -> Result<ChallengeParams, IssueError> {
        crate::challenge::validate_preimage_bits(preimage_bits, difficulty)?;
        scratch.arena.clear();
        // `sha256_arena` appends; the scratch is per-batch, so start empty.
        scratch.digests.clear();
        scratch.len_bytes = preimage_bits as usize / 8;
        for tuple in tuples {
            push_preimage_message(&mut scratch.arena, &self.secret, tuple, timestamp);
        }
        self.backend
            .sha256_arena(&scratch.arena, &mut scratch.digests);
        Ok(ChallengeParams {
            difficulty,
            preimage_bits: preimage_bits as u8,
            timestamp,
        })
    }

    /// Issues a near-stateless windowed challenge for `tuple` at clock
    /// reading `now` — the windowed-mode sibling of [`Verifier::issue`].
    ///
    /// The returned challenge's `timestamp` field is the *window index*
    /// `w = ⌊now / window_len⌋`, and its pre-image is
    /// `h(N_w ‖ tuple)` for the PRF-derived window nonce `N_w`. Still
    /// one hash per challenge (g(p) = 1); the nonce derivation amortizes
    /// to one HMAC per window.
    ///
    /// # Errors
    ///
    /// Propagates [`IssueError`] for invalid `(l, difficulty)` pairs.
    ///
    /// # Panics
    ///
    /// Panics unless the verifier is in windowed mode
    /// ([`Verifier::with_window`]).
    pub fn issue_windowed(
        &self,
        tuple: &ConnectionTuple,
        now: u32,
        difficulty: Difficulty,
        preimage_bits: u16,
    ) -> Result<Challenge, IssueError> {
        let prf = self
            .window
            .as_ref()
            .expect("issue_windowed requires windowed mode (Verifier::with_window)");
        crate::challenge::validate_preimage_bits(preimage_bits, difficulty)?;
        let w = prf.window_of(now);
        let preimage = compute_windowed_preimage(
            &self.backend,
            &prf.nonce(w),
            tuple,
            preimage_bits as usize / 8,
        );
        Challenge::from_wire(
            ChallengeParams {
                difficulty,
                preimage_bits: preimage_bits as u8,
                timestamp: w,
            },
            preimage,
        )
    }

    /// Issues one windowed challenge per tuple in a single batched
    /// hashing round — the windowed-mode sibling of
    /// [`Verifier::issue_batch`], with identical scratch/arena mechanics
    /// and byte-identical pre-images to sequential
    /// [`Verifier::issue_windowed`]. Every staged message is
    /// `nonce ‖ tuple` = 48 bytes — inside one SHA-256 block — so the
    /// batch costs exactly one compression per SYN.
    ///
    /// # Errors
    ///
    /// Propagates [`IssueError`] for invalid `(l, difficulty)` pairs —
    /// validated once per batch, not per tuple.
    ///
    /// # Panics
    ///
    /// Panics unless the verifier is in windowed mode
    /// ([`Verifier::with_window`]).
    pub fn issue_batch_windowed(
        &self,
        tuples: &[ConnectionTuple],
        now: u32,
        difficulty: Difficulty,
        preimage_bits: u16,
        scratch: &mut IssueScratch,
    ) -> Result<ChallengeParams, IssueError> {
        let prf = self
            .window
            .as_ref()
            .expect("issue_batch_windowed requires windowed mode (Verifier::with_window)");
        crate::challenge::validate_preimage_bits(preimage_bits, difficulty)?;
        let w = prf.window_of(now);
        let nonce = prf.nonce(w);
        scratch.arena.clear();
        scratch.digests.clear();
        scratch.len_bytes = preimage_bits as usize / 8;
        for tuple in tuples {
            push_windowed_preimage_message(&mut scratch.arena, &nonce, tuple);
        }
        self.backend
            .sha256_arena(&scratch.arena, &mut scratch.digests);
        Ok(ChallengeParams {
            difficulty,
            preimage_bits: preimage_bits as u8,
            timestamp: w,
        })
    }

    /// Verifies a returned solution against the echoed challenge fields.
    ///
    /// The checks, in order (cheapest first, as the kernel patch does):
    /// timestamp freshness, solution count and lengths, then the hash
    /// checks, failing at the first invalid sub-solution. This single-flow
    /// path never consults the replay cache; batch admission goes through
    /// [`Verifier::verify_batch`].
    ///
    /// # Errors
    ///
    /// See [`VerifyError`] for every rejection reason.
    pub fn verify(
        &self,
        tuple: &ConnectionTuple,
        params: &ChallengeParams,
        solution: &Solution,
        now: u32,
    ) -> Result<(), VerifyError> {
        self.verify_counted(tuple, params, solution, now).0
    }

    /// [`Verifier::verify`] plus the number of hash operations charged
    /// (`1 + ⌈checked proofs⌉`: the pre-image recomputation and one hash
    /// per sub-solution inspected before success or first failure).
    pub fn verify_counted(
        &self,
        tuple: &ConnectionTuple,
        params: &ChallengeParams,
        solution: &Solution,
        now: u32,
    ) -> (Result<(), VerifyError>, u64) {
        if let Err(e) = self.precheck(params, solution, now) {
            return (Err(e), 0);
        }

        // Recompute the pre-image (1 hash) and check each sub-solution.
        let expected_len = params.preimage_len();
        let preimage = match &self.window {
            Some(prf) => compute_windowed_preimage(
                &self.backend,
                &prf.nonce(params.timestamp),
                tuple,
                expected_len,
            ),
            None => crate::challenge::compute_preimage(
                &self.backend,
                &self.secret,
                tuple,
                params.timestamp,
                expected_len,
            ),
        };
        let mut hashes = 1u64;
        for (i, proof) in solution.proofs().iter().enumerate() {
            let index = i as u8 + 1;
            let (ok, cost) = if self.oracle_proofs {
                let expected =
                    oracle_proof(&self.backend, self.algo, &self.secret, &preimage, index);
                (*proof == expected, self.algo.verify_hashes_per_proof())
            } else {
                let m = params.difficulty.m();
                self.algo
                    .check_proof(&self.backend, &preimage, m, index, proof)
            };
            hashes += cost;
            if !ok {
                return (Err(VerifyError::Invalid { index: i }), hashes);
            }
        }
        (Ok(()), hashes)
    }

    /// Verifies a batch of independent requests through the backend's
    /// batched hashing entry point.
    ///
    /// Semantics per request are identical to sequential
    /// [`Verifier::verify`] — same verdicts, same hash charges — but the
    /// hashing is organized into rounds of independent messages (all
    /// pre-images, then every request's first proof, then every survivor's
    /// second proof, …), the shape SIMD/multi-buffer backends consume. If
    /// a replay cache is attached, requests whose `(tuple, timestamp)` was
    /// already admitted are rejected with [`VerifyError::Replayed`] before
    /// any hashing, and every accepted request records its admission.
    pub fn verify_batch(&self, requests: &[VerifyRequest], now: u32) -> BatchOutcome {
        let mut scratch = BatchScratch::new();
        let hashes = self.verify_batch_core(requests, None, now, &mut scratch);
        BatchOutcome {
            verdicts: std::mem::take(&mut scratch.verdicts),
            hashes,
        }
    }

    /// [`Verifier::verify_batch`] writing into caller-owned scratch
    /// buffers instead of allocating the outcome.
    ///
    /// Returns the total hash operations charged; the per-request verdicts
    /// are left in [`BatchScratch::verdicts`] (request order). Reusing one
    /// scratch across batches makes steady-state verification
    /// allocation-free — this is the entry point the TCP listener's
    /// batched chokepoint drives.
    pub fn verify_batch_with(
        &self,
        requests: &[VerifyRequest],
        now: u32,
        scratch: &mut BatchScratch,
    ) -> u64 {
        self.verify_batch_core(requests, None, now, scratch)
    }

    /// Verifies a batch across `workers` scoped threads, partitioning
    /// requests by their replay key so every `(tuple, timestamp)` identity
    /// — and therefore every [`ReplayCache`] shard entry it touches — has
    /// a single worker: in-batch duplicate semantics stay deterministic
    /// and workers rarely contend on the same cache shard.
    ///
    /// Verdicts and hash charges are identical to [`Verifier::verify_batch`].
    /// `workers <= 1` (or a batch too small to split) degrades to the
    /// sequential engine.
    pub fn verify_batch_parallel(
        &self,
        requests: &[VerifyRequest],
        now: u32,
        workers: usize,
    ) -> BatchOutcome {
        let workers = workers.min(requests.len());
        if workers <= 1 {
            return self.verify_batch(requests, now);
        }
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); workers];
        for (i, (tuple, params, _)) in requests.iter().enumerate() {
            parts[replay_partition(tuple, params.timestamp, workers)].push(i as u32);
        }
        let results: Vec<(Vec<u32>, BatchScratch, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .into_iter()
                .filter(|p| !p.is_empty())
                .map(|part| {
                    s.spawn(move || {
                        let mut scratch = BatchScratch::new();
                        let hashes =
                            self.verify_batch_core(requests, Some(&part), now, &mut scratch);
                        (part, scratch, hashes)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verify worker panicked"))
                .collect()
        });
        let mut verdicts: Vec<Result<(), VerifyError>> = vec![Ok(()); requests.len()];
        let mut hashes = 0u64;
        for (part, scratch, h) in results {
            hashes += h;
            for (j, &idx) in part.iter().enumerate() {
                verdicts[idx as usize] = scratch.verdicts[j];
            }
        }
        BatchOutcome { verdicts, hashes }
    }

    /// The batch engine. `idxs` selects which requests this call handles
    /// (`None` = all, in order); verdict `j` in `scratch.verdicts`
    /// corresponds to request `idxs[j]`. Every buffer lives in `scratch`
    /// and is reused, so a warmed scratch makes this loop allocation-free.
    fn verify_batch_core(
        &self,
        requests: &[VerifyRequest],
        idxs: Option<&[u32]>,
        now: u32,
        scratch: &mut BatchScratch,
    ) -> u64 {
        let count = idxs.map_or(requests.len(), <[u32]>::len);
        let at = |j: usize| -> usize { idxs.map_or(j, |ix| ix[j] as usize) };

        scratch.verdicts.clear();
        scratch.live.clear();
        scratch.arena.clear();
        scratch.digests.clear();
        let mut hashes = 0u64;
        // Replay admissions age in the verifier's freshness frame (clock
        // units classically, window indices in windowed mode).
        let (frame_now, frame_age) = self.freshness_frame(now);
        // Windowed mode: at most two window nonces are live per batch
        // (precheck admits only the current and previous window), so a
        // two-slot memo keyed by window parity amortizes the HMAC.
        let mut nonce_memo: [Option<(u32, Digest)>; 2] = [None, None];

        // Round 0: freshness + structural checks and replay pre-screen (no
        // hashing); survivors get their pre-image message staged in the
        // arena as we go.
        for j in 0..count {
            let (tuple, params, solution) = &requests[at(j)];
            match self.precheck(params, solution, now) {
                Err(e) => scratch.verdicts.push(Err(e)),
                Ok(()) => {
                    if let Some(cache) = &self.replay {
                        if cache.contains(tuple, params.timestamp, frame_now, frame_age) {
                            scratch.verdicts.push(Err(VerifyError::Replayed));
                            continue;
                        }
                    }
                    scratch.verdicts.push(Ok(()));
                    scratch.live.push((j as u32, [0u8; 32]));
                    match &self.window {
                        Some(prf) => {
                            let w = params.timestamp;
                            let slot = &mut nonce_memo[(w & 1) as usize];
                            let nonce = match slot {
                                Some((cached_w, n)) if *cached_w == w => *n,
                                _ => {
                                    let n = prf.nonce(w);
                                    *slot = Some((w, n));
                                    n
                                }
                            };
                            push_windowed_preimage_message(&mut scratch.arena, &nonce, tuple);
                        }
                        None => push_preimage_message(
                            &mut scratch.arena,
                            &self.secret,
                            tuple,
                            params.timestamp,
                        ),
                    }
                }
            }
        }

        // Round 1: recompute every live request's pre-image (1 hash each).
        // The full digest is kept per live entry; its truncation to the
        // request's `l` bytes is taken on use.
        self.backend
            .sha256_arena(&scratch.arena, &mut scratch.digests);
        hashes += scratch.arena.len() as u64;
        for (entry, digest) in scratch.live.iter_mut().zip(&scratch.digests) {
            entry.1 = *digest;
        }

        // Rounds 2..: proof `round` of every still-live request, one batch
        // per round, dropping requests at their first invalid proof —
        // exactly the sequential early-exit, so hash charges match. The
        // algorithm stages `messages_per_proof` messages per live entry
        // (1 for prefix, the 2 pair halves for collide) and judges from
        // that many consecutive digests; charging `arena.len()` therefore
        // charges the per-algo cost automatically. The oracle stages
        // nothing, compares each proof to its MAC and charges the same
        // `messages_per_proof` per live entry.
        // Invariant: every `live` entry has more than `round` proofs.
        let mpp = self.algo.messages_per_proof();
        let mut round = 0usize;
        while !scratch.live.is_empty() {
            let index = round as u8 + 1;
            if self.oracle_proofs {
                hashes += (scratch.live.len() * mpp) as u64;
            } else {
                scratch.arena.clear();
                for (j, pre) in &scratch.live {
                    let (_, params, solution) = &requests[at(*j as usize)];
                    self.algo.stage_proof(
                        &mut scratch.arena,
                        &pre[..params.preimage_len()],
                        index,
                        &solution.proofs()[round],
                    );
                }
                scratch.digests.clear();
                self.backend
                    .sha256_arena(&scratch.arena, &mut scratch.digests);
                hashes += scratch.arena.len() as u64;
            }

            // Compact the live set in place (no fresh survivor vector).
            let mut kept = 0usize;
            for i in 0..scratch.live.len() {
                let (j, pre) = scratch.live[i];
                let (_, params, solution) = &requests[at(j as usize)];
                let ok = if self.oracle_proofs {
                    let pre = &pre[..params.preimage_len()];
                    solution.proofs()[round]
                        == oracle_proof(&self.backend, self.algo, &self.secret, pre, index)
                } else {
                    let m = params.difficulty.m();
                    self.algo.round_ok(&scratch.digests, i * mpp, &pre, m)
                };
                if !ok {
                    scratch.verdicts[j as usize] = Err(VerifyError::Invalid { index: round });
                } else if round + 1 < solution.len() {
                    scratch.live[kept] = (j, pre);
                    kept += 1;
                }
            }
            scratch.live.truncate(kept);
            round += 1;
        }

        // Record admissions; a duplicate inside this very batch loses.
        if let Some(cache) = &self.replay {
            for j in 0..count {
                if scratch.verdicts[j].is_ok() {
                    let (tuple, params, _) = &requests[at(j)];
                    if !cache.insert(tuple, params.timestamp, frame_now, frame_age) {
                        scratch.verdicts[j] = Err(VerifyError::Replayed);
                    }
                }
            }
        }

        hashes
    }

    /// The hash-free front of the pipeline: freshness window and
    /// structural validation.
    ///
    /// Freshness runs in the verifier's frame: in classic mode the
    /// timestamp is a clock reading aged against `max_age`; in windowed
    /// mode it is a window index and only the current and previous
    /// window pass (the strict acceptance window), so the `Expired` /
    /// `FutureTimestamp` fields are in window units there.
    #[inline]
    fn precheck(
        &self,
        params: &ChallengeParams,
        solution: &Solution,
        now: u32,
    ) -> Result<(), VerifyError> {
        // 1. Replay / freshness window.
        let (frame_now, frame_age) = self.freshness_frame(now);
        if params.timestamp > frame_now.saturating_add(self.future_skew) {
            return Err(VerifyError::FutureTimestamp {
                issued_at: params.timestamp,
                now: frame_now,
            });
        }
        if frame_now.saturating_sub(params.timestamp) > frame_age {
            return Err(VerifyError::Expired {
                issued_at: params.timestamp,
                now: frame_now,
                max_age: frame_age,
            });
        }

        // 2. Structural checks.
        let difficulty = params.difficulty;
        if params.preimage_bits == 0 || !params.preimage_bits.is_multiple_of(8) {
            return Err(VerifyError::BadParams(IssueError::BadPreimageLength(
                params.preimage_bits as u16,
            )));
        }
        if difficulty.m() >= params.preimage_bits {
            // The same diagnosis `validate_preimage_bits` gives at issue
            // time: the failure is the (m, l) relation, not the length.
            return Err(VerifyError::BadParams(
                IssueError::DifficultyExceedsPreimage {
                    m: difficulty.m(),
                    l: params.preimage_bits as u16,
                },
            ));
        }
        if solution.len() != difficulty.k() as usize {
            return Err(VerifyError::WrongSolutionCount {
                expected: difficulty.k(),
                got: solution.len(),
            });
        }
        // Proof lengths are per-algo (the collision puzzle carries a
        // nonce *pair*), so a cross-algo solution dies right here — the
        // "rejected cleanly, zero hashes" contract.
        let expected_len = self.algo.proof_len(params.preimage_len());
        for (i, proof) in solution.proofs().iter().enumerate() {
            if proof.len() != expected_len {
                return Err(VerifyError::BadSolutionLength { index: i });
            }
            if !self.algo.proof_well_formed(proof) {
                // e.g. a degenerate collision pair (a == b): trivially
                // "colliding", rejected for free.
                return Err(VerifyError::Invalid { index: i });
            }
        }
        Ok(())
    }
}

/// The simulation oracle's proof for sub-puzzle `index` (1-based) of a
/// `preimage.len()`-byte puzzle, in the wire shape `algo` expects:
/// `HMAC(secret, P ‖ i)` truncated to the pre-image length for
/// [`AlgoId::Prefix`]; for [`AlgoId::Collide`], the domain-separated pair
/// `HMAC(secret, P ‖ i ‖ "a")`, `HMAC(secret, P ‖ i ‖ "b")`, each
/// truncated, so the halves differ with overwhelming probability.
///
/// Simulated solving hosts mint proofs with this after modelling the
/// brute-force delay; a verifier built [`Verifier::with_oracle_proofs`]
/// recomputes it. Only the server secret can produce it, so binding to
/// the tuple and timestamp (through `P`) and forgery rejection hold as
/// in the real protocol.
pub fn oracle_proof<B: HashBackend>(
    backend: &B,
    algo: AlgoId,
    secret: &ServerSecret,
    preimage: &[u8],
    index: u8,
) -> Vec<u8> {
    let mac = |suffix: &[u8]| {
        let tag = backend.hmac_sha256_parts(secret.as_bytes(), &[preimage, &[index], suffix]);
        tag[..preimage.len()].to_vec()
    };
    match algo {
        AlgoId::Prefix => mac(&[]),
        AlgoId::Collide => [mac(b"a"), mac(b"b")].concat(),
    }
}

/// Worker index for a request's replay identity: the [`ReplayCache`]'s
/// own admission mix reduced modulo the worker count, so one worker owns
/// each `(tuple, timestamp)` key (and therefore each shard entry it
/// touches).
fn replay_partition(tuple: &ConnectionTuple, timestamp: u32, workers: usize) -> usize {
    (crate::replay::admission_mix(tuple, timestamp) % workers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::Solver;
    use std::net::Ipv4Addr;

    fn setup(k: u8, m: u8) -> (Verifier, ConnectionTuple, Challenge, Solution) {
        let secret = ServerSecret::from_bytes([11u8; 32]);
        let verifier = Verifier::new(secret).with_expiry(8);
        let tuple = ConnectionTuple::new(
            Ipv4Addr::new(172, 16, 0, 1),
            40000,
            Ipv4Addr::new(172, 16, 0, 2),
            8080,
            555,
        );
        let c = verifier
            .issue(&tuple, 100, Difficulty::new(k, m).unwrap(), 64)
            .unwrap();
        let out = Solver::new().solve(&c);
        (verifier, tuple, c, out.solution)
    }

    #[test]
    fn valid_solution_accepted() {
        let (v, t, c, s) = setup(2, 6);
        assert_eq!(v.verify(&t, &c.params(), &s, 100), Ok(()));
        assert_eq!(v.verify(&t, &c.params(), &s, 108), Ok(())); // boundary: age == max_age
    }

    #[test]
    fn expired_rejected() {
        let (v, t, c, s) = setup(1, 5);
        assert_eq!(
            v.verify(&t, &c.params(), &s, 109),
            Err(VerifyError::Expired {
                issued_at: 100,
                now: 109,
                max_age: 8
            })
        );
    }

    #[test]
    fn future_timestamp_rejected_unless_skew_allowed() {
        let (v, t, c, s) = setup(1, 5);
        assert_eq!(
            v.verify(&t, &c.params(), &s, 99),
            Err(VerifyError::FutureTimestamp {
                issued_at: 100,
                now: 99
            })
        );
        let lenient = v.clone().with_future_skew(2);
        assert_eq!(lenient.verify(&t, &c.params(), &s, 99), Ok(()));
    }

    #[test]
    fn wrong_tuple_rejected() {
        let (v, t, c, s) = setup(1, 6);
        let mut other = t;
        other.src_ip = Ipv4Addr::new(172, 16, 0, 99);
        assert_eq!(
            v.verify(&other, &c.params(), &s, 100),
            Err(VerifyError::Invalid { index: 0 })
        );
    }

    #[test]
    fn wrong_isn_rejected() {
        let (v, t, c, s) = setup(1, 6);
        let mut other = t;
        other.isn ^= 0xffff;
        assert!(v.verify(&other, &c.params(), &s, 100).is_err());
    }

    #[test]
    fn tampered_timestamp_rejected_by_hash_not_just_window() {
        // An attacker rewriting the timestamp to refresh an old solution
        // changes the pre-image, so verification fails (paper §5).
        let (v, t, c, s) = setup(1, 6);
        let mut p = c.params();
        p.timestamp = 104; // still inside the window
        assert_eq!(
            v.verify(&t, &p, &s, 104),
            Err(VerifyError::Invalid { index: 0 })
        );
    }

    #[test]
    fn wrong_count_rejected() {
        let (v, t, c, s) = setup(2, 5);
        let short = Solution::new(s.proofs()[..1].to_vec());
        assert_eq!(
            v.verify(&t, &c.params(), &short, 100),
            Err(VerifyError::WrongSolutionCount {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn bad_length_rejected() {
        let (v, t, c, _s) = setup(1, 5);
        let bad = Solution::new(vec![vec![0u8; 7]]);
        assert_eq!(
            v.verify(&t, &c.params(), &bad, 100),
            Err(VerifyError::BadSolutionLength { index: 0 })
        );
    }

    #[test]
    fn corrupted_proof_rejected() {
        let (v, t, c, s) = setup(2, 6);
        let mut proofs = s.proofs().to_vec();
        proofs[1][0] ^= 0x80;
        let tampered = Solution::new(proofs);
        // Either it accidentally still matches (p = 2^-6) or fails at 1;
        // with this fixed seed it fails.
        assert_eq!(
            v.verify(&t, &c.params(), &tampered, 100),
            Err(VerifyError::Invalid { index: 1 })
        );
    }

    #[test]
    fn different_secret_rejects() {
        let (_, t, c, s) = setup(1, 6);
        let other = Verifier::new(ServerSecret::from_bytes([12u8; 32])).with_expiry(8);
        assert!(other.verify(&t, &c.params(), &s, 100).is_err());
    }

    #[test]
    fn secret_debug_redacts() {
        let s = ServerSecret::from_bytes([0xaa; 32]);
        assert_eq!(format!("{s:?}"), "ServerSecret(..)");
    }

    #[test]
    fn generate_uses_fill() {
        let s = ServerSecret::generate(|b| b.copy_from_slice(&[7u8; 32]));
        assert_eq!(s, ServerSecret::from_bytes([7u8; 32]));
    }

    #[test]
    fn malformed_params_rejected() {
        let (v, t, _c, s) = setup(1, 6);
        let bad = ChallengeParams {
            difficulty: Difficulty::new(1, 6).unwrap(),
            preimage_bits: 6, // not a multiple of 8
            timestamp: 100,
        };
        assert!(matches!(
            v.verify(&t, &bad, &s, 100),
            Err(VerifyError::BadParams(_))
        ));
    }

    #[test]
    fn counted_hash_charges_match_paper_costs() {
        // Accepted: 1 pre-image + k sub-checks (d(p) upper bound).
        let (v, t, c, s) = setup(3, 6);
        let (res, hashes) = v.verify_counted(&t, &c.params(), &s, 100);
        assert_eq!(res, Ok(()));
        assert_eq!(hashes, 1 + 3);

        // Structurally rejected garbage costs nothing.
        let short = Solution::new(vec![vec![0u8; 8]]);
        let (res, hashes) = v.verify_counted(&t, &c.params(), &short, 100);
        assert!(res.is_err());
        assert_eq!(hashes, 0);

        // Corrupt first proof: 1 pre-image + 1 failing check.
        let mut proofs = s.proofs().to_vec();
        proofs[0][0] ^= 0x80;
        let (res, hashes) = v.verify_counted(&t, &c.params(), &Solution::new(proofs), 100);
        assert_eq!(res, Err(VerifyError::Invalid { index: 0 }));
        assert_eq!(hashes, 2);
    }

    #[test]
    fn explicit_backend_matches_default() {
        let (v, t, c, s) = setup(2, 6);
        let vb = Verifier::with_backend(ServerSecret::from_bytes([11u8; 32]), ScalarBackend)
            .with_expiry(8);
        assert_eq!(
            v.verify(&t, &c.params(), &s, 100),
            vb.verify(&t, &c.params(), &s, 100)
        );
    }

    #[test]
    fn batch_matches_sequential_verdicts_and_hashes() {
        let (v, t, c, s) = setup(2, 6);
        let mut bad = s.proofs().to_vec();
        bad[0][0] ^= 0x80;
        let requests: Vec<VerifyRequest> = vec![
            (t, c.params(), s.clone()),
            (t, c.params(), Solution::new(bad)),
            (t, c.params(), Solution::new(vec![])), // structural failure
        ];
        let out = v.verify_batch(&requests, 100);
        let mut seq_hashes = 0;
        for ((tuple, params, solution), verdict) in requests.iter().zip(&out.verdicts) {
            let (res, h) = v.verify_counted(tuple, params, solution, 100);
            assert_eq!(&res, verdict);
            seq_hashes += h;
        }
        assert_eq!(out.hashes, seq_hashes);
        assert_eq!(out.accepted(), 1);
    }

    #[test]
    fn batch_handles_mixed_difficulties() {
        let (v1, t1, c1, s1) = setup(1, 5);
        let (_, t3, c3, s3) = setup(3, 6);
        let out = v1.verify_batch(&[(t1, c1.params(), s1), (t3, c3.params(), s3)], 100);
        assert_eq!(out.verdicts, vec![Ok(()), Ok(())]);
        assert_eq!(out.hashes, (1 + 1) + (1 + 3));
    }

    #[test]
    fn empty_batch_is_free() {
        let (v, ..) = setup(1, 5);
        let out = v.verify_batch(&[], 100);
        assert!(out.verdicts.is_empty());
        assert_eq!(out.hashes, 0);
    }

    #[test]
    fn replay_cache_rejects_second_admission_for_free() {
        let (v, t, c, s) = setup(2, 6);
        let v = v.with_replay_cache(Arc::new(ReplayCache::new(4)));
        let req = vec![(t, c.params(), s)];

        let first = v.verify_batch(&req, 100);
        assert_eq!(first.verdicts, vec![Ok(())]);
        assert!(first.hashes > 0);

        // Same admission again: rejected before any hashing.
        let second = v.verify_batch(&req, 101);
        assert_eq!(second.verdicts, vec![Err(VerifyError::Replayed)]);
        assert_eq!(second.hashes, 0);

        // Past the window the entry ages out; the timestamp check now
        // rejects it anyway.
        let third = v.verify_batch(&req, 120);
        assert!(matches!(
            third.verdicts[0],
            Err(VerifyError::Expired { .. })
        ));
    }

    #[test]
    fn replay_cache_catches_duplicates_within_one_batch() {
        let (v, t, c, s) = setup(1, 6);
        let v = v.with_replay_cache(Arc::new(ReplayCache::new(4)));
        let out = v.verify_batch(&[(t, c.params(), s.clone()), (t, c.params(), s)], 100);
        assert_eq!(out.verdicts, vec![Ok(()), Err(VerifyError::Replayed)]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_outcome() {
        let (v, t, c, s) = setup(2, 6);
        let mut bad = s.proofs().to_vec();
        bad[0][0] ^= 0x80;
        let requests: Vec<VerifyRequest> = vec![
            (t, c.params(), s.clone()),
            (t, c.params(), Solution::new(bad)),
            (t, c.params(), Solution::new(vec![])),
        ];
        let fresh = v.verify_batch(&requests, 100);
        let mut scratch = BatchScratch::new();
        for _ in 0..3 {
            let hashes = v.verify_batch_with(&requests, 100, &mut scratch);
            assert_eq!(scratch.verdicts(), &fresh.verdicts[..]);
            assert_eq!(hashes, fresh.hashes);
            assert_eq!(scratch.accepted(), fresh.accepted());
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let secret = ServerSecret::from_bytes([11u8; 32]);
        let verifier = Verifier::new(secret).with_expiry(8);
        let d = Difficulty::new(2, 5).unwrap();
        let mut requests: Vec<VerifyRequest> = (0..24u16)
            .map(|i| {
                let tuple = ConnectionTuple::new(
                    Ipv4Addr::new(172, 16, 1, (i % 250) as u8 + 1),
                    40_000 + i,
                    Ipv4Addr::new(172, 16, 0, 2),
                    8080,
                    900 + u32::from(i),
                );
                let c = verifier.issue(&tuple, 100, d, 64).unwrap();
                let out = Solver::new().solve(&c);
                (tuple, c.params(), out.solution)
            })
            .collect();
        // Corrupt a few and duplicate one to exercise mixed verdicts.
        requests[3].2 = Solution::new(vec![]);
        let dup = requests[5].clone();
        requests.push(dup);

        let sequential = verifier.verify_batch(&requests, 100);
        for workers in [1, 2, 3, 8, 64] {
            let parallel = verifier.verify_batch_parallel(&requests, 100, workers);
            assert_eq!(parallel.verdicts, sequential.verdicts, "workers={workers}");
            assert_eq!(parallel.hashes, sequential.hashes, "workers={workers}");
        }
    }

    #[test]
    fn parallel_replay_duplicates_stay_deterministic() {
        let (v, t, c, s) = setup(1, 6);
        let v = v.with_replay_cache(Arc::new(ReplayCache::new(4)));
        // The same admission three times in one batch: exactly one wins,
        // and it is the first in request order (same worker handles all).
        let requests = vec![
            (t, c.params(), s.clone()),
            (t, c.params(), s.clone()),
            (t, c.params(), s),
        ];
        let out = v.verify_batch_parallel(&requests, 100, 4);
        assert_eq!(
            out.verdicts,
            vec![
                Ok(()),
                Err(VerifyError::Replayed),
                Err(VerifyError::Replayed)
            ]
        );
    }

    #[test]
    fn issue_batch_matches_sequential_issue() {
        let secret = ServerSecret::from_bytes([11u8; 32]);
        let verifier = Verifier::new(secret);
        let d = Difficulty::new(2, 17).unwrap();
        let tuples: Vec<ConnectionTuple> = (0..33u16)
            .map(|i| {
                ConnectionTuple::new(
                    Ipv4Addr::new(10, 2, (i / 200) as u8, (i % 200) as u8 + 1),
                    1024 + i,
                    Ipv4Addr::new(10, 0, 0, 2),
                    80,
                    u32::from(i) * 7,
                )
            })
            .collect();
        let mut scratch = IssueScratch::new();
        for _ in 0..2 {
            let params = verifier
                .issue_batch(&tuples, 42, d, 32, &mut scratch)
                .unwrap();
            assert_eq!(scratch.len(), tuples.len());
            for (i, tuple) in tuples.iter().enumerate() {
                let c = verifier.issue(tuple, 42, d, 32).unwrap();
                assert_eq!(c.params(), params, "shared params, tuple {i}");
                assert_eq!(
                    c.preimage(),
                    scratch.preimage(i),
                    "pre-image bytes, tuple {i}"
                );
            }
        }
    }

    #[test]
    fn issue_batch_rejects_bad_config_once() {
        let verifier = Verifier::new(ServerSecret::from_bytes([11u8; 32]));
        let d = Difficulty::new(1, 8).unwrap();
        let mut scratch = IssueScratch::new();
        assert_eq!(
            verifier
                .issue_batch(&[], 0, d, 12, &mut scratch)
                .unwrap_err(),
            IssueError::BadPreimageLength(12)
        );
        assert!(scratch.is_empty());
    }

    #[test]
    fn single_flow_verify_skips_replay_cache() {
        // The immutable per-flow path stays idempotent (documented):
        // repeat verification of the same solution succeeds.
        let (v, t, c, s) = setup(1, 6);
        let v = v.with_replay_cache(Arc::new(ReplayCache::new(4)));
        assert_eq!(v.verify(&t, &c.params(), &s, 100), Ok(()));
        assert_eq!(v.verify(&t, &c.params(), &s, 100), Ok(()));
    }

    #[test]
    fn precheck_reports_difficulty_exceeds_preimage() {
        // Regression: `m >= preimage_bits` used to be folded into the
        // structural `BadPreimageLength` arm, misreporting the failure.
        // It must diagnose the (m, l) relation like `validate_preimage_bits`.
        let (v, t, c, s) = setup(1, 6);
        let mut p = c.params();
        p.preimage_bits = 6; // not a multiple of 8: still a length error
        assert_eq!(
            v.verify(&t, &p, &s, 100),
            Err(VerifyError::BadParams(IssueError::BadPreimageLength(6)))
        );
        p.preimage_bits = 8; // multiple of 8, but m = 6 is too close…
        p.difficulty = Difficulty::new(1, 8).unwrap(); // …make m = l = 8
        assert_eq!(
            v.verify(&t, &p, &s, 100),
            Err(VerifyError::BadParams(
                IssueError::DifficultyExceedsPreimage { m: 8, l: 8 }
            ))
        );
    }

    fn setup_algo(algo: AlgoId, k: u8, m: u8) -> (Verifier, ConnectionTuple, Challenge, Solution) {
        let secret = ServerSecret::from_bytes([21u8; 32]);
        let verifier = Verifier::new(secret).with_expiry(8).with_algo(algo);
        let tuple = ConnectionTuple::new(
            Ipv4Addr::new(172, 16, 5, 1),
            41000,
            Ipv4Addr::new(172, 16, 0, 2),
            8080,
            777,
        );
        let c = verifier
            .issue(&tuple, 100, Difficulty::new(k, m).unwrap(), 64)
            .unwrap();
        let out = Solver::new().with_algo(algo).solve(&c);
        (verifier, tuple, c, out.solution)
    }

    #[test]
    fn collide_solutions_verify_with_per_pair_charges() {
        let (v, t, c, s) = setup_algo(AlgoId::Collide, 3, 8);
        assert_eq!(v.algo(), AlgoId::Collide);
        let (res, hashes) = v.verify_counted(&t, &c.params(), &s, 100);
        assert_eq!(res, Ok(()));
        // 1 pre-image + 2 hashes per checked pair.
        assert_eq!(hashes, 1 + 2 * 3);
    }

    #[test]
    fn collide_corrupt_pair_fails_with_early_exit_charge() {
        let (v, t, c, s) = setup_algo(AlgoId::Collide, 2, 10);
        let mut proofs = s.proofs().to_vec();
        proofs[0][0] ^= 0x80; // break the first pair's first nonce
        let (res, hashes) = v.verify_counted(&t, &c.params(), &Solution::new(proofs), 100);
        assert_eq!(res, Err(VerifyError::Invalid { index: 0 }));
        assert_eq!(hashes, 1 + 2, "pre-image + the one checked pair");
    }

    #[test]
    fn collide_degenerate_pair_rejected_free() {
        let (v, t, c, s) = setup_algo(AlgoId::Collide, 2, 8);
        let mut proofs = s.proofs().to_vec();
        // a == b trivially collides; the precheck must kill it for free.
        let half = proofs[1][..8].to_vec();
        proofs[1][8..].copy_from_slice(&half);
        let (res, hashes) = v.verify_counted(&t, &c.params(), &Solution::new(proofs), 100);
        assert_eq!(res, Err(VerifyError::Invalid { index: 1 }));
        assert_eq!(hashes, 0);
    }

    /// Cross-algo rejection: a valid solution for one algorithm
    /// presented to a verifier configured for the other dies in the
    /// structural precheck — no panic, zero hashes charged.
    #[test]
    fn cross_algo_solutions_rejected_structurally_for_free() {
        let (_, t, c, prefix_sol) = setup_algo(AlgoId::Prefix, 2, 8);
        let (_, _, _, collide_sol) = setup_algo(AlgoId::Collide, 2, 8);
        let secret = ServerSecret::from_bytes([21u8; 32]);
        let prefix_v = Verifier::new(secret.clone()).with_expiry(8);
        let collide_v = Verifier::new(secret)
            .with_expiry(8)
            .with_algo(AlgoId::Collide);
        let (res, hashes) = collide_v.verify_counted(&t, &c.params(), &prefix_sol, 100);
        assert_eq!(res, Err(VerifyError::BadSolutionLength { index: 0 }));
        assert_eq!(hashes, 0);
        let (res, hashes) = prefix_v.verify_counted(&t, &c.params(), &collide_sol, 100);
        assert_eq!(res, Err(VerifyError::BadSolutionLength { index: 0 }));
        assert_eq!(hashes, 0);
        // And the batch path agrees.
        let out = collide_v.verify_batch(&[(t, c.params(), prefix_sol)], 100);
        assert_eq!(
            out.verdicts,
            vec![Err(VerifyError::BadSolutionLength { index: 0 })]
        );
        assert_eq!(out.hashes, 0);
    }

    /// Batched ≡ sequential for the collision algorithm: same verdicts,
    /// same hash charges, across a mixed batch.
    #[test]
    fn collide_batch_matches_sequential_verdicts_and_hashes() {
        let (v, t, c, s) = setup_algo(AlgoId::Collide, 2, 8);
        let mut bad = s.proofs().to_vec();
        bad[1][0] ^= 0x40;
        let mut degenerate = s.proofs().to_vec();
        let half = degenerate[0][..8].to_vec();
        degenerate[0][8..].copy_from_slice(&half);
        let requests: Vec<VerifyRequest> = vec![
            (t, c.params(), s.clone()),
            (t, c.params(), Solution::new(bad)),
            (t, c.params(), Solution::new(degenerate)),
            (t, c.params(), Solution::new(vec![])), // structural failure
        ];
        let out = v.verify_batch(&requests, 100);
        let mut seq_hashes = 0;
        for ((tuple, params, solution), verdict) in requests.iter().zip(&out.verdicts) {
            let (res, h) = v.verify_counted(tuple, params, solution, 100);
            assert_eq!(&res, verdict);
            seq_hashes += h;
        }
        assert_eq!(out.hashes, seq_hashes);
        assert_eq!(out.accepted(), 1);
        // Parallel workers agree too.
        for workers in [2, 3, 8] {
            let par = v.verify_batch_parallel(&requests, 100, workers);
            assert_eq!(par.verdicts, out.verdicts, "workers={workers}");
            assert_eq!(par.hashes, out.hashes, "workers={workers}");
        }
    }

    #[test]
    fn windowed_mode_composes_with_collide() {
        let secret = ServerSecret::from_bytes([13u8; 32]);
        let v = Verifier::new(secret)
            .with_window(8)
            .with_algo(AlgoId::Collide);
        let tuple = ConnectionTuple::new(
            Ipv4Addr::new(172, 16, 0, 1),
            40000,
            Ipv4Addr::new(172, 16, 0, 2),
            8080,
            555,
        );
        let d = Difficulty::new(2, 6).unwrap();
        let c = v.issue_windowed(&tuple, 100, d, 64).unwrap();
        let s = Solver::new().with_algo(AlgoId::Collide).solve(&c).solution;
        assert_eq!(v.verify(&tuple, &c.params(), &s, 103), Ok(()));
        let batch = v.verify_batch(&[(tuple, c.params(), s.clone())], 103);
        assert_eq!(batch.verdicts, vec![Ok(())]);
        let (_, seq) = v.verify_counted(&tuple, &c.params(), &s, 103);
        assert_eq!(batch.hashes, seq);
    }

    fn setup_windowed(window_len: u32) -> (Verifier, ConnectionTuple) {
        let secret = ServerSecret::from_bytes([13u8; 32]);
        let verifier = Verifier::new(secret).with_window(window_len);
        let tuple = ConnectionTuple::new(
            Ipv4Addr::new(172, 16, 0, 1),
            40000,
            Ipv4Addr::new(172, 16, 0, 2),
            8080,
            555,
        );
        (verifier, tuple)
    }

    #[test]
    fn windowed_issue_binds_window_and_accepts_two_windows() {
        let (v, t) = setup_windowed(8);
        let d = Difficulty::new(1, 5).unwrap();
        let c = v.issue_windowed(&t, 100, d, 64).unwrap();
        // timestamp field carries the window index, not the clock.
        assert_eq!(c.params().timestamp, 100 / 8);
        let s = Solver::new().solve(&c).solution;
        // Anywhere inside the issuing window…
        assert_eq!(v.verify(&t, &c.params(), &s, 96), Ok(()));
        assert_eq!(v.verify(&t, &c.params(), &s, 103), Ok(()));
        // …and the whole next window (the "previous window" allowance)…
        assert_eq!(v.verify(&t, &c.params(), &s, 111), Ok(()));
        // …but two windows on, the strict acceptance window closes.
        assert_eq!(
            v.verify(&t, &c.params(), &s, 112),
            Err(VerifyError::Expired {
                issued_at: 12,
                now: 14,
                max_age: 1
            })
        );
    }

    #[test]
    fn windowed_future_window_rejected() {
        let (v, t) = setup_windowed(8);
        let d = Difficulty::new(1, 5).unwrap();
        let c = v.issue_windowed(&t, 104, d, 64).unwrap(); // window 13
        let s = Solver::new().solve(&c).solution;
        assert_eq!(
            v.verify(&t, &c.params(), &s, 100), // window 12: one early
            Err(VerifyError::FutureTimestamp {
                issued_at: 13,
                now: 12
            })
        );
    }

    #[test]
    fn windowed_nonce_rotation_invalidates_old_preimages() {
        // A challenge re-derived in a later window has a different
        // pre-image for the same tuple: the PRF nonce rotated.
        let (v, t) = setup_windowed(8);
        let d = Difficulty::new(1, 5).unwrap();
        let c0 = v.issue_windowed(&t, 100, d, 64).unwrap();
        let c1 = v.issue_windowed(&t, 108, d, 64).unwrap();
        assert_ne!(c0.preimage(), c1.preimage());
        // Same window: identical challenge (deterministic, stateless).
        assert_eq!(
            c0,
            v.issue_windowed(&t, 96, d, 64).unwrap(),
            "same window must re-derive the same challenge"
        );
    }

    #[test]
    fn windowed_batch_matches_sequential() {
        let (v, _) = setup_windowed(8);
        let d = Difficulty::new(2, 6).unwrap();
        let tuples: Vec<ConnectionTuple> = (0..5)
            .map(|i| {
                ConnectionTuple::new(
                    Ipv4Addr::new(10, 0, 0, 2),
                    4000 + i,
                    Ipv4Addr::new(10, 0, 0, 1),
                    80,
                    i as u32,
                )
            })
            .collect();
        // Batched issuance is byte-identical to sequential.
        let mut scratch = IssueScratch::new();
        let params = v
            .issue_batch_windowed(&tuples, 100, d, 64, &mut scratch)
            .unwrap();
        let mut requests = Vec::new();
        for (i, t) in tuples.iter().enumerate() {
            let c = v.issue_windowed(t, 100, d, 64).unwrap();
            assert_eq!(c.preimage(), scratch.preimage(i), "tuple {i}");
            assert_eq!(c.params(), params);
            let s = Solver::new().solve(&c).solution;
            requests.push((*t, c.params(), s));
        }
        // Corrupt one request so verdicts are not all-Ok.
        requests[3].2 = Solution::new(vec![vec![0u8; 8], vec![0u8; 8]]);
        let batch = v.verify_batch(&requests, 101);
        let mut seq_hashes = 0u64;
        for (i, (t, p, s)) in requests.iter().enumerate() {
            let (verdict, hashes) = v.verify_counted(t, p, s, 101);
            assert_eq!(batch.verdicts[i], verdict, "request {i}");
            seq_hashes += hashes;
        }
        assert_eq!(batch.hashes, seq_hashes);
    }

    #[test]
    fn windowed_replay_keyed_per_window() {
        let (v, t) = setup_windowed(8);
        let v = v.with_replay_cache(Arc::new(ReplayCache::new(4)));
        let d = Difficulty::new(1, 5).unwrap();
        let c = v.issue_windowed(&t, 100, d, 64).unwrap();
        let s = Solver::new().solve(&c).solution;
        let req = vec![(t, c.params(), s)];
        assert_eq!(v.verify_batch(&req, 100).verdicts[0], Ok(()));
        // Same (tuple, window): a replay, anywhere in the acceptance
        // window — even from the next window.
        assert_eq!(
            v.verify_batch(&req, 101).verdicts[0],
            Err(VerifyError::Replayed)
        );
        assert_eq!(
            v.verify_batch(&req, 110).verdicts[0],
            Err(VerifyError::Replayed)
        );
        // Next window: a fresh challenge for the same tuple is a new
        // replay identity and admits once.
        let c2 = v.issue_windowed(&t, 110, d, 64).unwrap();
        let s2 = Solver::new().solve(&c2).solution;
        let req2 = vec![(t, c2.params(), s2)];
        assert_eq!(v.verify_batch(&req2, 110).verdicts[0], Ok(()));
        assert_eq!(
            v.verify_batch(&req2, 110).verdicts[0],
            Err(VerifyError::Replayed)
        );
        // The cache holds one admission per (tuple, window).
        assert_eq!(v.replay_cache().unwrap().len(), 2);
    }
}
