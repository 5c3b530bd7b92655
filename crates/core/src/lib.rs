//! Juels–Brainard client puzzles for TCP state-exhaustion resilience.
//!
//! This crate implements the cryptographic puzzle protocol of
//! *Revisiting Client Puzzles for State Exhaustion Attacks Resilience*
//! (Noureddine et al., DSN 2019), which in turn instantiates the scheme of
//! Juels & Brainard (NDSS 1999):
//!
//! 1. The server derives a **pre-image** `y = h(secret, T, packet-data)`
//!    from its secret key, the current timestamp `T`, and the connection's
//!    packet-level data (ISN, addresses, ports) — see [`Challenge`] and
//!    paper Figure 2. The challenge sent to the client is the first `l`
//!    bits of `y` together with the difficulty parameters `(k, m)`.
//! 2. The client brute-forces `k` **solutions** `s_1..s_k`, where solution
//!    `s_i` is an `l`-bit string such that the first `m` bits of
//!    `h(P ‖ i ‖ s_i)` equal the first `m` bits of `P` — see [`Solver`].
//! 3. The server **statelessly verifies** the returned solutions by
//!    recomputing `y` from the ACK packet's fields and checking each
//!    sub-solution — see [`Verifier`]. No per-connection state exists until
//!    a solution verifies, and an expiry window on `T` blocks replays
//!    (paper §5).
//!
//! The [`Difficulty`] type carries `(k, m)` and the paper's cost accounting:
//! ℓ(p) = k·2^(m−1) expected client hashes, g(p) = 1 generation hash,
//! d(p) = 1 + k/2 expected verification hashes (§4.1).
//!
//! # Quickstart
//!
//! ```
//! use puzzle_core::{Challenge, ConnectionTuple, Difficulty, ServerSecret, Solver, Verifier};
//!
//! let secret = ServerSecret::from_bytes([7u8; 32]);
//! let tuple = ConnectionTuple::new(
//!     "10.0.0.1".parse()?, 1234, "10.0.0.2".parse()?, 80, 0xdead_beef);
//! let difficulty = Difficulty::new(2, 8)?;
//!
//! // Server side: issue a challenge (1 hash, no state kept).
//! let challenge = Challenge::issue(&secret, &tuple, 42, difficulty, 64)?;
//!
//! // Client side: brute-force the k solutions.
//! let solved = Solver::new().solve(&challenge);
//!
//! // Server side: statelessly verify from the echoed fields.
//! let verifier = Verifier::new(secret).with_expiry(8);
//! assert!(verifier.verify(&tuple, &challenge.params(), &solved.solution, 43).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo;
mod challenge;
mod cost;
mod difficulty;
mod error;
mod replay;
mod solve;
mod tuple;
mod verify;

pub use algo::{AlgoId, CollideAlgo, PrefixAlgo, PuzzleAlgo};
pub use challenge::{
    compute_preimage, compute_windowed_preimage, validate_preimage_bits, Challenge,
    ChallengeParams, Solution, MAX_PREIMAGE_BITS,
};
pub use cost::{
    sample_solve_hashes, sample_solve_hashes_for, sample_sub_puzzle_hashes,
    sample_sub_puzzle_hashes_for, SolveCostModel,
};
pub use difficulty::Difficulty;
pub use error::{DifficultyError, IssueError, VerifyError};
pub use replay::{mix64, ReplayCache};
pub use solve::{solve_fits_budget, SolveOutcome, Solver};
pub use tuple::ConnectionTuple;
pub use verify::{
    oracle_proof, BatchOutcome, BatchScratch, IssueScratch, ServerSecret, Verifier, VerifyRequest,
};
