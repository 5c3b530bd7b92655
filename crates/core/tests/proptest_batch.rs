//! Properties: `verify_batch` accepts/rejects exactly the same set as
//! sequential `verify`, with identical error verdicts and hash charges;
//! and a verifier checking oracle proofs reaches the same verdicts at the
//! same charges as one checking the algorithm's predicate, for every
//! request whose proof bytes are not themselves at stake.

use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;
use puzzle_core::{
    oracle_proof, AlgoId, ConnectionTuple, Difficulty, ReplayCache, ServerSecret, Solution, Solver,
    Verifier, VerifyError, VerifyRequest,
};
use puzzle_crypto::ScalarBackend;

fn arb_tuple() -> impl Strategy<Value = ConnectionTuple> {
    (
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
    )
        .prop_map(|(src, sp, dst, dp, isn)| {
            ConnectionTuple::new(Ipv4Addr::from(src), sp, Ipv4Addr::from(dst), dp, isn)
        })
}

/// `verify_batch` gives each request the verdict sequential
/// `verify_counted` gives it, and charges the sum of its hashes.
fn batch_matches_sequential(
    verifier: &Verifier,
    requests: &[VerifyRequest],
    ts: u32,
) -> Result<(), TestCaseError> {
    let out = verifier.verify_batch(requests, ts);
    prop_assert_eq!(out.verdicts.len(), requests.len());
    let mut sequential_hashes = 0u64;
    for ((tuple, params, solution), batch_verdict) in requests.iter().zip(&out.verdicts) {
        let (seq_verdict, hashes) = verifier.verify_counted(tuple, params, solution, ts);
        prop_assert_eq!(&seq_verdict, batch_verdict);
        sequential_hashes += hashes;
    }
    prop_assert_eq!(out.hashes, sequential_hashes);
    Ok(())
}

/// How one batched request is constructed: a fresh valid solution, or one
/// of the tamperings the sequential path classifies.
fn arb_mutation() -> impl Strategy<Value = u8> {
    0u8..6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batch verdicts and hash charges equal the sequential ones for
    /// arbitrary mixes of valid, tampered, stale, and malformed requests.
    #[test]
    fn batch_equals_sequential(
        tuples in prop::collection::vec(arb_tuple(), 1..8),
        mutations in prop::collection::vec(arb_mutation(), 1..8),
        k in 1u8..3,
        m in 1u8..7,
        ts in 100u32..1_000_000,
    ) {
        let secret = ServerSecret::from_bytes([9u8; 32]);
        let verifier = Verifier::new(secret).with_expiry(8);
        let difficulty = Difficulty::new(k, m).unwrap();

        let mut requests: Vec<VerifyRequest> = Vec::new();
        for (tuple, mutation) in tuples.iter().zip(mutations.iter().cycle()) {
            let challenge = verifier.issue(tuple, ts, difficulty, 64).unwrap();
            let solved = Solver::new().solve(&challenge);
            let mut params = challenge.params();
            let mut tuple = *tuple;
            let mut solution = solved.solution;
            match mutation {
                0 => {} // valid
                1 => {
                    // Corrupt the first proof.
                    let mut proofs = solution.proofs().to_vec();
                    proofs[0][0] ^= 0x80;
                    solution = Solution::new(proofs);
                }
                2 => {
                    // Corrupt the last proof.
                    let mut proofs = solution.proofs().to_vec();
                    proofs.last_mut().unwrap()[1] ^= 0x40;
                    solution = Solution::new(proofs);
                }
                3 => params.timestamp = ts.saturating_sub(100), // expired
                4 => solution = Solution::new(vec![]),          // wrong count
                _ => tuple.src_port ^= 1,                       // wrong tuple
            }
            requests.push((tuple, params, solution));
        }

        batch_matches_sequential(&verifier, &requests, ts)?;
    }

    /// The Real and the Oracle proof check differ only in the per-proof
    /// predicate. Each side answers every challenge with its own honest
    /// proofs, then the same mutation is applied to both: tuple,
    /// timestamp, count, length, pre-image bits, degenerate pair,
    /// in-batch duplicate, or a replay of an earlier batch. Verdicts and
    /// hash totals must be equal, and each side's batch must equal its
    /// own sequential `verify_counted`.
    #[test]
    fn oracle_proofs_match_real_proofs_off_the_predicate(
        tuples in prop::collection::vec(arb_tuple(), 1..8),
        mutations in prop::collection::vec(0u8..10, 1..8),
        collide in any::<bool>(),
        k in 1u8..3,
        m in 1u8..7,
        ts in 100u32..1_000_000,
    ) {
        let algo = if collide { AlgoId::Collide } else { AlgoId::Prefix };
        let secret = ServerSecret::from_bytes([9u8; 32]);
        let real = Verifier::new(secret.clone()).with_expiry(8).with_algo(algo);
        let oracle = real.clone().with_oracle_proofs();
        let difficulty = Difficulty::new(k, m).unwrap();

        // Per side: the batch that replays admissions, and the main batch.
        let mut earlier: [Vec<VerifyRequest>; 2] = Default::default();
        let mut batch: [Vec<VerifyRequest>; 2] = Default::default();
        for (tuple, mutation) in tuples.iter().zip(mutations.iter().cycle()) {
            let challenge = real.issue(tuple, ts, difficulty, 64).unwrap();
            let honest = [
                Solver::new().with_algo(algo).solve(&challenge).solution,
                Solution::new(
                    (1..=k)
                        .map(|i| oracle_proof(&ScalarBackend, algo, &secret, challenge.preimage(), i))
                        .collect(),
                ),
            ];
            let mut params = challenge.params();
            let mut tuple = *tuple;
            if *mutation == 1 {
                // Rebind to another tuple. A real proof still holds there
                // with the puzzle's own 2^-m forgery chance — not a
                // verify-path difference — so flip port bits until the
                // first real proof fails under the new binding.
                let original = tuple;
                for flip in 1u16.. {
                    tuple.src_port = original.src_port ^ flip;
                    let verdict = real.verify(&tuple, &params, &honest[0], ts);
                    if verdict == Err(VerifyError::Invalid { index: 0 }) {
                        break;
                    }
                }
            }
            match mutation {
                2 => params.timestamp = ts - 100,  // expired
                3 => params.timestamp = ts + 1,    // future
                6 => params.preimage_bits = 60,    // not whole bytes
                _ => {}
            }
            for (side, solution) in honest.into_iter().enumerate() {
                let mut proofs = solution.into_proofs();
                match mutation {
                    4 => {
                        // Wrong count.
                        proofs.pop();
                    }
                    5 => {
                        // Wrong length.
                        proofs.last_mut().unwrap().pop();
                    }
                    7 if algo == AlgoId::Collide => {
                        // Degenerate pair: a == b.
                        let last = proofs.last_mut().unwrap();
                        let half = last.len() / 2;
                        let (a, b) = last.split_at_mut(half);
                        b.copy_from_slice(a);
                    }
                    _ => {}
                }
                let request = (tuple, params, Solution::new(proofs));
                match mutation {
                    8 => batch[side].push(request.clone()), // in-batch duplicate
                    9 => earlier[side].push(request.clone()), // admitted earlier
                    _ => {}
                }
                batch[side].push(request);
            }
        }

        let cached = |v: &Verifier| v.clone().with_replay_cache(Arc::new(ReplayCache::default()));
        let (real_cached, oracle_cached) = (cached(&real), cached(&oracle));
        for requests in [&earlier, &batch] {
            let r = real_cached.verify_batch(&requests[0], ts);
            let o = oracle_cached.verify_batch(&requests[1], ts);
            prop_assert_eq!(&r.verdicts, &o.verdicts);
            prop_assert_eq!(r.hashes, o.hashes);
        }

        // The sequential reference covers both predicates.
        batch_matches_sequential(&real, &batch[0], ts)?;
        batch_matches_sequential(&oracle, &batch[1], ts)?;
    }
}
