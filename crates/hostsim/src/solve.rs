//! How a simulated host produces puzzle solutions.

use netsim::rng::SimRng;
use puzzle_core::{
    oracle_proof, sample_solve_hashes_for, solve_fits_budget, Challenge, ChallengeParams,
    ConnectionTuple, Difficulty, ServerSecret, SolveCostModel, Solver,
};
use puzzle_crypto::ScalarBackend;
use tcpstack::ChallengeOption;

/// Strategy for producing the proof bytes of a challenge.
#[derive(Clone, Debug)]
pub enum SolveStrategy {
    /// Run the real brute-force solver and charge the *actual* hash count
    /// to the CPU model. Exact, but only practical at small `m` (tests,
    /// examples).
    Real,
    /// Mint proofs with the simulation oracle (requires the scenario to
    /// share the server secret) and charge a *sampled* hash count to the
    /// CPU model. Used for paper-scale difficulties like `(2, 17)`.
    Oracle {
        /// The server's secret, shared by the scenario harness.
        secret: ServerSecret,
        /// Distribution of the modelled brute-force cost.
        cost_model: SolveCostModel,
    },
}

/// A produced solution: proof bytes plus the hash count charged for them.
#[derive(Clone, Debug)]
pub struct SolvedProofs {
    /// Sub-solution bytes, in index order.
    pub proofs: Vec<Vec<u8>>,
    /// Hash operations the solve is modelled (or measured) to have cost.
    pub hashes: u64,
}

impl SolveStrategy {
    /// Produces proofs for `challenge` as received on flow
    /// `(tuple, issued_at)`, under the algorithm the challenge poses.
    ///
    /// # Panics
    ///
    /// Panics if the challenge parameters are malformed (`k = 0`,
    /// `m` out of range) — the listener never emits such challenges.
    pub fn solve(
        &self,
        tuple: &ConnectionTuple,
        challenge: &ChallengeOption,
        issued_at: u32,
        rng: &mut SimRng,
    ) -> SolvedProofs {
        self.solve_with_budget(tuple, challenge, issued_at, rng, u64::MAX)
            .expect("unbounded solve cannot exhaust its budget")
    }

    /// [`SolveStrategy::solve`] under a hash budget; returns `None` when
    /// the solve does not fit.
    ///
    /// Both strategies apply the workspace's single budget rule,
    /// [`puzzle_core::solve_fits_budget`] — the budget is *inclusive* of
    /// the final successful hash — so the real solver and the oracle's
    /// sampled cost can never disagree about the boundary case: a real
    /// solve of exactly `H` hashes and an oracle solve sampled at `H`
    /// both fit a budget of `H` and both miss `H − 1`.
    pub fn solve_with_budget(
        &self,
        tuple: &ConnectionTuple,
        challenge: &ChallengeOption,
        issued_at: u32,
        rng: &mut SimRng,
        budget: u64,
    ) -> Option<SolvedProofs> {
        let difficulty =
            Difficulty::new(challenge.k, challenge.m).expect("listener sent valid difficulty");
        match self {
            SolveStrategy::Real => {
                let params = ChallengeParams {
                    difficulty,
                    preimage_bits: challenge.l_bits(),
                    timestamp: issued_at,
                };
                let c = Challenge::from_wire(params, challenge.preimage.clone())
                    .expect("listener sent consistent challenge");
                let out = Solver::new()
                    .with_algo(challenge.algo)
                    .solve_with_budget(&c, budget)?;
                Some(SolvedProofs {
                    proofs: out.solution.proofs().to_vec(),
                    hashes: out.hashes,
                })
            }
            SolveStrategy::Oracle { secret, cost_model } => {
                let _ = tuple; // the oracle proof binds via the pre-image
                let mut f = || rng.next_f64();
                let hashes =
                    sample_solve_hashes_for(challenge.algo, difficulty, *cost_model, &mut f);
                if !solve_fits_budget(hashes, budget) {
                    return None;
                }
                let proofs = (1..=challenge.k)
                    .map(|i| {
                        oracle_proof(
                            &ScalarBackend,
                            challenge.algo,
                            secret,
                            &challenge.preimage,
                            i,
                        )
                    })
                    .collect();
                Some(SolvedProofs { proofs, hashes })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puzzle_core::AlgoId;
    use std::net::Ipv4Addr;

    fn tuple() -> ConnectionTuple {
        ConnectionTuple::new(
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            77,
        )
    }

    #[test]
    fn real_strategy_solves_verifiably() {
        let secret = ServerSecret::from_bytes([9; 32]);
        let d = Difficulty::new(2, 5).unwrap();
        let c = Challenge::issue(&secret, &tuple(), 3, d, 32).unwrap();
        let copt = ChallengeOption {
            k: 2,
            m: 5,
            preimage: c.preimage().to_vec(),
            timestamp: None,
            algo: AlgoId::Prefix,
        };
        let mut rng = SimRng::seed_from(1);
        let solved = SolveStrategy::Real.solve(&tuple(), &copt, 3, &mut rng);
        assert_eq!(solved.proofs.len(), 2);
        assert!(solved.hashes >= 2);
        for (i, p) in solved.proofs.iter().enumerate() {
            assert!(c.sub_solution_ok(i as u8 + 1, p));
        }
    }

    #[test]
    fn oracle_strategy_mints_core_oracle_proofs() {
        let secret = ServerSecret::from_bytes([4; 32]);
        let copt = ChallengeOption {
            k: 3,
            m: 17,
            preimage: vec![1, 2, 3, 4],
            timestamp: None,
            algo: AlgoId::Prefix,
        };
        let mut rng = SimRng::seed_from(2);
        let strategy = SolveStrategy::Oracle {
            secret: secret.clone(),
            cost_model: SolveCostModel::UniformPlacement,
        };
        let solved = strategy.solve(&tuple(), &copt, 5, &mut rng);
        assert_eq!(solved.proofs.len(), 3);
        for (i, p) in solved.proofs.iter().enumerate() {
            let expected = oracle_proof(
                &ScalarBackend,
                AlgoId::Prefix,
                &secret,
                &copt.preimage,
                i as u8 + 1,
            );
            assert_eq!(p, &expected);
        }
        // Modelled cost is in the plausible range for (3, 17):
        // 3 sub-puzzles × [1, 2^17] each.
        assert!(solved.hashes >= 3);
        assert!(solved.hashes <= 3 * (1 << 17));
    }

    #[test]
    fn oracle_cost_sampling_varies() {
        let secret = ServerSecret::from_bytes([4; 32]);
        let copt = ChallengeOption {
            k: 1,
            m: 10,
            preimage: vec![1, 2, 3, 4],
            timestamp: None,
            algo: AlgoId::Prefix,
        };
        let strategy = SolveStrategy::Oracle {
            secret,
            cost_model: SolveCostModel::UniformPlacement,
        };
        let mut rng = SimRng::seed_from(3);
        let costs: Vec<u64> = (0..32)
            .map(|_| strategy.solve(&tuple(), &copt, 5, &mut rng).hashes)
            .collect();
        let distinct: std::collections::HashSet<_> = costs.iter().collect();
        assert!(distinct.len() > 5, "cost should vary across solves");
    }

    #[test]
    fn oracle_collide_proofs_pair_and_cost_are_per_algo() {
        let secret = ServerSecret::from_bytes([6; 32]);
        let copt = ChallengeOption {
            k: 2,
            m: 16,
            preimage: vec![9, 8, 7, 6],
            timestamp: None,
            algo: AlgoId::Collide,
        };
        let strategy = SolveStrategy::Oracle {
            secret: secret.clone(),
            cost_model: SolveCostModel::UniformPlacement,
        };
        let mut rng = SimRng::seed_from(7);
        let solved = strategy.solve(&tuple(), &copt, 5, &mut rng);
        assert_eq!(solved.proofs.len(), 2);
        for (i, p) in solved.proofs.iter().enumerate() {
            assert_eq!(p.len(), 8, "pair of l-bit nonces");
            assert_ne!(p[..4], p[4..], "domain-separated halves differ");
            let expected = oracle_proof(
                &ScalarBackend,
                AlgoId::Collide,
                &secret,
                &copt.preimage,
                i as u8 + 1,
            );
            assert_eq!(p, &expected);
        }
        // Birthday-model cost: k pairs, each at least 2 hashes and far
        // below the prefix model's k·2^m ceiling.
        assert!(solved.hashes >= 4);
        assert!(solved.hashes < 2 * (1 << 16));
    }

    /// Satellite check: the budget boundary is identical — and inclusive —
    /// for the real solver and the oracle model, because both go through
    /// [`puzzle_core::solve_fits_budget`].
    #[test]
    fn budget_boundary_shared_by_real_and_oracle() {
        let secret = ServerSecret::from_bytes([9; 32]);
        for algo in AlgoId::ALL {
            let d = Difficulty::new(2, 6).unwrap();
            let c = Challenge::issue(&secret, &tuple(), 3, d, 32).unwrap();
            let copt = ChallengeOption {
                k: 2,
                m: 6,
                preimage: c.preimage().to_vec(),
                timestamp: None,
                algo,
            };
            let mut rng = SimRng::seed_from(11);
            let h = SolveStrategy::Real
                .solve(&tuple(), &copt, 3, &mut rng)
                .hashes;
            assert!(
                SolveStrategy::Real
                    .solve_with_budget(&tuple(), &copt, 3, &mut rng, h)
                    .is_some(),
                "{algo}: budget == H fits"
            );
            assert!(
                SolveStrategy::Real
                    .solve_with_budget(&tuple(), &copt, 3, &mut rng, h - 1)
                    .is_none(),
                "{algo}: budget == H-1 misses"
            );

            // Oracle: replay the same RNG stream so the sampled cost is
            // known, then probe the boundary with fresh copies.
            let strategy = SolveStrategy::Oracle {
                secret: secret.clone(),
                cost_model: SolveCostModel::UniformPlacement,
            };
            let oh = strategy
                .solve(&tuple(), &copt, 3, &mut SimRng::seed_from(5))
                .hashes;
            assert!(strategy
                .solve_with_budget(&tuple(), &copt, 3, &mut SimRng::seed_from(5), oh)
                .is_some());
            assert!(strategy
                .solve_with_budget(&tuple(), &copt, 3, &mut SimRng::seed_from(5), oh - 1)
                .is_none());
        }
    }
}
