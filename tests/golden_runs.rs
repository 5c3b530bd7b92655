//! Golden-run regression suite: seeded digests of the standard
//! scenarios, committed as expectations.
//!
//! Each digest is a SHA-256 over every observable the figures read (see
//! `experiments::golden`). The values below were captured under the
//! original `BinaryHeap` event queue and pin the engine's behaviour:
//! the hierarchical timer wheel, all three hash backends
//! (`PUZZLE_BACKEND=scalar|multilane|shani` — exercised by the CI
//! backend matrix), and any future scheduler work must reproduce them
//! byte-for-byte. A mismatch means event order, RNG draw order, or
//! protocol behaviour changed; do not update an expectation unless that
//! change is intended and understood.

use tcp_puzzles::experiments::golden::{
    conn_flood_scenario, defended_conn_flood_scenario, defended_syn_flood_scenario, run_and_digest,
    standard_scenario, syn_flood_scenario,
};
use tcp_puzzles::experiments::scenario::DefenseSpec;

/// Seed used by every committed expectation.
const GOLDEN_SEED: u64 = 12345;

fn assert_digest(name: &str, actual: String, expected: &str) {
    assert_eq!(
        actual, expected,
        "golden run '{name}' drifted: expected {expected}, got {actual}. \
         If this change is intentional, update tests/golden_runs.rs."
    );
}

#[test]
fn golden_standard_load() {
    assert_digest(
        "standard",
        run_and_digest(standard_scenario(GOLDEN_SEED)),
        "c53e7574f22d34aadd8d4b738095a34c0a2e4898e1f8b4008622c135d77b5e14",
    );
}

#[test]
fn golden_syn_flood() {
    assert_digest(
        "syn_flood",
        run_and_digest(syn_flood_scenario(GOLDEN_SEED)),
        "5006adf5ae0beb3b0e5805b623c3802b88dcc8844129147a758a0da5dba1ed76",
    );
}

#[test]
fn golden_conn_flood() {
    assert_digest(
        "conn_flood",
        run_and_digest(conn_flood_scenario(GOLDEN_SEED)),
        "b10af12c4faf41bef5d22e94c1dd2a67cc87c1e41ee88ac1f62ba3fdd7dbd366",
    );
}

/// Every registered defence spec, run through the syn-flood and
/// conn-flood golden scenarios. The legacy four (none, syncache,
/// cookies, nash puzzles) digests were captured **before** the
/// `DefensePolicy` redesign replaced the listener's closed defence enum —
/// the composable pipeline must reproduce the enum-era behaviour
/// byte-for-byte. The `adaptive` and `stacked` rows pin the new
/// compositions' first capture, so the CI backend matrix asserts them
/// per hash backend like every other golden run.
#[test]
fn golden_defense_matrix() {
    let expectations: [(&str, &str, &str); 9] = [
        (
            "none",
            "9c9943d212af1c878e264228eb08d207baa008fd00d16d566a2726333449c107",
            "05aeb61934f9a847d5e7bddcc0f65011588e978d48a4f7619a5ecc93e0c7a040",
        ),
        (
            "syncache",
            "ebce1fb64be0a43052a6dc8564bb573785d7cd96bd66d03a29ac01ff90a3a190",
            "7fc339ad894d907fe69c75cc9b9265f575c36d4223ef91dc5551fd7026fd3903",
        ),
        (
            "cookies",
            "a6c0a46f706209a8673c23b12e69637b789ae96a5b40fdedd54708cdc38e414b",
            "23cc41a270a11974bd91be7b5bcc898af00b2be18204c81a061c5411e6320d43",
        ),
        (
            "nash",
            "5006adf5ae0beb3b0e5805b623c3802b88dcc8844129147a758a0da5dba1ed76",
            "b10af12c4faf41bef5d22e94c1dd2a67cc87c1e41ee88ac1f62ba3fdd7dbd366",
        ),
        (
            "adaptive",
            "fb0b25d511797ffe3f5af46f5ea61df1dca8ed105c20c32fbea01365900a0a78",
            "a95f9601b5382a84fafd8b04fb92aa602bf973e7cbc2a74095c47c7da8a4ff5e",
        ),
        (
            "stacked",
            "0cc5b1b304ee325a81a8da1bd6bd61e90bc04429c776b6eedfb1fa6eaf5a3e13",
            "6cbb90193b9b03a5e8ed75b68f105a5d850ad27245b434e76f6ed7ef2e436b6f",
        ),
        // First capture of the near-stateless windowed policy. The
        // digests deliberately *equal* the `nash` pins: at the same
        // (2, 17) difficulty the windowed issuance preserves every
        // digested observable — admissions, rejections, verify-hash
        // charges, queue dynamics — and differs only in the timestamp
        // encoding (window index vs clock seconds) and the per-window
        // nonce charge in `issue_hashes`, neither of which the frozen
        // capture format includes. A drift here that does not also move
        // `nash` means the windowed path stopped being
        // behaviour-preserving.
        (
            "stateless-puzzles",
            "5006adf5ae0beb3b0e5805b623c3802b88dcc8844129147a758a0da5dba1ed76",
            "b10af12c4faf41bef5d22e94c1dd2a67cc87c1e41ee88ac1f62ba3fdd7dbd366",
        ),
        // First capture of the asymmetric collision puzzle at the
        // attacker-cost-equivalent (2, 26) of the Nash (2, 17) prefix
        // point. The digests legitimately differ from `nash`: the algo
        // byte lengthens the challenge option, solution proofs are
        // twice as long, verify charges 2 tags per sub-solution, and
        // the oracle samples Rayleigh-distributed solve costs.
        (
            "puzzles-collide",
            "a51c9ab9a03e23500fa727263752ad6ccfe78b8569a610b1ca098fd4a3c7ac75",
            "182cf629f7fb5fc7edae815694758eb0da9b349313d9bc945c2a21f00fef7479",
        ),
        // Equal to the `puzzles-collide` pins by design — the same
        // windowed-issuance behaviour-preservation argument as
        // `stateless-puzzles` vs `nash` above.
        (
            "stateless-collide",
            "a51c9ab9a03e23500fa727263752ad6ccfe78b8569a610b1ca098fd4a3c7ac75",
            "182cf629f7fb5fc7edae815694758eb0da9b349313d9bc945c2a21f00fef7479",
        ),
    ];
    assert_eq!(
        expectations.len(),
        DefenseSpec::registered().len(),
        "every registered defense spec needs a golden pin"
    );
    for (name, syn_expected, conn_expected) in expectations {
        let spec = DefenseSpec::by_name(name).expect("registered name resolves");
        assert_digest(
            &format!("syn_flood/{name}"),
            run_and_digest(defended_syn_flood_scenario(GOLDEN_SEED, spec.clone())),
            syn_expected,
        );
        assert_digest(
            &format!("conn_flood/{name}"),
            run_and_digest(defended_conn_flood_scenario(GOLDEN_SEED, spec)),
            conn_expected,
        );
    }
}

#[test]
fn identical_seeds_identical_runs() {
    assert_eq!(
        run_and_digest(conn_flood_scenario(777)),
        run_and_digest(conn_flood_scenario(777)),
    );
}

#[test]
fn different_seeds_differ() {
    assert_ne!(
        run_and_digest(conn_flood_scenario(1)),
        run_and_digest(conn_flood_scenario(2)),
        "distinct seeds must yield distinct traces"
    );
}

/// The same defense matrix re-run with the server's listener split into
/// four RSS-style shards (`ServerParams::shards = 4`). These are
/// first-capture pins of the sharded configuration: per-shard ISN
/// counters and 1/4-sliced backlogs legitimately change the traces, so
/// the digests differ from the `shards = 1` pins above — but they must
/// be byte-stable across engines and hash backends just like every
/// other golden run (the CI backend matrix asserts both shard counts).
/// The shards=4 defense-matrix pins, shared by the in-line and
/// persistent-pipeline variants below: the step pipeline decides where
/// shard stepping runs, never what it produces, so both must reproduce
/// the same digests byte-for-byte.
const SHARDS4_EXPECTATIONS: [(&str, &str, &str); 9] = [
    (
        "none",
        "92efbc71b8898e2a68deb4a07242840b2f8c48633998e06b88c7dc76ed96da89",
        "1a75c4361b46fb51e8d235510e8aeb4db11de9d3d9b5437f0d023edb807b2609",
    ),
    (
        "syncache",
        "64e78d621899b069d85935b264a9545e34054792fbcd6f903c14b5bd1cf89608",
        "c9ea85752fb53ee89ad463b844e49e7cc10368331ea8ca1bc4ff26ccb6fb65ad",
    ),
    (
        "cookies",
        "cef05efc33ec31a62a07f88e4e5bc7ffacc822bc5ec35480b547b3cbc88fd2bc",
        "be548ab09e48f1021f96f86508b36c8de3ad693ef6a812d2924b2aa8e53cd9bd",
    ),
    (
        "nash",
        "85906e5cb5c6e7daf042d839dc0143b4bfd0e1ec3e47c1a67bf2b6a31e7729b4",
        "0116d3f25632634ab885131134da1ca0b4e3d8cce338885c2919f8d8d42b644e",
    ),
    (
        "adaptive",
        "88c4c382c541986d7984bd0a8a6125403bf0eb688cb185504258055d4e825816",
        "c36020ae1f3d1168a9a1f8f5b2bb5e56289da273b5f2338693444bed1bf99d40",
    ),
    (
        "stacked",
        "f6993539fa5e88821abbb2a65b21c499a4031a999446140b32250601d9a69cf2",
        "d9fefb75ea15048917e91dbb38e9e546ccaa1a3b0d9e51182c36b7c12b63f8ff",
    ),
    // Equal to the `nash` shards=4 pins by design — see the shards=1
    // matrix above for why the windowed policy's first capture collides
    // with classic puzzles on every digested observable.
    (
        "stateless-puzzles",
        "85906e5cb5c6e7daf042d839dc0143b4bfd0e1ec3e47c1a67bf2b6a31e7729b4",
        "0116d3f25632634ab885131134da1ca0b4e3d8cce338885c2919f8d8d42b644e",
    ),
    // First capture of the collision puzzle at shards=4 — see the
    // shards=1 matrix for why these differ from `nash` and why
    // `stateless-collide` collides with `puzzles-collide`.
    (
        "puzzles-collide",
        "7284889b2fa81d123b1bbe36526a29ddd62d02c990e2cb8d9a7970e618a766b2",
        "4c612b00e5aed8706efd3386e420192eb8ddd77f2b010ea298e6651d1e091749",
    ),
    (
        "stateless-collide",
        "7284889b2fa81d123b1bbe36526a29ddd62d02c990e2cb8d9a7970e618a766b2",
        "4c612b00e5aed8706efd3386e420192eb8ddd77f2b010ea298e6651d1e091749",
    ),
];

fn run_shards4_matrix(pipeline: tcp_puzzles::tcpstack::ShardPipeline, tag: &str) {
    use tcp_puzzles::experiments::golden::sharded_pipeline;
    assert_eq!(
        SHARDS4_EXPECTATIONS.len(),
        DefenseSpec::registered().len(),
        "every registered defense spec needs a shards=4 golden pin"
    );
    for (name, syn_expected, conn_expected) in SHARDS4_EXPECTATIONS {
        let spec = DefenseSpec::by_name(name).expect("registered name resolves");
        assert_digest(
            &format!("syn_flood/{name}/shards4/{tag}"),
            run_and_digest(sharded_pipeline(
                defended_syn_flood_scenario(GOLDEN_SEED, spec.clone()),
                4,
                pipeline,
            )),
            syn_expected,
        );
        assert_digest(
            &format!("conn_flood/{name}/shards4/{tag}"),
            run_and_digest(sharded_pipeline(
                defended_conn_flood_scenario(GOLDEN_SEED, spec),
                4,
                pipeline,
            )),
            conn_expected,
        );
    }
}

#[test]
fn golden_defense_matrix_shards4() {
    run_shards4_matrix(tcp_puzzles::tcpstack::ShardPipeline::Inline, "inline");
}

/// The same pins re-run with `ShardPipeline::Persistent` forced: the
/// persistent worker pipeline (SPSC rings + long-lived shard threads)
/// must reproduce the in-line digests byte-for-byte on any host,
/// including single-core runners where `Auto` would prove nothing.
#[test]
fn golden_defense_matrix_shards4_persistent() {
    run_shards4_matrix(
        tcp_puzzles::tcpstack::ShardPipeline::Persistent,
        "persistent",
    );
}

/// One small matrix cell per fleet behaviour the `sim_matrix` cells do
/// not reach: a solving `BotFleet` connection flood, a replay flood, a
/// solution flood, an unspoofed SYN flood, a non-solving `ClientFleet`,
/// and a `ClientFleet` whose SYNs an undefended server drops, so it
/// retransmits. Each cell also asserts that it exercises what it is
/// named for, so a pin cannot go stale by silently skipping its path.
/// These were captured before the three client implementations were
/// folded onto `tcpstack::client`'s shared handshake core, and must
/// reproduce byte-for-byte after it.
#[test]
fn golden_fleet_kinds() {
    use tcp_puzzles::experiments::golden::digest_testbed;
    use tcp_puzzles::experiments::scenario::{
        client_fleet_base, oracle_strategy, Matrix, Timeline, SERVER_IP,
    };
    use tcp_puzzles::hostsim::{ClientFleetParams, FleetAttack, SolveBehavior};
    use tcp_puzzles::netsim::SimDuration;

    let timeline = Timeline::smoke();
    let matrix = Matrix::new(timeline).clients(2);
    let nash = DefenseSpec::nash();
    let conn = |solve| FleetAttack::ConnFlood {
        rate: 300.0,
        solve,
        conn_timeout: SimDuration::from_secs(1),
        ack_delay: SimDuration::ZERO,
    };
    let client_fleet = |behavior| {
        let mut p = ClientFleetParams::population(client_fleet_base(0), SERVER_IP, 2, behavior);
        p.flows = 64;
        p
    };

    // (name, defence, attack, flows, backlog 0 forces challenges,
    // client fleet, expected digest)
    let cells = [
        (
            "conn-flood-solving",
            nash.clone(),
            conn(Some(oracle_strategy())),
            500,
            true,
            None,
            "2fe48ddbdadfc52c235537ad102f6f02a73ab5f1999a8dc66154cec4cd2a2faf",
        ),
        (
            "replay-flood",
            nash.clone(),
            FleetAttack::ReplayFlood {
                rate: 2_000.0,
                solve: oracle_strategy(),
            },
            200,
            true,
            None,
            "9253c6f1bfe5f3aa308a7d27333e5cf2ba9a38d6c375490db0a92f6ddc2a8db5",
        ),
        (
            "solution-flood",
            nash.clone(),
            FleetAttack::SolutionFlood {
                rate: 2_000.0,
                k: 2,
                sol_len: 4,
            },
            1_000,
            false,
            None,
            "37fcefa394aab6dc34bde40c41057241c5a87a48bd6c98e22fe813b15a6d92c1",
        ),
        (
            "syn-flood-unspoofed",
            nash.clone(),
            FleetAttack::SynFlood {
                rate: 2_000.0,
                spoof: false,
            },
            1_000,
            false,
            None,
            "06a871ea35f99c793ce8fe658ba86a77b4c5d69940952971dd3fdfc0bc6c16e2",
        ),
        (
            "client-fleet-ignore",
            nash.clone(),
            conn(None),
            500,
            true,
            Some(client_fleet(SolveBehavior::Ignore)),
            "43e7701d9f872f3fd950b828964610653bb5d142587ad57f8d4c86960f7facec",
        ),
        (
            "client-fleet-retransmit",
            DefenseSpec::none(),
            FleetAttack::SynFlood {
                rate: 2_000.0,
                spoof: true,
            },
            1_000,
            false,
            Some(client_fleet(SolveBehavior::Solve(oracle_strategy()))),
            "0385ff157cebf0402f55164b179cac8b8809e14a7bfd9fbfce371e7b89d9fb35",
        ),
    ];
    for (name, defense, attack, flows, force_challenges, fleet, expected) in cells {
        let mut s = matrix.cell_scenario(&defense, &attack, flows, GOLDEN_SEED);
        if force_challenges {
            s.server.backlog = 0;
        }
        let fleet_cell = fleet.is_some();
        if let Some(p) = fleet {
            s.clients.clear();
            s.client_fleets = vec![p];
        }
        let mut tb = s.build();
        tb.run_until_secs(timeline.total);

        let bots = tb.bot_fleets().next().expect("bot fleet").stats().clone();
        let listener = tb.server().listener_stats();
        match name {
            "conn-flood-solving" | "replay-flood" => {
                assert!(bots.solves > 0, "{name}: bots must solve");
            }
            "solution-flood" => assert!(listener.verify_failures > 0, "{name}: forgeries verify"),
            _ => {}
        }
        if fleet_cell {
            let cf = tb
                .client_fleets()
                .next()
                .expect("client fleet")
                .stats()
                .clone();
            assert!(cf.established > 0, "{name}: client fleet establishes");
            if name == "client-fleet-retransmit" {
                // Every first SYN is either a bot's or a fleet request's;
                // anything the listener saw beyond those is a retransmission.
                assert!(
                    listener.syns_received > bots.packets_sent + cf.started,
                    "{name}: {} SYNs received, {} first SYNs sent",
                    listener.syns_received,
                    bots.packets_sent + cf.started
                );
            }
        }
        assert_digest(
            &format!("fleet_kinds/{name}"),
            digest_testbed(&tb),
            expected,
        );
    }
}
