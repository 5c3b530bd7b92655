//! Integration: the §7 closed-loop difficulty controller, live in the
//! simulated testbed through `PuzzleDefense`'s closed difficulty loop
//! (the `adaptive` defense spec) — difficulty escalates while a solving
//! botnet buys service too fast, throttles it, and relaxes after the
//! attack ends. The controller runs inside the listener's own policy
//! tick; the server only samples the difficulty it holds in force.

use tcp_puzzles::experiments::scenario::{DefenseSpec, Scenario, Timeline};
use tcp_puzzles::puzzle_core::Difficulty;

#[test]
fn controller_escalates_under_attack_and_relaxes_after() {
    let timeline = Timeline {
        total: 120.0,
        attack_start: 10.0,
        attack_stop: 50.0,
    };
    // Start easy (2, 12): a solving bot can buy ~100 admissions/s at this
    // price. Benign load (2 clients × 20 req/s) stays under the 60/s
    // target, so only attack traffic drives escalation.
    let defense = DefenseSpec::adaptive_between(2, 12, 20, 60.0, 10);
    let mut scenario = Scenario::standard(99, defense, &timeline);
    scenario.clients.truncate(2);
    scenario.attackers = Scenario::conn_flood_bots(2, 500.0, true, &timeline);
    let mut tb = scenario.build();
    tb.run_until_secs(timeline.total);

    let m_series = &tb.server_metrics().difficulty_m;
    let start_m = m_series.mean_between(1.0, 9.0);
    let late_attack_m = m_series.mean_between(35.0, 50.0);
    assert!(start_m <= 12.5, "pre-attack m ≈ floor, got {start_m}");
    assert!(
        late_attack_m >= 14.0,
        "controller should escalate under attack: m = {late_attack_m}"
    );

    // Escalation actually throttles the bots: their admission rate in the
    // late attack phase is far below the early (cheap-puzzle) phase.
    let est = tb
        .server_metrics()
        .established_rate_for(tb.attacker_addrs(), 1.0);
    let early = est.mean_rate_between(10.0, 18.0);
    let late = est.mean_rate_between(35.0, 50.0);
    assert!(
        late < early / 2.0,
        "early {early:.1} cps vs late {late:.1} cps"
    );

    // After the attack (and the controller hold), calm periods relax the
    // difficulty back toward the floor.
    let relaxed_m = m_series.mean_between(110.0, 120.0);
    assert!(
        relaxed_m < late_attack_m,
        "controller should relax after the attack: {relaxed_m} vs {late_attack_m}"
    );
}

/// The closed loop owns its knob: the sysctl analogue reports that it
/// did not stick, instead of silently no-opping (old `set_difficulty`
/// behaviour on non-puzzle modes).
#[test]
fn external_tuning_is_refused_under_closed_loop_control() {
    let timeline = Timeline::smoke();
    let mut scenario = Scenario::standard(7, DefenseSpec::adaptive(), &timeline);
    scenario.clients.truncate(1);
    let mut tb = scenario.build();
    tb.run_until_secs(1.0);
    let server = tb.server_mut();
    assert!(!server.set_difficulty(Difficulty::new(2, 19).expect("valid")));
}
