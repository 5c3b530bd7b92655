//! Property test: the hierarchical timer wheel fires events in exactly
//! the order of the retained binary-heap reference — including
//! same-tick tie-breaks — over randomized schedule/advance traces.
//! A second property checks the wheel's payload slab: every pop hands
//! back the payload scheduled under its `seq`, and every payload is
//! dropped exactly once, whether popped or still pending when the wheel
//! is dropped.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use netsim::wheel::{HeapQueue, Scheduled, TimerWheel};
use netsim::SimTime;

/// One step of a queue workout.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule an event `delta` ns after the last popped time (0 ⇒ a
    /// same-tick tie with whatever else lands there).
    Schedule { delta: u64 },
    /// Pop everything due within the next `window` ns.
    Advance { window: u64 },
    /// Pop exactly one event regardless of time.
    PopOne,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Deltas spanning every wheel level: same-tick, sub-slot, and
        // far-future (minutes of simulated time).
        prop_oneof![
            Just(0u64),
            1u64..64,
            64u64..4096,
            4096u64..1_000_000,
            1_000_000u64..10_000_000_000,
            10_000_000_000u64..2_000_000_000_000,
        ]
        .prop_map(|delta| Op::Schedule { delta }),
        (0u64..100_000_000).prop_map(|window| Op::Advance { window }),
        Just(Op::PopOne),
    ]
}

/// Runs a trace against both queues, asserting identical pops. Events
/// are scheduled at `clock + delta` where `clock` tracks the last
/// popped timestamp — mirroring how the engine only ever schedules at
/// or after its current time.
fn run_trace(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut seq = 0u64;
    let mut clock = 0u64;
    for op in ops {
        match op {
            Op::Schedule { delta } => {
                let at = SimTime::from_nanos(clock.saturating_add(delta));
                wheel.schedule(at, seq, seq);
                heap.schedule(at, seq, seq);
                seq += 1;
            }
            Op::Advance { window } => {
                let deadline = SimTime::from_nanos(clock.saturating_add(window));
                loop {
                    let w = wheel.pop_before(deadline);
                    let h = heap.pop_before(deadline);
                    prop_assert_eq!(
                        w.as_ref().map(|e| (e.at, e.seq, e.item)),
                        h.as_ref().map(|e| (e.at, e.seq, e.item))
                    );
                    match w {
                        Some(ev) => clock = ev.at.as_nanos(),
                        None => break,
                    }
                }
                clock = clock.max(deadline.as_nanos());
            }
            Op::PopOne => {
                let w = wheel.pop();
                let h = heap.pop();
                prop_assert_eq!(
                    w.as_ref().map(|e| (e.at, e.seq, e.item)),
                    h.as_ref().map(|e| (e.at, e.seq, e.item))
                );
                if let Some(ev) = w {
                    clock = ev.at.as_nanos();
                }
            }
        }
        prop_assert_eq!(wheel.len(), heap.len());
    }
    // Drain: remaining events must come out in the same total order.
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        prop_assert_eq!(
            w.as_ref().map(|e| (e.at, e.seq, e.item)),
            h.as_ref().map(|e| (e.at, e.seq, e.item))
        );
        if w.is_none() {
            break;
        }
    }
    Ok(())
}

/// A payload that owns heap data derived from its `seq` and records
/// its own drop in a per-`seq` counter shared with the test.
struct Tracked {
    seq: u64,
    data: Vec<u64>,
    drops: Rc<RefCell<Vec<u32>>>,
}

impl Tracked {
    fn new(seq: u64, drops: &Rc<RefCell<Vec<u32>>>) -> Self {
        drops.borrow_mut().push(0);
        Tracked {
            seq,
            data: data_for(seq),
            drops: Rc::clone(drops),
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.borrow_mut()[self.seq as usize] += 1;
    }
}

fn data_for(seq: u64) -> Vec<u64> {
    (0..=seq % 5)
        .map(|i| seq.wrapping_mul(31).wrapping_add(i))
        .collect()
}

/// Checks a popped event against what was scheduled under its `seq`
/// (the payload is dropped on return) and yields its due time.
fn check_popped(
    ev: Scheduled<Tracked>,
    due: &[u64],
    drops: &RefCell<Vec<u32>>,
) -> Result<u64, TestCaseError> {
    prop_assert_eq!(ev.item.seq, ev.seq);
    prop_assert_eq!(&ev.item.data, &data_for(ev.seq));
    prop_assert_eq!(ev.at.as_nanos(), due[ev.seq as usize]);
    prop_assert_eq!(drops.borrow()[ev.seq as usize], 0);
    Ok(ev.at.as_nanos())
}

/// Runs a trace on the wheel alone with [`Tracked`] payloads. Each pop
/// must return the payload scheduled under the popped `seq`, at its
/// scheduled time, not yet dropped; interleaved schedules reuse the
/// slab entries those pops free. The wheel is then dropped with its
/// remaining events pending, and every payload must have been dropped
/// exactly once.
fn run_slab_trace(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let drops = Rc::new(RefCell::new(Vec::new()));
    let mut due = Vec::new();
    let mut wheel: TimerWheel<Tracked> = TimerWheel::new();
    let mut clock = 0u64;
    for op in ops {
        match op {
            Op::Schedule { delta } => {
                let seq = due.len() as u64;
                let at = clock.saturating_add(delta);
                due.push(at);
                wheel.schedule(SimTime::from_nanos(at), seq, Tracked::new(seq, &drops));
            }
            Op::Advance { window } => {
                let deadline = SimTime::from_nanos(clock.saturating_add(window));
                while let Some(ev) = wheel.pop_before(deadline) {
                    clock = check_popped(ev, &due, &drops)?;
                }
                clock = clock.max(deadline.as_nanos());
            }
            Op::PopOne => {
                if let Some(ev) = wheel.pop() {
                    clock = check_popped(ev, &due, &drops)?;
                }
            }
        }
    }
    let pending = wheel.len();
    let popped = drops.borrow().iter().filter(|&&n| n == 1).count();
    prop_assert_eq!(popped + pending, due.len());
    drop(wheel);
    prop_assert!(drops.borrow().iter().all(|&n| n == 1));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleavings of schedule/advance/pop fire identically
    /// on the wheel and the heap reference.
    #[test]
    fn wheel_matches_heap_reference(ops in prop::collection::vec(arb_op(), 1..120)) {
        run_trace(ops)?;
    }

    /// Dense same-tick bursts: many events on few distinct timestamps,
    /// so nearly every pop exercises the FIFO tie-break.
    #[test]
    fn same_tick_ties_fire_fifo(
        deltas in prop::collection::vec(0u64..4, 2..80),
        window in 1u64..16,
    ) {
        let mut ops: Vec<Op> = deltas.into_iter().map(|delta| Op::Schedule { delta }).collect();
        ops.push(Op::Advance { window });
        run_trace(ops)?;
    }

    /// The slab returns each `seq`'s own payload, through free-list
    /// reuse, and drops every payload exactly once.
    #[test]
    fn slab_payloads_round_trip_and_drop_once(ops in prop::collection::vec(arb_op(), 1..200)) {
        run_slab_trace(ops)?;
    }
}
