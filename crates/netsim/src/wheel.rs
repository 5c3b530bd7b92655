//! Event queues for the simulation engine: the hierarchical timer wheel
//! (production) and the binary heap it replaced (retained as the
//! reference implementation for equivalence testing).
//!
//! Both queues order events by `(time, seq)` — `seq` is the engine's
//! monotone scheduling counter, so same-tick events fire in FIFO
//! scheduling order. The wheel provides O(1) schedule and amortized
//! O(1) pop regardless of population, which is what lets the engine
//! carry hundreds of thousands of pending timers (fleet-scale
//! scenarios) without the `log n` heap tax on every operation.
//!
//! # Wheel layout
//!
//! Eleven levels of 64 slots, 6 bits per level, covering the full
//! `u64` nanosecond timeline. An event due at `at` is filed at the
//! *highest* level where `at` still differs from the wheel's current
//! time `now` — i.e. the level holding the most significant differing
//! 6-bit group — at slot `(at >> 6·level) & 63`. As `now` advances
//! into an event's 64^level block, the slot *cascades*: its events
//! re-file at lower levels, preserving insertion order. A level-0 slot
//! within the current 64-tick window therefore holds events of exactly
//! one timestamp, in seq order, and popping is a vector drain.
//!
//! Finding the next event is O(levels) via per-level occupancy bitmaps
//! (one `u64` per level; `trailing_zeros` locates the first occupied
//! slot at or after the cursor).
//!
//! # Storage
//!
//! An event is filed about three times on average (once when scheduled,
//! then once per cascade), so the slots hold 16-byte `(at, idx)`
//! handles and the payload stays put: `schedule` writes `(seq, item)`
//! into a slab entry once, and the pop takes it out once and threads
//! the entry onto a free list. The slab grows 1024 entries at a time,
//! never by reallocating, so growth copies nothing and the peak holds
//! no second copy. A cascade drains its slot in place: the slot keeps
//! its buffer, and once every slot has held the most handles it will
//! see, schedule and pop allocate nothing
//! (`tests/wheel_zero_alloc.rs`).
//!
//! # Ordering proof sketch
//!
//! Same-timestamp events always meet in the same slot in seq order:
//! the level assigned to `at` against a monotonically advancing `now`
//! is non-increasing over time, and a level can only drop once `now`
//! enters the corresponding block of `at` — which is exactly when that
//! slot cascades. So a later-scheduled event (higher seq) is always
//! appended at or below the level currently holding earlier events
//! with the same timestamp, joining the same vectors behind them. The
//! property test in `tests/proptest_wheel.rs` checks this against the
//! heap reference over randomized traces.

use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 11; // 11 * 6 = 66 bits ≥ the 64-bit tick space
/// Slab entries per chunk. The slab grows a chunk at a time so that no
/// growth step copies the entries already there.
const CHUNK: usize = 1024;
/// End of the slab's free list.
const NIL: u32 = u32::MAX;

/// An entry in either queue: `(at, seq)` plus the caller's payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scheduled<T> {
    /// Due time.
    pub at: SimTime,
    /// Engine scheduling counter; breaks same-tick ties FIFO.
    pub seq: u64,
    /// Caller payload (the engine's event kind).
    pub item: T,
}

/// What a wheel slot holds: the due tick and the slab index of the
/// event's `(seq, item)`.
#[derive(Clone, Copy, Debug)]
struct Handle {
    at: u64,
    idx: u32,
}

/// A slab entry: a pending event's payload, or a link in the free list.
#[derive(Debug)]
enum Entry<T> {
    Pending { seq: u64, item: T },
    Free { next: u32 },
}

/// Hierarchical timer wheel keyed by `(SimTime, seq)`.
///
/// See the module docs for the layout. The wheel has an internal
/// cursor `now` that only moves forward; scheduling in the cursor's
/// past is a bug in the caller (the engine never rewinds its clock)
/// and panics in debug builds.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// Current cursor tick (nanoseconds). Events at `now` are legal.
    now: u64,
    /// `slots[level][slot]` — handles of the events filed there.
    slots: Vec<Vec<VecDeque<Handle>>>,
    /// Per-level occupancy bitmaps (bit `s` set ⇔ `slots[level][s]`
    /// non-empty).
    occupied: [u64; LEVELS],
    /// Event payloads, `CHUNK` entries per chunk; only the last chunk
    /// may be partly filled.
    slab: Vec<Vec<Entry<T>>>,
    /// Head of the free list threaded through `Entry::Free`.
    free: u32,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel with its cursor at t = 0.
    pub fn new() -> Self {
        TimerWheel {
            now: 0,
            slots: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| VecDeque::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            slab: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's current cursor.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// The level an event due at tick `at` files under, given cursor
    /// `now`: the highest 6-bit group where they differ (level 0 when
    /// equal — the event is due on the current tick).
    fn level_for(now: u64, at: u64) -> usize {
        let diff = now ^ at;
        if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros()) as usize / SLOT_BITS as usize
        }
    }

    fn file(&mut self, h: Handle) {
        let level = Self::level_for(self.now, h.at);
        let slot = (h.at >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1);
        self.slots[level][slot].push_back(h);
        self.occupied[level] |= 1 << slot;
    }

    fn entry(&mut self, idx: u32) -> &mut Entry<T> {
        let idx = idx as usize;
        &mut self.slab[idx / CHUNK][idx % CHUNK]
    }

    /// Stores a payload in a free slab entry (or a fresh one at the end
    /// of the last chunk) and returns its index.
    fn insert(&mut self, seq: u64, item: T) -> u32 {
        let pending = Entry::Pending { seq, item };
        if self.free != NIL {
            let idx = self.free;
            match std::mem::replace(self.entry(idx), pending) {
                Entry::Free { next } => self.free = next,
                Entry::Pending { .. } => unreachable!("free list names a pending entry"),
            }
            return idx;
        }
        if self.slab.last().is_none_or(|c| c.len() == CHUNK) {
            self.slab.push(Vec::with_capacity(CHUNK));
        }
        let last = self.slab.len() - 1;
        let chunk = &mut self.slab[last];
        let idx = last * CHUNK + chunk.len();
        chunk.push(pending);
        u32::try_from(idx)
            .ok()
            .filter(|&i| i != NIL)
            .expect("timer wheel slab exceeds u32 indices")
    }

    /// Takes the payload out of entry `idx` and frees the entry.
    fn remove(&mut self, idx: u32) -> (u64, T) {
        let next = self.free;
        self.free = idx;
        match std::mem::replace(self.entry(idx), Entry::Free { next }) {
            Entry::Pending { seq, item } => (seq, item),
            Entry::Free { .. } => unreachable!("wheel handle names a free entry"),
        }
    }

    /// Schedules an event. O(1).
    ///
    /// `at` must not precede the cursor (the engine only schedules at
    /// or after its clock, and the cursor never outruns the clock
    /// beyond the last deadline it was asked about).
    pub fn schedule(&mut self, at: SimTime, seq: u64, item: T) {
        let at = at.as_nanos();
        debug_assert!(
            at >= self.now,
            "scheduling in the wheel's past: {} < {}",
            at,
            self.now
        );
        let idx = self.insert(seq, item);
        self.len += 1;
        self.file(Handle { at, idx });
    }

    /// First occupied slot of `level` at or after that level's cursor
    /// position.
    fn next_slot(&self, level: usize) -> Option<usize> {
        let cur = (self.now >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1);
        let masked = self.occupied[level] & (u64::MAX << cur);
        (masked != 0).then(|| masked.trailing_zeros() as usize)
    }

    /// Re-files every handle of `slots[level][slot]` at a lower level.
    /// Insertion order — and therefore seq order among equal
    /// timestamps — is preserved. The slot keeps its buffer, so a
    /// cascade allocates nothing once the slots it fills have grown.
    fn cascade(&mut self, level: usize, slot: usize) {
        self.occupied[level] &= !(1 << slot);
        while let Some(h) = self.slots[level][slot].pop_front() {
            self.file(h);
        }
    }

    /// Pops the earliest event if it is due at or before `deadline`,
    /// advancing the cursor to its timestamp. Otherwise leaves the
    /// queue intact and advances the cursor to `deadline` (there is
    /// provably nothing scheduled at or before it).
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Scheduled<T>> {
        let deadline = deadline.as_nanos();
        loop {
            // Level 0 first: slots in the current 64-tick window each
            // hold exactly one timestamp.
            if let Some(slot) = self.next_slot(0) {
                let bucket = &mut self.slots[0][slot];
                let at = bucket[0].at;
                if at > deadline {
                    self.now = self.now.max(deadline);
                    return None;
                }
                let h = bucket.pop_front().expect("occupied slot");
                if bucket.is_empty() {
                    self.occupied[0] &= !(1 << slot);
                }
                self.now = at;
                self.len -= 1;
                let (seq, item) = self.remove(h.idx);
                return Some(Scheduled {
                    at: SimTime::from_nanos(at),
                    seq,
                    item,
                });
            }
            // Level 0 exhausted in this window: cascade the earliest
            // upcoming higher-level slot and retry.
            let mut cascaded = false;
            for level in 1..LEVELS {
                if let Some(slot) = self.next_slot(level) {
                    let shift = SLOT_BITS * level as u32;
                    // Jump the cursor to the slot's block base so the
                    // events re-file below this level. The base is the
                    // earliest possible tick in the slot, so nothing is
                    // skipped. (The top level has no bits above it.)
                    let high = self.now.checked_shr(shift + SLOT_BITS).unwrap_or(0);
                    let base = (high << SLOT_BITS | slot as u64) << shift;
                    if base > deadline {
                        break;
                    }
                    self.now = self.now.max(base);
                    self.cascade(level, slot);
                    cascaded = true;
                    break;
                }
            }
            if !cascaded {
                self.now = self.now.max(deadline);
                return None;
            }
        }
    }

    /// Unconditional pop of the earliest event. Unlike
    /// [`TimerWheel::pop_before`], an empty wheel leaves the cursor
    /// where it is (so the caller can keep scheduling afterwards).
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        if self.is_empty() {
            return None;
        }
        self.pop_before(SimTime::MAX)
    }
}

// ---------------------------------------------------------------------
// Reference implementation: the binary heap the wheel replaced.
// ---------------------------------------------------------------------

struct HeapEntry<T>(Scheduled<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.at, self.0.seq) == (other.0.at, other.0.seq)
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// `(time, seq)`-ordered binary heap — the engine's original event
/// queue, kept as the oracle for the wheel's equivalence property test
/// and as a baseline in the event-queue benchmarks.
#[derive(Default)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
}

impl<T> HeapQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules an event. O(log n).
    pub fn schedule(&mut self, at: SimTime, seq: u64, item: T) {
        self.heap.push(HeapEntry(Scheduled { at, seq, item }));
    }

    /// Pops the earliest event if due at or before `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Scheduled<T>> {
        if self.heap.peek().is_some_and(|e| e.0.at <= deadline) {
            self.heap.pop().map(|e| e.0)
        } else {
            None
        }
    }

    /// Unconditional pop of the earliest event.
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        self.heap.pop().map(|e| e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.schedule(t(500), 0, "a");
        w.schedule(t(100), 1, "b");
        w.schedule(t(500), 2, "c");
        w.schedule(t(100), 3, "d");
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).map(|e| e.item).collect();
        assert_eq!(order, vec!["b", "d", "a", "c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn deadline_respected_and_cursor_advances() {
        let mut w = TimerWheel::new();
        w.schedule(t(1_000_000), 0, ());
        assert!(w.pop_before(t(999_999)).is_none());
        assert_eq!(w.now(), t(999_999));
        assert_eq!(w.len(), 1);
        let ev = w.pop_before(t(1_000_000)).unwrap();
        assert_eq!(ev.at, t(1_000_000));
        assert_eq!(w.now(), t(1_000_000));
    }

    #[test]
    fn schedule_at_cursor_fires() {
        let mut w = TimerWheel::new();
        w.schedule(t(42), 0, "x");
        assert_eq!(w.pop().unwrap().item, "x");
        assert_eq!(w.now(), t(42));
        // Same tick as the cursor: must still fire.
        w.schedule(t(42), 1, "y");
        assert_eq!(w.pop().unwrap().item, "y");
    }

    #[test]
    fn far_future_events_cascade_correctly() {
        let mut w = TimerWheel::new();
        // Spread across many levels, including > 64^5 ns (~18 min).
        let times = [1u64, 63, 64, 4095, 4096, 1 << 30, 1 << 45, u64::MAX / 2];
        for (i, &n) in times.iter().enumerate() {
            w.schedule(t(n), i as u64, n);
        }
        let mut popped = Vec::new();
        while let Some(ev) = w.pop() {
            popped.push(ev.item);
        }
        let mut expect = times.to_vec();
        expect.sort_unstable();
        assert_eq!(popped, expect);
    }

    #[test]
    fn interleaved_schedule_pop_keeps_order() {
        let mut w = TimerWheel::new();
        let mut h = HeapQueue::new();
        let mut seq = 0u64;
        let push = |w: &mut TimerWheel<u64>, h: &mut HeapQueue<u64>, at: u64, s: &mut u64| {
            w.schedule(t(at), *s, *s);
            h.schedule(t(at), *s, *s);
            *s += 1;
        };
        for at in [10u64, 10, 500, 70] {
            push(&mut w, &mut h, at, &mut seq);
        }
        for _ in 0..2 {
            assert_eq!(w.pop().map(|e| e.item), h.pop().map(|e| e.item));
        }
        // Schedule after partial drain, relative to the advanced cursor.
        for at in [70u64, 80, 1 << 20] {
            push(&mut w, &mut h, at, &mut seq);
        }
        loop {
            let (a, b) = (w.pop(), h.pop());
            assert_eq!(
                a.as_ref().map(|e| (e.at, e.seq)),
                b.as_ref().map(|e| (e.at, e.seq))
            );
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn len_tracks_population() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        assert!(w.is_empty());
        for i in 0..100 {
            w.schedule(t(i * 37), i, ());
        }
        assert_eq!(w.len(), 100);
        let mut n = 0;
        while w.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
        assert!(w.is_empty());
    }
}
