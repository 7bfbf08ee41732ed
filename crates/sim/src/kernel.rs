//! The event queue and virtual clock.
//!
//! The queue is a bucketed timing wheel over a payload slab:
//!
//! - Event payloads live in a slab and are moved exactly twice (in at
//!   schedule, out at pop). Everything the queue reorders is a 24-byte
//!   [`Handle`], which matters because the cluster's event enum is ~200
//!   bytes and a binary heap sifts its elements on every operation.
//! - Near-future handles go into a ring of fixed-width buckets (O(1)
//!   schedule); the bucket under the cursor drains through a small binary
//!   heap so pop order within a bucket is exact. A one-bit-per-bucket
//!   occupancy bitmap makes skipping empty buckets cheap.
//! - Handles beyond the wheel horizon (~67 ms: failure detectors, long
//!   timeouts) wait in an overflow heap and merge in by bucket number as
//!   the cursor advances.
//!
//! Pop order is identical to a single global heap ordered by `(at, seq)`
//! — `seq` is the schedule order, so ties break FIFO and the simulation
//! is bit-deterministic.
//!
//! Set `CX_SIM_QUEUE=heap` to fall back to the plain binary heap (the
//! pre-wheel implementation). Both backends must produce identical runs;
//! the determinism suite exercises this.

use cx_types::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Index of a node (actor) in the simulation. The cluster crate assigns
/// dense indices to servers, disks and client processes.
pub type NodeIdx = u32;

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    dst: NodeIdx,
    event: E,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest event.
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

/// A deadline queue with the simulator's tie-break: entries pop in
/// `(deadline, insertion order)`. The TCP runtime's server nodes use
/// this so both runtimes fire same-deadline timers in the same order.
pub struct TimerQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    seq: u64,
}

impl<T> Default for TimerQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerQueue<T> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub fn push(&mut self, deadline: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            at: deadline,
            seq,
            dst: 0,
            event: item,
        });
    }

    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Earliest deadline without popping.
    pub fn peek_deadline(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Bucket width: 2^16 ns ≈ 65.5 µs. The DES queue is shallow (tens of
/// events spanning a few hundred µs), so wide buckets keep the ring walk
/// short and the active-bucket heap still only holds a handful of
/// handles.
const BUCKET_SHIFT: u32 = 16;
/// Ring size: 1024 buckets ≈ 67 ms horizon — covers network, disk and
/// batch-timer delays; only failure-detection timers overflow.
const RING_BUCKETS: usize = 1024;
const RING_MASK: u64 = RING_BUCKETS as u64 - 1;
const WORDS: usize = RING_BUCKETS / 64;

#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.0 >> BUCKET_SHIFT
}

/// What the wheel actually sorts: 24 bytes, `Copy`. `idx` points into
/// the payload slab.
#[derive(Clone, Copy)]
struct Handle {
    at: SimTime,
    seq: u64,
    idx: u32,
    dst: NodeIdx,
}

// Same inverted (at, seq) ordering as `Scheduled`.
impl Ord for Handle {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Handle {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Handle {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Handle {}

/// Payload storage: slots are recycled through a free list, so a steady
/// simulation allocates nothing once warm.
struct Slab<E> {
    items: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Slab<E> {
    fn new() -> Self {
        Self {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    #[inline]
    fn insert(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.items[i as usize] = Some(event);
                i
            }
            None => {
                self.items.push(Some(event));
                (self.items.len() - 1) as u32
            }
        }
    }

    #[inline]
    fn take(&mut self, idx: u32) -> E {
        self.free.push(idx);
        self.items[idx as usize].take().expect("live slab slot")
    }
}

/// The timing wheel proper. Invariants:
/// - `active` holds only handles whose bucket is ≤ `cursor` (equal in the
///   common case; smaller only when a bounded pop — [`Wheel::pop_before`]
///   advanced the cursor past the limit — is followed by a schedule into
///   the gap, which the windowed partition loop does via its mailbox);
/// - ring slot `b & RING_MASK` holds only handles of one bucket
///   `b ∈ (cursor, cursor + RING_BUCKETS)` (the cursor never skips a
///   non-empty bucket, so a slot is fully drained before its number is
///   reused a revolution later);
/// - `overflow` holds handles that were beyond the horizon *when
///   scheduled*; its top is merged by bucket number during advance.
struct Wheel<E> {
    /// Bucket number currently being drained (monotone).
    cursor: u64,
    /// Handles of the cursor bucket, sorted descending by `(at, seq)` and
    /// popped from the back — buckets hold a handful of handles, so one
    /// sort per bucket beats a binary heap's per-operation sifting, and
    /// same-bucket inserts during the drain are a short memmove.
    active: Vec<Handle>,
    ring: Vec<Vec<Handle>>,
    /// One bit per ring slot: slot is non-empty.
    occupied: [u64; WORDS],
    overflow: BinaryHeap<Handle>,
    slab: Slab<E>,
    len: usize,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Self {
            cursor: 0,
            active: Vec::new(),
            ring: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            slab: Slab::new(),
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, at: SimTime, seq: u64, dst: NodeIdx, event: E) {
        let idx = self.slab.insert(event);
        let h = Handle { at, seq, idx, dst };
        self.len += 1;
        let b = bucket_of(at);
        if b <= self.cursor {
            // Keep the drain order exact: insert behind every handle that
            // pops later (descending, so "greater" keys come first).
            // Buckets below the cursor must also land here: their ring
            // slot numbers would alias a future revolution.
            let pos = self.active.partition_point(|x| (x.at, x.seq) > (at, seq));
            self.active.insert(pos, h);
        } else if b < self.cursor + RING_BUCKETS as u64 {
            let slot = (b & RING_MASK) as usize;
            self.ring[slot].push(h);
            self.occupied[slot >> 6] |= 1 << (slot & 63);
        } else {
            self.overflow.push(h);
        }
    }

    /// Bucket number of the next non-empty ring slot strictly after the
    /// cursor, reconstructed from the wrap-around distance.
    fn next_ring_bucket(&self) -> Option<u64> {
        let start = ((self.cursor + 1) & RING_MASK) as usize;
        let mut dist = 0usize;
        let mut word_idx = start >> 6;
        let mut bit_base = start & 63;
        let mut word = self.occupied[word_idx] >> bit_base;
        loop {
            if word != 0 {
                let slot_dist = dist + word.trailing_zeros() as usize;
                if slot_dist >= RING_BUCKETS {
                    return None;
                }
                return Some(self.cursor + 1 + slot_dist as u64);
            }
            dist += 64 - bit_base;
            if dist >= RING_BUCKETS {
                return None;
            }
            bit_base = 0;
            word_idx = (word_idx + 1) % WORDS;
            word = self.occupied[word_idx];
        }
    }

    /// Refill `active` from the earliest non-empty bucket. Returns false
    /// when the wheel is empty.
    fn advance(&mut self) -> bool {
        debug_assert!(self.active.is_empty());
        let ring_b = self.next_ring_bucket();
        let ovf_b = self.overflow.peek().map(|h| bucket_of(h.at));
        let next = match (ring_b, ovf_b) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        };
        let Some(next) = next else { return false };
        self.cursor = next;
        // Ring slot first (if this bucket has one), then any overflow
        // handles in the same bucket; the active heap restores exact
        // (at, seq) order among all of them.
        if ring_b == Some(next) {
            let slot = (next & RING_MASK) as usize;
            self.active.append(&mut self.ring[slot]);
            self.occupied[slot >> 6] &= !(1 << (slot & 63));
        }
        while self
            .overflow
            .peek()
            .is_some_and(|h| bucket_of(h.at) == next)
        {
            let h = self.overflow.pop().expect("peeked");
            self.active.push(h);
        }
        self.active
            .sort_unstable_by_key(|h| std::cmp::Reverse((h.at, h.seq)));
        debug_assert!(!self.active.is_empty());
        true
    }

    fn pop(&mut self) -> Option<(SimTime, NodeIdx, E)> {
        if self.active.is_empty() && !self.advance() {
            return None;
        }
        let h = self.active.pop().expect("advance refilled");
        self.len -= 1;
        Some((h.at, h.dst, self.slab.take(h.idx)))
    }

    /// Pop the next event only if it is strictly before `limit`. O(1) on
    /// the hot path: at most one bucket refill per call, and the refill
    /// is the same work `pop` would have done.
    fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, NodeIdx, E)> {
        if self.active.is_empty() && !self.advance() {
            return None;
        }
        let h = *self.active.last().expect("advance refilled");
        if h.at >= limit {
            return None;
        }
        self.active.pop();
        self.len -= 1;
        Some((h.at, h.dst, self.slab.take(h.idx)))
    }

    /// Earliest event time without popping. O(len of the next bucket);
    /// only used by diagnostics and tests, not the event loop.
    fn peek_time(&self) -> Option<SimTime> {
        if let Some(h) = self.active.last() {
            return Some(h.at);
        }
        let ring_t = self.next_ring_bucket().and_then(|b| {
            self.ring[(b & RING_MASK) as usize]
                .iter()
                .map(|h| h.at)
                .min()
        });
        let ovf_t = self.overflow.peek().map(|h| h.at);
        match (ring_t, ovf_t) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        }
    }
}

/// Queue backend: timing wheel by default, plain heap when
/// `CX_SIM_QUEUE=heap` (determinism cross-check and safety hatch).
// One instance per `Sim`, so the size gap between variants costs nothing;
// boxing the wheel would add a pointer hop to every queue operation.
#[allow(clippy::large_enum_variant)]
enum Queue<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<Scheduled<E>>),
}

impl<E> Queue<E> {
    fn new() -> Self {
        match std::env::var("CX_SIM_QUEUE").as_deref() {
            Ok("heap") => Queue::Heap(BinaryHeap::new()),
            _ => Queue::Wheel(Wheel::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Queue::Wheel(w) => w.len,
            Queue::Heap(h) => h.len(),
        }
    }
}

/// A deterministic discrete-event simulator.
///
/// ```
/// use cx_sim::Sim;
///
/// let mut sim: Sim<&'static str> = Sim::new();
/// sim.schedule(10, 0, "b");
/// sim.schedule(5, 0, "a");
/// let (t, _, ev) = sim.pop().unwrap();
/// assert_eq!((t.0, ev), (5, "a"));
/// ```
pub struct Sim<E> {
    now: SimTime,
    queue: Queue<E>,
    seq: u64,
    processed: u64,
}

impl<E> Default for Sim<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Sim<E> {
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            queue: Queue::new(),
            seq: 0,
            processed: 0,
        }
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event (events never run "in the past").
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` for `dst`, `delay` ns after the current time.
    pub fn schedule(&mut self, delay: u64, dst: NodeIdx, event: E) {
        self.schedule_at(self.now + delay, dst, event);
    }

    /// Schedule `event` at an absolute virtual time. Times in the past are
    /// clamped to `now` (the event still runs after currently queued events
    /// with the same timestamp, preserving causality).
    pub fn schedule_at(&mut self, at: SimTime, dst: NodeIdx, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        match &mut self.queue {
            Queue::Wheel(w) => w.push(at, seq, dst, event),
            Queue::Heap(h) => h.push(Scheduled {
                at,
                seq,
                dst,
                event,
            }),
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, NodeIdx, E)> {
        let (at, dst, event) = match &mut self.queue {
            Queue::Wheel(w) => w.pop()?,
            Queue::Heap(h) => {
                let s = h.pop()?;
                (s.at, s.dst, s.event)
            }
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.processed += 1;
        Some((at, dst, event))
    }

    /// Pop the next event only if its timestamp is strictly before
    /// `limit`, advancing the clock to it; `None` leaves the queue (and
    /// the clock) untouched. This is the conservative-window primitive:
    /// the partitioned runtime drains each partition's kernel up to the
    /// agreed horizon without paying a `peek_time` per event.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, NodeIdx, E)> {
        let (at, dst, event) = match &mut self.queue {
            Queue::Wheel(w) => w.pop_before(limit)?,
            Queue::Heap(h) => {
                if h.peek().is_none_or(|s| s.at >= limit) {
                    return None;
                }
                let s = h.pop().expect("peeked");
                (s.at, s.dst, s.event)
            }
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.processed += 1;
        Some((at, dst, event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.queue {
            Queue::Wheel(w) => w.peek_time(),
            Queue::Heap(h) => h.peek().map(|s| s.at),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.queue.len() == 0
    }

    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total events processed so far (a cheap progress/complexity metric).
    pub fn events_processed(&self) -> u64 {
        self.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(30, 0, 3);
        sim.schedule(10, 0, 1);
        sim.schedule(20, 0, 2);
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut sim: Sim<u32> = Sim::new();
        for i in 0..100 {
            sim.schedule(5, 0, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut sim: Sim<()> = Sim::new();
        sim.schedule(10, 0, ());
        sim.schedule(10, 0, ());
        sim.schedule(25, 0, ());
        let mut last = SimTime::ZERO;
        while let Some((t, _, _)) = sim.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(last.0, 25);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(100, 0, 1);
        sim.pop();
        assert_eq!(sim.now().0, 100);
        sim.schedule_at(SimTime(50), 0, 2); // in the past
        let (t, _, e) = sim.pop().unwrap();
        assert_eq!((t.0, e), (100, 2));
    }

    #[test]
    fn nested_scheduling_during_pop_loop() {
        // Events scheduled from handlers interleave correctly.
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(10, 0, 0);
        let mut seen = Vec::new();
        while let Some((_, _, e)) = sim.pop() {
            seen.push(e);
            if e < 3 {
                sim.schedule(10, 0, e + 1);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(sim.now().0, 40);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut sim: Sim<()> = Sim::new();
        sim.schedule(7, 0, ());
        assert_eq!(sim.peek_time(), Some(SimTime(7)));
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.pending(), 1);
    }

    /// The wheel horizon is ~67 ms; events far beyond it (failure
    /// detectors, long timeouts) take the overflow path and still pop in
    /// exact order, including FIFO ties against ring events.
    #[test]
    fn overflow_events_interleave_correctly() {
        let mut sim: Sim<u32> = Sim::new();
        let hour = 3_600_000_000_000; // far past any horizon
        sim.schedule(hour, 0, 40);
        sim.schedule(5_000, 0, 10); // in-ring
        sim.schedule(hour, 0, 41); // same bucket + time as 40: FIFO
        sim.schedule(200_000_000, 0, 30); // past horizon at schedule time
        sim.schedule(100_000_000, 0, 20); // also past horizon
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![10, 20, 30, 40, 41]);
        assert_eq!(sim.now().0, hour);
    }

    /// An event scheduled into the bucket currently being drained joins
    /// the active heap and sorts correctly against what is left in it.
    #[test]
    fn same_bucket_insert_during_drain() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(100, 0, 1);
        sim.schedule(30_000, 0, 3);
        let (t, _, e) = sim.pop().unwrap();
        assert_eq!((t.0, e), (100, 1));
        sim.schedule(10_000, 0, 2); // t=10100: same 65 µs bucket as t=30000
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![2, 3]);
    }

    /// A dense random workload pops in exactly the order the reference
    /// heap implementation would produce: sorted by (at, seq).
    #[test]
    fn wheel_matches_reference_order_on_random_load() {
        let mut sim: Sim<usize> = Sim::new();
        let mut expect: Vec<(u64, usize)> = Vec::new();
        // Deterministic LCG: spread delays across bucket widths, bucket
        // boundaries, the horizon, and far overflow.
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for i in 0..500 {
            let delay = match i % 5 {
                0 => step() % 1_000,          // same-bucket ties
                1 => step() % 100_000,        // near ring
                2 => step() % 10_000_000,     // mid ring
                3 => step() % 500_000_000,    // mostly past horizon
                _ => 65_536 * (i as u64 % 7), // exact bucket boundaries
            };
            expect.push((delay, i));
            sim.schedule(delay, 0, i);
        }
        // All scheduled at now=0, so (at, seq) order is (delay, index).
        expect.sort();
        let got: Vec<usize> = std::iter::from_fn(|| sim.pop().map(|(_, _, e)| e)).collect();
        let want: Vec<usize> = expect.into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, want);
    }

    /// Interleaved schedule/pop with re-scheduling from handlers — the
    /// cursor moves while new events land in current, ring, and overflow
    /// buckets.
    #[test]
    fn interleaved_load_stays_sorted() {
        let mut sim: Sim<u64> = Sim::new();
        for i in 0..32 {
            sim.schedule(i * 10_000, 0, i);
        }
        let mut popped = Vec::new();
        let mut spawned = 32u64;
        while let Some((t, _, e)) = sim.pop() {
            popped.push((t, e));
            if spawned < 400 {
                // Handlers schedule relative to the advancing clock.
                sim.schedule((e * 7919) % 30_000_000, 0, spawned);
                sim.schedule(67_000_000 + (e % 3) * 65_536, 0, spawned + 1);
                spawned += 2;
            }
        }
        let mut sorted = popped.clone();
        sorted.sort_by_key(|&(t, _)| t);
        // Time-sorted (stable sort keeps equal times in pop order, which
        // must already be seq order).
        assert_eq!(popped, sorted);
        assert_eq!(sim.events_processed(), popped.len() as u64);
    }

    /// `pop_before` is a strict filter on the next event and never
    /// advances the clock on refusal.
    #[test]
    fn pop_before_respects_limit() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(10, 0, 1);
        sim.schedule(20, 0, 2);
        sim.schedule(200_000, 0, 3); // different bucket
        assert_eq!(sim.pop_before(SimTime(10)), None, "strict bound");
        assert_eq!(sim.now(), SimTime::ZERO);
        let (t, _, e) = sim.pop_before(SimTime(11)).unwrap();
        assert_eq!((t.0, e), (10, 1));
        assert_eq!(sim.now().0, 10);
        let (_, _, e) = sim.pop_before(SimTime(1_000_000)).unwrap();
        assert_eq!(e, 2);
        let (_, _, e) = sim.pop_before(SimTime(1_000_000)).unwrap();
        assert_eq!(e, 3);
        assert_eq!(sim.pop_before(SimTime(u64::MAX)), None, "empty queue");
    }

    /// The windowed-partition pattern: a bounded pop advances the cursor
    /// past the limit without popping, then an external (mailbox) arrival
    /// lands in the gap between the limit and the cursor. Order must stay
    /// exact — this exercises the `b <= cursor` branch of `Wheel::push`.
    #[test]
    fn schedule_behind_cursor_after_bounded_pop() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(100, 0, 1);
        // Far-future event: next bucket is ~5 ms away, so a bounded pop
        // moves the cursor well past the 200 µs window below.
        sim.schedule(5_000_000, 0, 9);
        let (_, _, e) = sim.pop_before(SimTime(200_000)).unwrap();
        assert_eq!(e, 1);
        assert_eq!(sim.pop_before(SimTime(200_000)), None);
        // Arrivals land between the window edge and the advanced cursor.
        sim.schedule_at(SimTime(150_000), 0, 2);
        sim.schedule_at(SimTime(120_000), 0, 3);
        sim.schedule_at(SimTime(150_000), 0, 4); // tie: FIFO after 2
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![3, 2, 4, 9]);
    }

    /// Both queue backends agree on `pop_before` semantics.
    #[test]
    fn heap_backend_pop_before_matches() {
        std::env::set_var("CX_SIM_QUEUE", "heap");
        let mut sim: Sim<u32> = Sim::new();
        std::env::remove_var("CX_SIM_QUEUE");
        sim.schedule(10, 0, 1);
        sim.schedule(20, 0, 2);
        assert_eq!(sim.pop_before(SimTime(10)), None);
        assert_eq!(sim.pop_before(SimTime(15)).map(|(_, _, e)| e), Some(1));
        assert_eq!(sim.pop_before(SimTime(15)), None);
        assert_eq!(sim.pop_before(SimTime(21)).map(|(_, _, e)| e), Some(2));
    }

    /// The timer queue shares the simulator's FIFO tie-break.
    #[test]
    fn timer_queue_breaks_ties_fifo() {
        let mut q: TimerQueue<u32> = TimerQueue::new();
        q.push(SimTime(50), 1);
        q.push(SimTime(10), 2);
        q.push(SimTime(50), 3);
        assert_eq!(q.peek_deadline(), Some(SimTime(10)));
        assert_eq!(q.len(), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, x)| x)).collect();
        assert_eq!(order, vec![2, 1, 3]);
        assert!(q.is_empty());
    }
}
