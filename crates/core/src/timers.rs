//! Hierarchical timer wheel: O(due) timer service for the engine.
//!
//! Servicing timers by walking the *entire* FIB (plus every
//! pending-join, pending-quit and deferred-reattach map) on every
//! `on_timer` call costs O(N) per wakeup in resident group state —
//! exactly the cost CBT's per-group state model is supposed to avoid.
//! This module provides a classic hashed-and-hierarchical timing wheel
//! (Varghese & Lauck) keyed on [`SimTime`]:
//!
//! * [`TimerWheel`] — 4 levels × 64 slots, one level-0 tick ≈ 1 ms
//!   (`µs >> 10`), total in-wheel span 2³⁴ µs ≈ 4.77 h, with an
//!   overflow (`far`) list for deadlines beyond the horizon that is
//!   re-examined once per top-level slot boundary. Slots carry exact
//!   deadlines (never slot-rounded) plus a cached per-slot minimum, so
//!   `peek` is O(occupied slots) and exact, and `pop_due` is O(due
//!   entries + slots crossed).
//! * [`TimerService`] — a keyed façade with generation counters:
//!   re-arming or cancelling a key is O(log K) with *no* search of the
//!   wheel; superseded entries are filtered out lazily when their slot
//!   drains.
//!
//! Ordering contract: `pop_due` returns entries sorted by
//! `(deadline, insertion order)` — same-deadline entries pop FIFO —
//! so a deadline-driven engine services timers in a deterministic
//! order (the one the determinism suite's golden digests pin).

use cbt_netsim::SimTime;
use std::collections::BTreeMap;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of hierarchical levels.
const LEVELS: usize = 4;
/// log2 of microseconds per level-0 tick (1024 µs ≈ 1 ms).
const TICK_SHIFT: u32 = 10;
/// Ticks covered by the whole wheel (64⁴); beyond this entries go to
/// the `far` overflow list.
const SPAN_TICKS: u64 = (SLOTS as u64).pow(LEVELS as u32);

/// Sentinel for "no deadline" in the cached minima (µs).
const NO_MIN: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Entry<T> {
    deadline: SimTime,
    /// Global insertion sequence — ties on `deadline` break FIFO.
    seq: u64,
    token: T,
}

#[derive(Debug, Clone)]
struct Slot<T> {
    entries: Vec<Entry<T>>,
    /// Cached minimum deadline (µs) over `entries`; `NO_MIN` if empty.
    min_us: u64,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot { entries: Vec::new(), min_us: NO_MIN }
    }
}

/// A hierarchical timing wheel over [`SimTime`] deadlines.
///
/// Entries are stored with their *exact* deadline; the wheel geometry
/// only bounds how much work `pop_due` does per call. Popping at time
/// `now` returns every entry with `deadline <= now`, globally sorted
/// by `(deadline, insertion order)`.
#[derive(Debug, Clone)]
pub struct TimerWheel<T> {
    /// `LEVELS × SLOTS` slots, flattened (`level * SLOTS + slot`).
    /// Allocated lazily on the first `schedule`: a wheel that has never
    /// held an entry costs a few machine words, so a fleet of mostly
    /// idle engines (the netscale experiments) does not pay ~8 KB of
    /// slot vectors per router. Every reader consults the occupancy
    /// masks (all zero while unallocated) before indexing.
    levels: Vec<Slot<T>>,
    /// Per-level occupancy bitmask (bit = slot has entries).
    occ: [u64; LEVELS],
    /// Overflow entries beyond the wheel horizon.
    far: Vec<Entry<T>>,
    /// Cached minimum deadline (µs) over `far`.
    far_min_us: u64,
    /// Current tick: every entry with a strictly earlier tick has been
    /// popped or cascaded.
    cur: u64,
    /// Next insertion sequence number.
    seq: u64,
    /// Live entry count (including not-yet-filtered stale entries when
    /// used through [`TimerService`]).
    len: usize,
}

impl<T> TimerWheel<T> {
    /// New wheel positioned at `now`. Does not allocate.
    pub fn new(now: SimTime) -> Self {
        TimerWheel {
            levels: Vec::new(),
            occ: [0; LEVELS],
            far: Vec::new(),
            far_min_us: NO_MIN,
            cur: now.micros() >> TICK_SHIFT,
            seq: 0,
            len: 0,
        }
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `token` to pop once `now >= deadline`. Past deadlines
    /// are fine: they land in the current slot and pop on the next
    /// `pop_due`.
    pub fn schedule(&mut self, deadline: SimTime, token: T) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.place(Entry { deadline, seq, token });
    }

    /// Files an entry into the level/slot its deadline maps to from
    /// the current tick. Also used by cascades, which re-file with the
    /// original deadline and sequence (self-healing: an entry filed
    /// into an aliased slot simply cascades again, never late).
    fn place(&mut self, e: Entry<T>) {
        let tick = (e.deadline.micros() >> TICK_SHIFT).max(self.cur);
        let delta = tick - self.cur;
        let mut level = LEVELS;
        for (l, span) in (0..LEVELS).map(|l| (l, (SLOTS as u64).pow(l as u32 + 1))) {
            if delta < span {
                level = l;
                break;
            }
        }
        if level == LEVELS {
            self.far_min_us = self.far_min_us.min(e.deadline.micros());
            self.far.push(e);
            return;
        }
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        if self.levels.is_empty() {
            self.levels = (0..LEVELS * SLOTS).map(|_| Slot::default()).collect();
        }
        let s = &mut self.levels[level * SLOTS + slot];
        s.min_us = s.min_us.min(e.deadline.micros());
        s.entries.push(e);
        self.occ[level] |= 1 << slot;
    }

    /// Pops every entry with `deadline <= now`, sorted by
    /// `(deadline, insertion order)`.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
        let now_tick = now.micros() >> TICK_SHIFT;
        // Empty wheel: nothing can be due, so jump straight to `now`
        // instead of walking (and cascading across) every tick block in
        // between — a long-idle engine pops in O(1).
        if self.len == 0 {
            self.cur = self.cur.max(now_tick);
            return Vec::new();
        }
        let mut due: Vec<Entry<T>> = Vec::new();

        // Advance the wheel, fully draining every slot strictly before
        // `now_tick`. Empty stretches are skipped via the occupancy
        // mask; every 64-tick boundary is landed on exactly so higher
        // levels cascade down.
        while self.cur < now_tick {
            let slot = (self.cur & (SLOTS as u64 - 1)) as usize;
            if self.occ[0] & (1 << slot) != 0 {
                let s = &mut self.levels[slot];
                due.append(&mut s.entries);
                s.min_us = NO_MIN;
                self.occ[0] &= !(1 << slot);
            }
            let block_base = self.cur & !(SLOTS as u64 - 1);
            let boundary = block_base + SLOTS as u64;
            // Next occupied level-0 slot in this block, if any. Bits
            // below the current slot index belong to the *next* block.
            let mask = if slot == SLOTS - 1 { 0 } else { self.occ[0] & (!0u64 << (slot + 1)) };
            let next_occ =
                if mask != 0 { block_base + mask.trailing_zeros() as u64 } else { u64::MAX };
            self.cur = boundary.min(next_occ).min(now_tick);
            if self.cur == boundary {
                self.cascade();
            }
        }

        // Partially drain the slot for `now_tick` itself: only entries
        // at or before `now` (deadlines are exact, ticks are coarse).
        let slot = (self.cur & (SLOTS as u64 - 1)) as usize;
        if self.occ[0] & (1 << slot) != 0 {
            let s = &mut self.levels[slot];
            let mut i = 0;
            while i < s.entries.len() {
                if s.entries[i].deadline <= now {
                    due.push(s.entries.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            if s.entries.is_empty() {
                s.min_us = NO_MIN;
                self.occ[0] &= !(1 << slot);
            } else {
                s.min_us = s.entries.iter().map(|e| e.deadline.micros()).min().unwrap_or(NO_MIN);
            }
        }

        self.len -= due.len();
        due.sort_by_key(|e| (e.deadline, e.seq));
        due.into_iter().map(|e| (e.deadline, e.token)).collect()
    }

    /// Cascades higher levels down. Called exactly when `self.cur` is
    /// a multiple of 64: level *l* drains its newly current slot when
    /// `cur` is a multiple of 64^l, and the far list is re-examined at
    /// top-level slot boundaries (once per 64³ ticks).
    fn cascade(&mut self) {
        for level in 1..LEVELS {
            let width = SLOT_BITS * level as u32;
            if self.cur & ((1u64 << width) - 1) != 0 {
                return;
            }
            let slot = ((self.cur >> width) & (SLOTS as u64 - 1)) as usize;
            if self.occ[level] & (1 << slot) != 0 {
                let entries = std::mem::take(&mut self.levels[level * SLOTS + slot].entries);
                self.levels[level * SLOTS + slot].min_us = NO_MIN;
                self.occ[level] &= !(1 << slot);
                for e in entries {
                    self.place(e);
                }
            }
        }
        // Reaching here means cur is a multiple of 64^(LEVELS-1).
        if !self.far.is_empty() {
            let moved: Vec<Entry<T>> = {
                let cur = self.cur;
                let (near, far): (Vec<_>, Vec<_>) =
                    std::mem::take(&mut self.far).into_iter().partition(|e| {
                        (e.deadline.micros() >> TICK_SHIFT).saturating_sub(cur) < SPAN_TICKS
                    });
                self.far = far;
                near
            };
            self.far_min_us = self.far.iter().map(|e| e.deadline.micros()).min().unwrap_or(NO_MIN);
            for e in moved {
                self.place(e);
            }
        }
    }

    /// Exact earliest deadline over all stored entries, in O(occupied
    /// slots): cached per-slot minima, not slot-granularity rounding.
    pub fn peek(&self) -> Option<SimTime> {
        let mut best = self.far_min_us;
        for level in 0..LEVELS {
            let mut occ = self.occ[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                best = best.min(self.levels[level * SLOTS + slot].min_us);
            }
        }
        (best != NO_MIN).then(|| SimTime::from_micros(best))
    }

    /// A token achieving [`peek`](Self::peek)'s deadline, or `None` if
    /// the wheel is empty. When several entries share the minimum
    /// deadline an arbitrary one is returned.
    pub fn peek_entry(&self) -> Option<(SimTime, &T)> {
        let best = self.peek()?.micros();
        if self.far_min_us == best {
            return self
                .far
                .iter()
                .find(|e| e.deadline.micros() == best)
                .map(|e| (e.deadline, &e.token));
        }
        for level in 0..LEVELS {
            let mut occ = self.occ[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let s = &self.levels[level * SLOTS + slot];
                if s.min_us == best {
                    return s
                        .entries
                        .iter()
                        .find(|e| e.deadline.micros() == best)
                        .map(|e| (e.deadline, &e.token));
                }
            }
        }
        None
    }
}

/// Per-key bookkeeping for [`TimerService`].
#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    /// Current generation. Wheel entries carrying an older generation
    /// are stale.
    gen: u64,
    /// Physical entries (valid + stale) still sitting in the wheel for
    /// this key. The key's state can be dropped only once this reaches
    /// zero — otherwise a later re-arm could restart the generation at
    /// a value an old in-wheel entry still carries.
    in_wheel: u32,
    /// Whether a valid (not superseded, not fired) deadline exists.
    armed: bool,
}

/// Keyed timer service with O(1) logical cancellation.
///
/// At most one *valid* deadline exists per key. `arm` supersedes any
/// previous deadline for the key and `cancel` disarms it — both by
/// bumping a per-key generation counter, never by searching the wheel.
/// Superseded ("stale") entries stay in the wheel until their slot
/// drains, at which point `pop_due` discards them; `peek` may therefore
/// report a stale (always conservative, never late) wakeup, which a
/// deadline-driven engine treats as a no-op wake.
///
/// Key state is reclaimed: once a key has fired or been cancelled *and*
/// its last physical wheel entry has drained, its map entry is removed,
/// so long-running churn over many keys (groups joining and tearing
/// down for the lifetime of a router) holds state proportional to the
/// *live* key set, not to every key ever seen. [`tracked_keys`]
/// (Self::tracked_keys) exposes the table size for regression tests.
#[derive(Debug, Clone)]
pub struct TimerService<K: Ord + Copy> {
    wheel: TimerWheel<(K, u64)>,
    keys: BTreeMap<K, KeyState>,
}

impl<K: Ord + Copy> TimerService<K> {
    /// New service positioned at `now`.
    pub fn new(now: SimTime) -> Self {
        TimerService { wheel: TimerWheel::new(now), keys: BTreeMap::new() }
    }

    /// Arms (or re-arms) `key` to fire at `deadline`, superseding any
    /// previously armed deadline for the key.
    pub fn arm(&mut self, key: K, deadline: SimTime) {
        let st = self.keys.entry(key).or_default();
        st.gen += 1;
        st.armed = true;
        st.in_wheel += 1;
        self.wheel.schedule(deadline, (key, st.gen));
    }

    /// Disarms `key` in O(log K): any in-wheel entry for it becomes
    /// stale and is discarded when its slot drains.
    pub fn cancel(&mut self, key: K) {
        if let Some(st) = self.keys.get_mut(&key) {
            st.gen += 1;
            st.armed = false;
            if st.in_wheel == 0 {
                self.keys.remove(&key);
            }
        }
    }

    /// Drops `key`'s state if it is fully drained: nothing armed and no
    /// physical entry left in the wheel.
    fn reclaim_if_drained(&mut self, key: K) {
        if let Some(st) = self.keys.get(&key) {
            if st.in_wheel == 0 && !st.armed {
                self.keys.remove(&key);
            }
        }
    }

    /// Pops every key whose valid deadline is `<= now`, sorted by
    /// `(deadline, arm order)`. Stale entries encountered along the
    /// way are dropped for good (the wheel self-compacts).
    pub fn pop_due(&mut self, now: SimTime) -> Vec<K> {
        self.pop_due_with_deadline(now).into_iter().map(|(k, _)| k).collect()
    }

    /// Like [`pop_due`](Self::pop_due), but pairs each fired key with
    /// the deadline it was armed for, so callers can measure wakeup lag
    /// (`now - deadline`).
    pub fn pop_due_with_deadline(&mut self, now: SimTime) -> Vec<(K, SimTime)> {
        let mut out = Vec::new();
        for (deadline, (k, gen)) in self.wheel.pop_due(now) {
            let Some(st) = self.keys.get_mut(&k) else { continue };
            st.in_wheel -= 1;
            if st.gen == gen {
                // Each generation has exactly one physical entry, so a
                // matching pop consumes the key's armed deadline.
                st.armed = false;
                out.push((k, deadline));
            }
            self.reclaim_if_drained(k);
        }
        out
    }

    /// Keys with live state (armed, or awaiting drain of stale wheel
    /// entries). Bounded by the live key set plus in-flight staleness —
    /// *not* monotone over the service's lifetime.
    pub fn tracked_keys(&self) -> usize {
        self.keys.len()
    }

    /// Earliest possibly-due instant. May be stale — i.e. earlier than
    /// the earliest *valid* deadline — but never later, so it is always
    /// a safe wakeup time. Call [`compact`](Self::compact) first when an
    /// *exact* wakeup is required.
    pub fn peek(&self) -> Option<SimTime> {
        self.wheel.peek()
    }

    /// Discards stale entries from the head of the wheel until the
    /// earliest stored entry is a valid one, making the next
    /// [`peek`](Self::peek) exact: it reports the earliest *valid*
    /// deadline, never a superseded or cancelled one. Amortised O(1)
    /// per arm/cancel — each stale entry is drained at most once —
    /// plus one O(occupied slots) head probe per call.
    pub fn compact(&mut self) {
        loop {
            let Some((t, &(k, gen))) = self.wheel.peek_entry() else { return };
            if self.keys.get(&k).is_some_and(|st| st.gen == gen) {
                return;
            }
            // The head is stale: drain every entry at its instant and
            // re-file the valid ones (their exact deadlines and the
            // engine's sorted service order are unaffected).
            for (td, e) in self.wheel.pop_due(t) {
                if self.keys.get(&e.0).is_some_and(|st| st.gen == e.1) {
                    self.wheel.schedule(td, e);
                } else {
                    if let Some(st) = self.keys.get_mut(&e.0) {
                        st.in_wheel -= 1;
                    }
                    self.reclaim_if_drained(e.0);
                }
            }
        }
    }

    /// Entries in the wheel, stale included.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True when the wheel holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn us(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    #[test]
    fn pop_returns_exactly_the_due_entries() {
        let mut w = TimerWheel::new(SimTime::ZERO);
        w.schedule(t(5), "a");
        w.schedule(t(10), "b");
        w.schedule(t(15), "c");
        assert_eq!(w.len(), 3);
        assert!(w.pop_due(t(4)).is_empty());
        let due: Vec<_> = w.pop_due(t(10)).into_iter().map(|(_, v)| v).collect();
        assert_eq!(due, vec!["a", "b"]);
        assert_eq!(w.len(), 1);
        let due: Vec<_> = w.pop_due(t(100)).into_iter().map(|(_, v)| v).collect();
        assert_eq!(due, vec!["c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn peek_is_exact_not_slot_rounded() {
        let mut w = TimerWheel::new(SimTime::ZERO);
        // Deadlines that share a level-0 tick (1024 µs) still peek
        // exactly, and deep-level entries peek their true deadline.
        w.schedule(us(1500), 1);
        w.schedule(us(1400), 2);
        assert_eq!(w.peek(), Some(us(1400)));
        let mut w = TimerWheel::new(SimTime::ZERO);
        w.schedule(t(3600), 9); // level 3 territory
        assert_eq!(w.peek(), Some(t(3600)));
        assert!(w.pop_due(t(3599)).is_empty());
        assert_eq!(w.pop_due(t(3600)).len(), 1);
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn cascade_across_every_level() {
        // One entry per level band plus the far list; each pops at its
        // exact deadline and never early, regardless of how many
        // cascades it crosses on the way down.
        let bands = [
            us(50 << TICK_SHIFT),         // level 0
            us(1_000 << TICK_SHIFT),      // level 1
            us(100_000 << TICK_SHIFT),    // level 2
            us(10_000_000 << TICK_SHIFT), // level 3
            us(20_000_000 << TICK_SHIFT), // far list (> 64^4 ticks)
        ];
        let mut w = TimerWheel::new(SimTime::ZERO);
        for (i, &d) in bands.iter().enumerate() {
            w.schedule(d, i);
        }
        assert_eq!(w.peek(), Some(bands[0]));
        for (i, &d) in bands.iter().enumerate() {
            assert!(
                w.pop_due(us(d.micros() - 1)).is_empty(),
                "band {i} popped one microsecond early"
            );
            let due = w.pop_due(d);
            assert_eq!(due.len(), 1, "band {i} must pop exactly at its deadline");
            assert_eq!(due[0], (d, i));
        }
        assert!(w.is_empty());
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn same_deadline_pops_fifo() {
        let mut w = TimerWheel::new(SimTime::ZERO);
        for i in 0..16 {
            w.schedule(t(7), i);
        }
        // Interleave other deadlines to force a sort.
        w.schedule(t(3), 100);
        w.schedule(t(9), 101);
        let order: Vec<_> = w.pop_due(t(10)).into_iter().map(|(_, v)| v).collect();
        let mut expect: Vec<i32> = vec![100];
        expect.extend(0..16);
        expect.push(101);
        assert_eq!(order, expect, "ties must break by insertion order after the global sort");
    }

    #[test]
    fn reschedule_survives_partial_drain_of_current_slot() {
        // Two deadlines in the same level-0 tick: popping the earlier
        // must leave the later armed with a correct cached minimum.
        let mut w = TimerWheel::new(SimTime::ZERO);
        w.schedule(us(1100), "early");
        w.schedule(us(1900), "late");
        let due: Vec<_> = w.pop_due(us(1100)).into_iter().map(|(_, v)| v).collect();
        assert_eq!(due, vec!["early"]);
        assert_eq!(w.peek(), Some(us(1900)));
        let due: Vec<_> = w.pop_due(us(1900)).into_iter().map(|(_, v)| v).collect();
        assert_eq!(due, vec!["late"]);
    }

    #[test]
    fn service_arm_supersedes_and_cancel_disarms() {
        let mut s = TimerService::new(SimTime::ZERO);
        s.arm("echo", t(30));
        s.arm("echo", t(60)); // supersedes — the t(30) entry is stale
        assert!(s.pop_due(t(30)).is_empty(), "superseded deadline must not fire");
        assert_eq!(s.pop_due(t(60)), vec!["echo"]);

        s.arm("quit", t(90));
        s.cancel("quit");
        assert!(s.pop_due(t(100)).is_empty(), "cancelled key must not fire");
        assert!(s.is_empty(), "stale entries are discarded as their slots drain");

        // Cancel + re-arm: only the new deadline fires.
        s.arm("join", t(110));
        s.cancel("join");
        s.arm("join", t(120));
        assert!(s.pop_due(t(110)).is_empty());
        assert_eq!(s.pop_due(t(120)), vec!["join"]);
    }

    #[test]
    fn service_peek_is_conservative_never_late() {
        let mut s = TimerService::new(SimTime::ZERO);
        s.arm(1u32, t(10));
        s.arm(1u32, t(50));
        // Peek may report the stale t(10) entry — early is fine, late
        // is not.
        let p = s.peek().expect("armed service must peek");
        assert!(p <= t(50));
        // The spurious wake pops nothing and self-compacts the wheel.
        assert!(s.pop_due(p.max(t(10))).is_empty());
        assert_eq!(s.pop_due(t(50)), vec![1u32]);
    }

    #[test]
    fn service_orders_same_deadline_keys_by_arm_order() {
        let mut s = TimerService::new(SimTime::ZERO);
        s.arm(3u8, t(5));
        s.arm(1u8, t(5));
        s.arm(2u8, t(4));
        assert_eq!(s.pop_due(t(5)), vec![2, 3, 1]);
    }

    #[test]
    fn service_key_table_is_reclaimed_after_churn() {
        // The regression this pins: key state used to be immortal
        // ("entries are never removed"), so arming a timer for every
        // group ever seen leaked a map entry per group forever. After
        // fire-and-drain, the table must return to empty.
        let mut s = TimerService::new(SimTime::ZERO);
        for i in 0..10_000u64 {
            s.arm(i, t(i + 1));
            assert_eq!(s.pop_due(t(i + 1)), vec![i]);
        }
        assert_eq!(s.tracked_keys(), 0, "fired keys must not linger");
        assert!(s.is_empty());

        // Cancelled key: state persists only while its stale physical
        // entry is still in the wheel, and drains with it.
        s.arm(7u64, t(20_000));
        s.cancel(7u64);
        assert!(s.pop_due(t(30_000)).is_empty());
        assert_eq!(s.tracked_keys(), 0, "cancelled keys must drain with their wheel entries");

        // Heavy supersede churn on one key: one fire clears everything
        // once the stale entries' shared slot drains.
        for n in 0..100u64 {
            s.arm(3u64, t(40_000 + n));
        }
        assert_eq!(s.pop_due(t(50_000)), vec![3u64]);
        assert_eq!(s.tracked_keys(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn service_reclaim_is_safe_across_generation_restart() {
        // After reclamation a re-armed key restarts at generation 1.
        // That must never validate a leftover physical entry — which is
        // exactly why reclamation requires in_wheel == 0.
        let mut s = TimerService::new(SimTime::ZERO);
        s.arm("k", t(10));
        assert_eq!(s.pop_due(t(10)), vec!["k"]); // gen 1 fired + drained
        s.arm("k", t(20)); // fresh state, gen 1 again
        s.cancel("k");
        assert!(s.pop_due(t(30)).is_empty(), "stale gen-1 entry of the new life must not fire");
        s.arm("k", t(40));
        assert_eq!(s.pop_due(t(40)), vec!["k"]);
        assert_eq!(s.tracked_keys(), 0);
    }

    #[test]
    fn service_pop_with_deadline_reports_armed_instants() {
        let mut s = TimerService::new(SimTime::ZERO);
        s.arm(1u8, t(10));
        s.arm(2u8, t(15));
        // Woken late: both fire, each tagged with its own deadline.
        assert_eq!(s.pop_due_with_deadline(t(30)), vec![(1u8, t(10)), (2u8, t(15))]);
    }

    #[test]
    fn idle_wheel_allocates_no_slot_table() {
        // Compact-idle contract: a wheel (and service) that never arms
        // a timer must not materialise the 256-slot table.
        let w: TimerWheel<u32> = TimerWheel::new(t(5));
        assert_eq!(w.levels.capacity(), 0, "slot table must be lazy");
        assert_eq!(w.peek(), None);
        let mut w = w;
        assert!(w.pop_due(t(1_000_000)).is_empty(), "empty pops must not allocate slots");
        assert_eq!(w.levels.capacity(), 0);
        let s: TimerService<u8> = TimerService::new(t(5));
        assert_eq!(s.wheel.levels.capacity(), 0);
        // First schedule brings the table up and behaviour is unchanged.
        w.schedule(t(2_000_000), 7);
        assert_eq!(w.peek(), Some(t(2_000_000)));
        assert_eq!(w.pop_due(t(2_000_000)), vec![(t(2_000_000), 7)]);
    }

    #[test]
    fn wheel_handles_past_deadlines_and_repeat_pops() {
        let mut w = TimerWheel::new(t(100));
        w.schedule(t(10), "stale-arm"); // deadline already past
        let due: Vec<_> = w.pop_due(t(100)).into_iter().map(|(_, v)| v).collect();
        assert_eq!(due, vec!["stale-arm"]);
        // Repeat pops at the same instant are harmless no-ops.
        assert!(w.pop_due(t(100)).is_empty());
        assert!(w.pop_due(t(100)).is_empty());
    }

    #[test]
    fn dense_random_deadlines_pop_in_global_order() {
        // A deterministic pseudo-random spray across all bands; popped
        // in chunks, the concatenation must be globally sorted and
        // complete.
        let mut w = TimerWheel::new(SimTime::ZERO);
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut deadlines = Vec::new();
        for i in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let d = us(x % (3 * 3600 * 1_000_000)); // up to 3 h
            deadlines.push((d, i));
            w.schedule(d, i);
        }
        let mut popped = Vec::new();
        for step in 1..=36 {
            popped.extend(w.pop_due(t(step * 300)));
        }
        popped.extend(w.pop_due(t(4 * 3600)));
        assert!(w.is_empty());
        let mut expect = deadlines.clone();
        expect.sort_by_key(|&(d, i)| (d, i));
        assert_eq!(popped, expect, "chunked pops must reconstruct the sorted deadline stream");
    }
}
