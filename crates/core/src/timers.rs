//! Exact deadline index: the engine's timer service.
//!
//! Servicing timers by walking the *entire* FIB (plus every
//! pending-join, pending-quit and deferred-reattach map) on every
//! `on_timer` call costs O(N) per wakeup in resident group state —
//! exactly the cost CBT's per-group state model is supposed to avoid.
//! [`TimerService`] instead keeps one deadline per key in two ordered
//! indexes: a key → deadline map and a `(deadline, key)` set. Arming,
//! cancelling and popping a key are O(log K); `peek` reads the set's
//! first element.
//!
//! The index holds only live deadlines: a superseded or cancelled
//! deadline is removed on the spot, so `peek` is always the earliest
//! armed deadline and the service costs nothing until its first arm.
//!
//! Ordering contract: `pop_due_with_deadline` returns keys sorted by
//! `(deadline, key)`.

use cbt_netsim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Keyed timer service: at most one deadline per key.
///
/// `arm` supersedes any previous deadline for the key and `cancel`
/// disarms it; both update the ordered index in place, so the service
/// never holds a stale entry and its size is the number of armed keys.
#[derive(Debug, Clone)]
pub struct TimerService<K: Ord + Copy> {
    deadlines: BTreeMap<K, SimTime>,
    order: BTreeSet<(SimTime, K)>,
}

impl<K: Ord + Copy> Default for TimerService<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> TimerService<K> {
    /// New empty service. Does not allocate.
    pub fn new() -> Self {
        TimerService { deadlines: BTreeMap::new(), order: BTreeSet::new() }
    }

    /// Arms (or re-arms) `key` to fire at `deadline`, superseding any
    /// previously armed deadline for the key. Past deadlines fire on
    /// the next pop.
    pub fn arm(&mut self, key: K, deadline: SimTime) {
        if let Some(old) = self.deadlines.insert(key, deadline) {
            self.order.remove(&(old, key));
        }
        self.order.insert((deadline, key));
    }

    /// Disarms `key`; a no-op when it is not armed.
    pub fn cancel(&mut self, key: K) {
        if let Some(old) = self.deadlines.remove(&key) {
            self.order.remove(&(old, key));
        }
    }

    /// Pops every key whose deadline is `<= now`, sorted by
    /// `(deadline, key)` and paired with the deadline it was armed
    /// for, so callers can measure wakeup lag (`now - deadline`).
    pub fn pop_due_with_deadline(&mut self, now: SimTime) -> Vec<(K, SimTime)> {
        let mut due = Vec::new();
        while let Some(&(deadline, key)) = self.order.first() {
            if deadline > now {
                break;
            }
            self.order.pop_first();
            self.deadlines.remove(&key);
            due.push((key, deadline));
        }
        due
    }

    /// The earliest armed deadline.
    pub fn peek(&self) -> Option<SimTime> {
        self.order.first().map(|&(deadline, _)| deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn keys<K: Ord + Copy>(s: &mut TimerService<K>, now: SimTime) -> Vec<K> {
        s.pop_due_with_deadline(now).into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn service_arm_supersedes_and_cancel_disarms() {
        let mut s = TimerService::new();
        s.arm("echo", t(30));
        s.arm("echo", t(60)); // supersedes the t(30) deadline
        assert!(keys(&mut s, t(30)).is_empty(), "superseded deadline must not fire");
        assert_eq!(keys(&mut s, t(60)), vec!["echo"]);

        s.arm("quit", t(90));
        s.cancel("quit");
        assert!(keys(&mut s, t(100)).is_empty(), "cancelled key must not fire");
        assert!(s.deadlines.is_empty() && s.order.is_empty());

        // Cancel + re-arm: only the new deadline fires.
        s.arm("join", t(110));
        s.cancel("join");
        s.arm("join", t(120));
        assert!(keys(&mut s, t(110)).is_empty());
        assert_eq!(keys(&mut s, t(120)), vec!["join"]);
    }

    #[test]
    fn peek_is_exact_after_supersede_and_cancel() {
        let mut s = TimerService::new();
        s.arm(1u32, t(10));
        s.arm(2u32, t(20));
        s.arm(1u32, t(50));
        assert_eq!(s.peek(), Some(t(20)), "a superseded deadline never shows");
        s.cancel(2u32);
        assert_eq!(s.peek(), Some(t(50)), "a cancelled deadline never shows");
        s.arm(1u32, t(5));
        assert_eq!(s.peek(), Some(t(5)), "re-arming earlier moves the head back");
        assert_eq!(keys(&mut s, t(5)), vec![1u32]);
        assert_eq!(s.peek(), None);
    }

    #[test]
    fn pops_in_deadline_then_key_order() {
        let mut s = TimerService::new();
        s.arm(3u8, t(5));
        s.arm(1u8, t(5));
        s.arm(2u8, t(4));
        s.arm(9u8, t(6));
        assert_eq!(keys(&mut s, t(5)), vec![2, 1, 3], "same-deadline keys pop in key order");
        assert_eq!(keys(&mut s, t(6)), vec![9]);
    }

    #[test]
    fn service_pop_with_deadline_reports_armed_instants() {
        let mut s = TimerService::new();
        s.arm(1u8, t(10));
        s.arm(2u8, t(15));
        // Woken late: both fire, each tagged with its own deadline.
        assert_eq!(s.pop_due_with_deadline(t(30)), vec![(1u8, t(10)), (2u8, t(15))]);
    }

    #[test]
    fn service_handles_past_deadlines_and_repeat_pops() {
        let mut s = TimerService::new();
        s.arm("late-arm", t(10)); // already past when popped at t(100)
        assert_eq!(keys(&mut s, t(100)), vec!["late-arm"]);
        // Repeat pops at the same instant are harmless no-ops.
        assert!(keys(&mut s, t(100)).is_empty());
        assert!(keys(&mut s, t(100)).is_empty());
    }

    #[test]
    fn service_key_table_is_reclaimed_after_churn() {
        // Arming a timer for every group ever seen must not leave a
        // table entry per group behind: fired and cancelled keys go.
        let mut s = TimerService::new();
        for i in 0..10_000u64 {
            s.arm(i, t(i + 1));
            assert_eq!(keys(&mut s, t(i + 1)), vec![i]);
        }
        assert!(s.deadlines.is_empty() && s.order.is_empty(), "fired keys must not linger");

        s.arm(7u64, t(20_000));
        s.cancel(7u64);
        assert!(s.deadlines.is_empty() && s.order.is_empty(), "cancelled keys leave at once");

        // Heavy supersede churn on one key holds one entry.
        for n in 0..100u64 {
            s.arm(3u64, t(40_000 + n));
        }
        assert_eq!((s.deadlines.len(), s.order.len()), (1, 1));
        assert_eq!(s.peek(), Some(t(40_099)));
        assert_eq!(keys(&mut s, t(50_000)), vec![3u64]);
        assert!(s.deadlines.is_empty() && s.order.is_empty());
    }
}
