//! Deterministic fault plans: the one registry every chaos harness in the
//! workspace installs at its failpoints.
//!
//! A [`FaultPlan<K, F>`] maps keys to faults. Each layer picks its own key
//! space and fault enum and keeps only its failpoint call sites:
//!
//! * the write path here keys [`WriteFault`]s by `(apply seq, WritePhase)`
//!   ([`WriteFaultPlan`]);
//! * `wazi-service` keys its `Fault`s by submission sequence number;
//! * `wazi-net` keys its `WireFault`s by request arrival ordinal.
//!
//! A failpoint calls [`FaultPlan::fire`] with its key and the fault kinds it
//! can inject; a fired fault is counted in [`FaultPlan::injected`] so chaos
//! tests can assert how many actually happened. Plans are built explicitly
//! ([`FaultPlan::new`] + [`FaultPlan::with`]) or drawn by
//! [`FaultPlan::seeded`] from the workspace's one [`splitmix64`] stream.
//! Without an installed plan a failpoint is one `Option` check.
//!
//! ```
//! use wazi_core::faults::FaultPlan;
//!
//! #[derive(Debug, Clone, Copy, PartialEq)]
//! enum Fault {
//!     Stall,
//!     Panic,
//! }
//!
//! let plan = FaultPlan::new().with(3, Fault::Stall).with(5, Fault::Panic);
//! // A failpoint that can only stall ignores the panic planned for key 5.
//! assert_eq!(plan.fire(&3, |f| f == Fault::Stall), Some(Fault::Stall));
//! assert_eq!(plan.fire(&5, |f| f == Fault::Stall), None);
//! assert_eq!(plan.injected(), 1);
//! ```
//!
//! [`WriteFault`]: crate::WriteFault
//! [`WriteFaultPlan`]: crate::WriteFaultPlan

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A deterministic schedule of faults of kind `F`, keyed by `K`.
///
/// Shared (behind an `Arc`) with every thread that runs a failpoint; the
/// injection counter is an atomic, so firing needs only `&self`.
#[derive(Debug)]
pub struct FaultPlan<K, F> {
    faults: BTreeMap<K, F>,
    injected: AtomicU64,
}

impl<K: Ord + Copy, F: Copy> Default for FaultPlan<K, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy, F: Copy> FaultPlan<K, F> {
    /// An empty plan (no faults; every failpoint is a no-op).
    pub fn new() -> Self {
        Self {
            faults: BTreeMap::new(),
            injected: AtomicU64::new(0),
        }
    }

    /// Adds (or replaces) the fault planned for `key`.
    pub fn with(mut self, key: K, fault: F) -> Self {
        self.faults.insert(key, fault);
        self
    }

    /// The fault planned for `key`, if any (never counted as fired).
    pub fn fault_for(&self, key: &K) -> Option<F> {
        self.faults.get(key).copied()
    }

    /// The planned `(key, fault)` pairs in key order.
    pub fn schedule(&self) -> impl Iterator<Item = (K, F)> + '_ {
        self.faults.iter().map(|(&key, &fault)| (key, fault))
    }

    /// How many faults have fired so far (all kinds).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Fires the fault planned for `key` if `accept` takes its kind: counts
    /// it in [`FaultPlan::injected`] and returns it. A fault of another kind
    /// belongs to a different failpoint and stays unfired.
    pub fn fire(&self, key: &K, accept: impl FnOnce(F) -> bool) -> Option<F> {
        let fault = self.fault_for(key).filter(|&fault| accept(fault))?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }
}

impl<F: Copy> FaultPlan<u64, F> {
    /// A seeded plan: `count` faults on distinct keys below `n` (fewer only
    /// when `n < count`). Keys come from a [`splitmix64`] stream started at
    /// `seed`, skipping keys already taken; `draw(placed, state)` picks each
    /// fault from the number placed so far (a layer's kind cycle) and may
    /// draw magnitudes from the same stream. Equal inputs give equal plans.
    pub fn seeded(
        seed: u64,
        n: u64,
        count: usize,
        mut draw: impl FnMut(usize, &mut u64) -> F,
    ) -> Self {
        let mut plan = Self::new();
        let target = count.min(usize::try_from(n).unwrap_or(usize::MAX));
        let mut state = seed;
        while plan.faults.len() < target {
            let key = splitmix64(&mut state) % n;
            if plan.faults.contains_key(&key) {
                continue;
            }
            let fault = draw(plan.faults.len(), &mut state);
            plan.faults.insert(key, fault);
        }
        plan
    }
}

/// Fixed-increment splitmix64 step: the workspace's statelessly seedable
/// generator for fault schedules and retry jitter.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        A,
        B(u64),
    }

    fn cycle(placed: usize, state: &mut u64) -> Kind {
        match placed % 2 {
            0 => Kind::A,
            _ => Kind::B(splitmix64(state) % 10),
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        let mut a = 42u64;
        let mut b = 42u64;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_ne!(splitmix64(&mut a), splitmix64(&mut a));
    }

    #[test]
    fn schedules_are_deterministic_distinct_and_sorted() {
        let a = FaultPlan::seeded(7, 500, 12, cycle);
        let b = FaultPlan::seeded(7, 500, 12, cycle);
        let keys: Vec<u64> = a.schedule().map(|(key, _)| key).collect();
        assert_eq!(
            a.schedule().collect::<Vec<_>>(),
            b.schedule().collect::<Vec<_>>()
        );
        assert_eq!(keys.len(), 12);
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys distinct + sorted"
        );
        assert!(keys.iter().all(|&key| key < 500));
        // `draw` sees placements 0..count in order: half of each kind.
        let a_count = a.schedule().filter(|&(_, f)| f == Kind::A).count();
        assert_eq!(a_count, 6);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::seeded(1, 1_000, 8, cycle);
        let b = FaultPlan::seeded(2, 1_000, 8, cycle);
        assert_ne!(
            a.schedule().collect::<Vec<_>>(),
            b.schedule().collect::<Vec<_>>()
        );
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        assert_eq!(FaultPlan::seeded(7, 0, 5, cycle).schedule().count(), 0);
        // More faults than keys: fills every key and stops.
        assert_eq!(FaultPlan::seeded(7, 3, 100, cycle).schedule().count(), 3);
        assert_eq!(FaultPlan::seeded(7, 100, 0, cycle).schedule().count(), 0);
    }

    #[test]
    fn degenerate_plans_are_safe() {
        let plan: FaultPlan<u64, Kind> = FaultPlan::default();
        assert_eq!(plan.fault_for(&0), None);
        assert_eq!(plan.fire(&0, |_| true), None);
        assert_eq!(plan.schedule().count(), 0);
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn explicit_plans_register_and_count() {
        let plan = FaultPlan::new()
            .with((3, 'x'), Kind::A)
            .with((5, 'y'), Kind::B(1))
            .with((3, 'x'), Kind::B(2));
        assert_eq!(plan.fault_for(&(3, 'x')), Some(Kind::B(2)), "with replaces");
        assert_eq!(plan.fault_for(&(3, 'y')), None);
        assert_eq!(
            plan.schedule().collect::<Vec<_>>(),
            vec![((3, 'x'), Kind::B(2)), ((5, 'y'), Kind::B(1))]
        );
        // Looking a fault up never counts it.
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn fire_counts_only_accepted_kinds() {
        let plan = FaultPlan::new().with(1, Kind::A).with(2, Kind::B(4));
        let is_a = |f: Kind| f == Kind::A;
        assert_eq!(plan.fire(&2, is_a), None, "another failpoint's kind");
        assert_eq!(plan.fire(&3, is_a), None, "nothing planned");
        assert_eq!(plan.injected(), 0);
        assert_eq!(plan.fire(&1, is_a), Some(Kind::A));
        assert_eq!(plan.fire(&1, is_a), Some(Kind::A), "fires on every attempt");
        assert_eq!(plan.fire(&2, |f| matches!(f, Kind::B(_))), Some(Kind::B(4)));
        assert_eq!(plan.injected(), 3);
    }
}
