//! Deterministic fault injection for the service (the chaos harness).
//!
//! A [`FaultPlan`] maps *submission sequence numbers* (the order in which
//! the service accepted queries, starting at 0) to faults, and the service
//! consults it at four failpoints:
//!
//! * [`Fault::KernelPanic`] fires inside the worker's panic-isolation
//!   boundary, on **every** execution attempt that includes the faulty
//!   query — the coalesced batch pass panics, and during the degraded
//!   one-by-one re-execution only the faulty query panics again, so the
//!   fault resolves exactly like a deterministic kernel bug:
//!   [`crate::ServiceError::ExecutionPanicked`] for the poisoning query,
//!   bit-identical answers for everyone else.
//! * [`Fault::ExecDelay`] sleeps before the batch executes — a slow kernel
//!   or a scheduling stall, for exercising deadlines and timeouts.
//! * [`Fault::QueueStall`] sleeps *inside* `submit` while the queue mutex
//!   is held — a stalled producer wedging the queue.
//! * [`Fault::WorkerKill`] panics in the worker loop **outside** the
//!   isolation boundary, while the queue guard is still held: the worker
//!   dies with its drained batch's tickets (they resolve to
//!   [`crate::ServiceError::WorkerDied`]), the queue mutex is poisoned
//!   (every other lock site recovers the guard), and the supervisor
//!   respawns the worker. This is the fault the supervision layer exists
//!   for.
//!
//! Plans are either explicit ([`FaultPlan::new`] + [`FaultPlan::with`]) or
//! seeded ([`Fault::seeded_plan`]): a splitmix64-derived schedule over the
//! first three fault kinds, deterministic per seed, for chaos-test
//! matrices. The plan type is `wazi_core`'s generic
//! [`wazi_core::faults::FaultPlan`]; without an installed plan every
//! failpoint is a single `Option` check and allocates nothing.

use std::sync::Arc;
use std::time::Duration;

use wazi_core::faults::splitmix64;

/// One injectable fault, keyed by the submission sequence number of the
/// query it poisons. See the module docs for where each kind fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Panic inside the execution boundary whenever an attempt includes
    /// the faulty query (batch pass and its own solo re-execution).
    KernelPanic,
    /// Sleep this long before executing any batch containing the query.
    ExecDelay(Duration),
    /// Sleep this long inside `submit` while the queue mutex is held.
    QueueStall(Duration),
    /// Panic in the worker loop outside the isolation boundary, with the
    /// queue guard held, right after the batch containing the query was
    /// drained: kills the worker and poisons the queue mutex.
    WorkerKill,
}

/// A deterministic schedule of [`Fault`]s over submission sequence numbers.
///
/// Installed into a service via `ServiceBuilder::fault_plan`; shared with
/// every worker and submitter.
pub type FaultPlan = wazi_core::faults::FaultPlan<u64, Fault>;

impl Fault {
    /// A seeded plan: `count` faults spread deterministically over the
    /// first `n_queries` submission numbers, cycling through kernel
    /// panics, execution delays and queue stalls (the three kinds that
    /// leave the worker pool intact; [`Fault::WorkerKill`] is only ever
    /// injected explicitly). Equal seeds give equal plans.
    pub fn seeded_plan(seed: u64, n_queries: u64, count: usize) -> FaultPlan {
        FaultPlan::seeded(
            seed ^ 0x9E37_79B9_7F4A_7C15,
            n_queries,
            count,
            |placed, state| match placed % 3 {
                0 => Fault::KernelPanic,
                1 => Fault::ExecDelay(Duration::from_micros(200 + splitmix64(state) % 800)),
                _ => Fault::QueueStall(Duration::from_micros(100 + splitmix64(state) % 400)),
            },
        )
    }
}

/// Failpoint: stall the submitting thread (queue mutex held by the caller).
pub(crate) fn stall_on_submit(plan: &Option<Arc<FaultPlan>>, seq: u64) {
    let Some(plan) = plan else { return };
    if let Some(Fault::QueueStall(delay)) = plan.fire(&seq, |f| matches!(f, Fault::QueueStall(_))) {
        std::thread::sleep(delay);
    }
}

/// Failpoint: kill the worker that just drained a batch containing a
/// [`Fault::WorkerKill`] query. The caller holds the queue guard, so the
/// panic poisons the mutex — deliberately: recovery from the poisoned
/// guard is part of what the harness verifies.
pub(crate) fn kill_worker_if_planned(
    plan: &Option<Arc<FaultPlan>>,
    seqs: impl Iterator<Item = u64>,
) {
    let Some(plan) = plan else { return };
    for seq in seqs {
        if plan.fire(&seq, |f| f == Fault::WorkerKill).is_some() {
            panic!("injected worker kill (fault plan, submission #{seq})");
        }
    }
}

/// Failpoint: delay and/or panic before a coalesced batch executes. Runs
/// inside the worker's panic-isolation boundary.
pub(crate) fn delay_and_panic_if_planned(
    plan: &Option<Arc<FaultPlan>>,
    seqs: impl Iterator<Item = u64> + Clone,
) {
    let Some(plan) = plan else { return };
    for seq in seqs.clone() {
        if let Some(Fault::ExecDelay(delay)) = plan.fire(&seq, |f| matches!(f, Fault::ExecDelay(_)))
        {
            std::thread::sleep(delay);
        }
    }
    for seq in seqs {
        if plan.fire(&seq, |f| f == Fault::KernelPanic).is_some() {
            panic!("injected kernel panic (fault plan, submission #{seq})");
        }
    }
}

/// Failpoint: panic during the degraded one-by-one re-execution of the
/// query that carries the kernel-panic fault (and only that one).
pub(crate) fn panic_if_planned_solo(plan: &Option<Arc<FaultPlan>>, seq: u64) {
    let Some(plan) = plan else { return };
    if plan.fire(&seq, |f| f == Fault::KernelPanic).is_some() {
        panic!("injected kernel panic (fault plan, solo re-execution of #{seq})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = Fault::seeded_plan(42, 100, 10);
        let b = Fault::seeded_plan(42, 100, 10);
        assert_eq!(
            a.schedule().collect::<Vec<_>>(),
            b.schedule().collect::<Vec<_>>()
        );
        assert_eq!(a.schedule().count(), 10);
        assert!(a.schedule().all(|(seq, _)| seq < 100));
        // All three seedable kinds appear, in their documented ranges;
        // WorkerKill never does.
        assert!(a.schedule().any(|(_, f)| f == Fault::KernelPanic));
        assert!(a.schedule().any(|(_, f)| matches!(f, Fault::ExecDelay(_))));
        assert!(a.schedule().any(|(_, f)| matches!(f, Fault::QueueStall(_))));
        for (_, fault) in a.schedule() {
            match fault {
                Fault::ExecDelay(d) => assert!((200..1_000).contains(&d.as_micros())),
                Fault::QueueStall(d) => assert!((100..500).contains(&d.as_micros())),
                Fault::KernelPanic => {}
                Fault::WorkerKill => panic!("seeded plans never kill workers"),
            }
        }
    }

    #[test]
    fn failpoints_fire_only_their_own_kind() {
        let shared = Some(Arc::new(
            FaultPlan::new()
                .with(3, Fault::KernelPanic)
                .with(5, Fault::WorkerKill),
        ));
        let plan = shared.as_ref().unwrap();
        stall_on_submit(&shared, 3); // wrong kind: no fire
        delay_and_panic_if_planned(&shared, [5, 7].into_iter());
        assert_eq!(plan.injected(), 0);
        let caught = std::panic::catch_unwind(|| panic_if_planned_solo(&shared, 3));
        assert!(caught.is_err());
        let caught = std::panic::catch_unwind(|| kill_worker_if_planned(&shared, 4..6));
        assert!(caught.is_err());
        assert_eq!(plan.injected(), 2);
        // No plan installed: every failpoint is a no-op.
        panic_if_planned_solo(&None, 3);
        kill_worker_if_planned(&None, 0..10);
    }
}
