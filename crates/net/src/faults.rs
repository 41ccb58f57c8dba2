//! Deterministic wire-level fault injection (the transport's chaos
//! harness), extending the `wazi-service` [`FaultPlan`] pattern across the
//! network boundary.
//!
//! A [`WireFaultPlan`] maps *request arrival ordinals* — the order in which
//! the server read request frames off its connections, starting at 0 — to
//! [`WireFault`]s, and the server consults it at five failpoints:
//!
//! * [`WireFault::CorruptFrame`] flips one bit of the encoded response
//!   before it is written, so the client's checksum verification must catch
//!   it and the retry loop must recover.
//! * [`WireFault::TruncateFrame`] writes only the first half of the
//!   response and severs the connection — a crash mid-write.
//! * [`WireFault::StallRead`] sleeps on the connection's reader thread
//!   before the request is submitted — a stalled server stage, for
//!   exercising client request timeouts without holding any lock.
//! * [`WireFault::DropConnection`] severs the connection instead of
//!   responding: the client sees a disconnect and must retry, while the
//!   server's writer must still drain the in-flight ticket (the
//!   no-ticket-left-behind guarantee extended to connections).
//! * [`WireFault::KillWriter`] panics the connection's writer thread while
//!   responses are in flight — the "server killed mid-drain" case. The
//!   server isolates the panic, severs the connection, and drains the
//!   remaining tickets anyway.
//!
//! Plans are explicit ([`WireFaultPlan::new`] + [`WireFaultPlan::with`]) or
//! seeded ([`WireFault::seeded_plan`]): a splitmix64-derived schedule over
//! the first four kinds, deterministic per seed ([`WireFault::KillWriter`]
//! is only ever injected explicitly, like the service plan's `WorkerKill`).
//! Without an installed plan every failpoint is one `Option` check.
//!
//! [`FaultPlan`]: wazi_service::FaultPlan

use std::time::Duration;

use wazi_core::faults::{splitmix64, FaultPlan};

/// One injectable wire fault, keyed by the arrival ordinal of the request
/// it poisons. See the module docs for where each kind fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireFault {
    /// Flip one bit of the encoded response frame before writing it.
    CorruptFrame,
    /// Write only the first half of the response, then sever.
    TruncateFrame,
    /// Sleep this long on the reader thread before submitting the request.
    StallRead(Duration),
    /// Sever the connection instead of writing the response.
    DropConnection,
    /// Panic the connection's writer thread while responses are in flight.
    KillWriter,
}

/// A deterministic schedule of [`WireFault`]s over request arrival
/// ordinals.
///
/// Installed into a server via `ServerBuilder::wire_faults`; shared with
/// every connection thread.
pub type WireFaultPlan = FaultPlan<u64, WireFault>;

impl WireFault {
    /// A seeded plan: `count` faults spread deterministically over the
    /// first `n_requests` arrival ordinals, cycling through corruption,
    /// truncation, read stalls and dropped connections
    /// ([`WireFault::KillWriter`] is only ever injected explicitly).
    /// Equal seeds give equal plans.
    pub fn seeded_plan(seed: u64, n_requests: u64, count: usize) -> WireFaultPlan {
        FaultPlan::seeded(
            seed ^ 0x01BE_FA17_57A1_1C0D,
            n_requests,
            count,
            |placed, state| match placed % 4 {
                0 => WireFault::CorruptFrame,
                1 => WireFault::TruncateFrame,
                2 => WireFault::StallRead(Duration::from_micros(200 + splitmix64(state) % 800)),
                _ => WireFault::DropConnection,
            },
        )
    }

    /// Whether the connection's reader thread fires this fault (the rest
    /// fire on its writer thread).
    pub(crate) fn on_read(self) -> bool {
        matches!(self, WireFault::StallRead(_) | WireFault::DropConnection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = WireFault::seeded_plan(42, 100, 12);
        let b = WireFault::seeded_plan(42, 100, 12);
        assert_eq!(
            a.schedule().collect::<Vec<_>>(),
            b.schedule().collect::<Vec<_>>()
        );
        assert_eq!(a.schedule().count(), 12);
        assert!(a.schedule().all(|(ordinal, _)| ordinal < 100));
        // All four seedable kinds appear; KillWriter never does.
        assert!(a.schedule().any(|(_, f)| f == WireFault::CorruptFrame));
        assert!(a.schedule().any(|(_, f)| f == WireFault::TruncateFrame));
        assert!(a
            .schedule()
            .any(|(_, f)| matches!(f, WireFault::StallRead(_))));
        assert!(a.schedule().any(|(_, f)| f == WireFault::DropConnection));
        assert!(a.schedule().all(|(_, f)| f != WireFault::KillWriter));
    }

    #[test]
    fn reader_and_writer_faults_partition_the_kinds() {
        let plan = WireFaultPlan::new()
            .with(1, WireFault::StallRead(Duration::ZERO))
            .with(2, WireFault::KillWriter);
        assert!(plan.fire(&2, WireFault::on_read).is_none());
        assert!(plan.fire(&1, |f| !f.on_read()).is_none());
        assert_eq!(plan.injected(), 0);
        assert_eq!(plan.fire(&2, |f| !f.on_read()), Some(WireFault::KillWriter));
        assert_eq!(plan.injected(), 1);
    }
}
