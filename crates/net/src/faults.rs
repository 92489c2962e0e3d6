//! The single fault-application choke point of the wall-clock runtime.
//!
//! The TCP event loop ([`crate::tcp`]) consults *this* type on every
//! outbound copy, whichever host runs it — an in-process [`Cluster`] or a
//! `peer` process — so there is one drop/duplication semantics: for the
//! same ([`FaultPlan`], seed) and the same send sequence, the fate stream
//! is the same (pinned by `tests/fault_parity.rs`).
//!
//! [`Cluster`]: crate::Cluster

use std::sync::Mutex;
use std::time::Instant;
use wamcast_types::{FaultInjector, FaultPlan, LinkFate, ProcessId, SimTime};

/// The lossy-link adversary shared by every sender of a runtime: the same
/// [`FaultPlan`] vocabulary the simulator interprets, applied at send time
/// against the runtime's wall clock. Everything that crosses a link —
/// protocol traffic, consensus messages, heartbeats — sees the same
/// adversary.
///
/// Scope: drop, duplication and partitions are honored; latency *spikes*
/// are not (a kernel socket exposes no delay to scale — shaping latency
/// is the discrete-event runtime's job). Fates draw from the plan's
/// deterministic stream, but thread interleaving makes the *assignment*
/// of fates to messages nondeterministic; bit-for-bit replay is the
/// simulator's job.
///
/// # Example
///
/// ```
/// use wamcast_net::WallFaults;
/// use wamcast_types::{FaultPlan, ProcessId};
///
/// let plan = FaultPlan::none().with_drop(ProcessId(0), ProcessId(1), 1.0);
/// let faults = WallFaults::new(plan, 7);
/// assert!(faults.fate(ProcessId(0), ProcessId(1)).dropped);
/// ```
#[derive(Debug)]
pub struct WallFaults {
    injector: Mutex<FaultInjector>,
    start: Instant,
}

impl WallFaults {
    /// An adversary executing `plan` with the fate stream seeded by `seed`,
    /// with wall-clock zero at the moment of construction.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        WallFaults {
            injector: Mutex::new(FaultInjector::new(plan, seed)),
            start: Instant::now(),
        }
    }

    /// The instant this adversary's clock started.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// Draws the fate of one `from → to` copy at the current wall clock.
    pub fn fate(&self, from: ProcessId, to: ProcessId) -> LinkFate {
        let now = SimTime::from_nanos(self.start.elapsed().as_nanos() as u64);
        self.injector
            .lock()
            .expect("fault injector poisoned")
            .on_send(from, to, now)
    }

    /// Runs `f` with the underlying plan (crash schedule inspection).
    pub fn with_plan<R>(&self, f: impl FnOnce(&FaultPlan) -> R) -> R {
        f(self
            .injector
            .lock()
            .expect("fault injector poisoned")
            .plan())
    }
}
