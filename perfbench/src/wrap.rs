//! Forwarding wrappers that time the callbacks a layer makes into user
//! code: [`TimedPolicy`] around a [`DvsPolicy`] and [`TimedBody`] around a
//! [`TaskBody`].
//!
//! Both forward every trait method unchanged and only add a call count and
//! busy time, so a wrapped run is the same program as an unwrapped one
//! (`tests/wrappers.rs` pins this). The clock reads still cost time, which
//! is why end-to-end numbers come from unwrapped runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rtdvs_core::machine::{Machine, PointIdx};
use rtdvs_core::policy::DvsPolicy;
use rtdvs_core::sched::SchedulerKind;
use rtdvs_core::task::{Task, TaskId, TaskSet};
use rtdvs_core::time::{Time, Work};
use rtdvs_core::view::SystemView;
use rtdvs_kernel::{BodyState, TaskBody};

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`DvsPolicy`] that forwards to `inner` and times its decision
/// callbacks (`init`, `on_release`, `on_completion`, `on_review`). The
/// cheap getters (`review_at`, `current_point`, ...) are forwarded
/// untimed.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn DvsPolicy,
    /// Decision callbacks made.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub busy_ns: u64,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'a mut dyn DvsPolicy) -> TimedPolicy<'a> {
        TimedPolicy {
            inner,
            calls: 0,
            busy_ns: 0,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn DvsPolicy) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut *self.inner);
        self.busy_ns += ns_since(t0);
        self.calls += 1;
        r
    }
}

impl DvsPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn scheduler(&self) -> SchedulerKind {
        self.inner.scheduler()
    }

    fn init(&mut self, tasks: &TaskSet, machine: &Machine) -> PointIdx {
        self.timed(|p| p.init(tasks, machine))
    }

    fn on_release(&mut self, task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        self.timed(|p| p.on_release(task, sys))
    }

    fn on_completion(&mut self, task: TaskId, sys: &SystemView<'_>) -> PointIdx {
        self.timed(|p| p.on_completion(task, sys))
    }

    fn review_at(&self) -> Option<Time> {
        self.inner.review_at()
    }

    fn on_review(&mut self, sys: &SystemView<'_>) -> PointIdx {
        self.timed(|p| p.on_review(sys))
    }

    fn idle_point(&self, machine: &Machine) -> PointIdx {
        self.inner.idle_point(machine)
    }

    fn current_point(&self) -> PointIdx {
        self.inner.current_point()
    }

    fn guarantees(&self, tasks: &TaskSet) -> bool {
        self.inner.guarantees(tasks)
    }
}

/// Call count and busy time shared by every [`TimedBody`] of one kernel.
#[derive(Debug, Default)]
pub struct BodyClock {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl BodyClock {
    /// `run` calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent in `run` and `on_invocation_complete`.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

/// A [`TaskBody`] that forwards to `inner` and charges its time to a
/// shared [`BodyClock`]. `snapshot_state` forwards too, so a checkpoint of
/// a wrapped kernel is byte-identical to an unwrapped one (and restores
/// to the unwrapped body).
pub struct TimedBody {
    inner: Box<dyn TaskBody>,
    clock: Arc<BodyClock>,
}

impl TimedBody {
    /// Wraps `inner`, charging to `clock`.
    pub fn new(inner: Box<dyn TaskBody>, clock: Arc<BodyClock>) -> TimedBody {
        TimedBody { inner, clock }
    }
}

impl TaskBody for TimedBody {
    fn run(&mut self, invocation: u64, spec: &Task) -> Work {
        let t0 = Instant::now();
        let w = self.inner.run(invocation, spec);
        // Relaxed: statistics only, read after the kernel has stopped.
        self.clock
            .busy_ns
            .fetch_add(ns_since(t0), Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        w
    }

    fn on_invocation_complete(&mut self, invocation: u64, now: Time) {
        let t0 = Instant::now();
        self.inner.on_invocation_complete(invocation, now);
        self.clock
            .busy_ns
            .fetch_add(ns_since(t0), Ordering::Relaxed);
    }

    fn snapshot_state(&self) -> Option<BodyState> {
        self.inner.snapshot_state()
    }
}
