//! The kernel time base: monotonicity clamp, EWMA drift estimation,
//! tick-gap recovery, and the stalled-tick watchdog.
//!
//! Every RT-DVS guarantee rests on the timer interrupt: releases fire on
//! ticks, laEDF/ccEDF compute slack against assumed-true deadlines, and
//! transition settle deadlines are measured on the same clock. This
//! module owns the kernel's defense when that assumption breaks (a
//! [`ClockPlan`] attached via [`RtKernel::with_clock_plan`]):
//!
//! * **monotonicity clamp** — backward RTC jumps are refused and counted;
//!   kernel time never moves backward ([`KernelEvent::ClockJumpClamped`]);
//! * **drift estimator** — an EWMA over observed-vs-expected tick
//!   intervals; its error feeds a safety margin into policy slack (via
//!   tightened deadline views), admission, and transition-retry backoff;
//! * **tick-gap recovery** — releases are driven by delivered ticks, so
//!   a lost/coalesced run opens a gap; when it closes, the backlog is
//!   drained off the kernel's release heap in a catch-up cascade in exact
//!   `(scheduled release, task)` order ([`KernelEvent::ClockTickGap`]);
//! * **stalled-tick watchdog** — [`WATCHDOG_GAP_TICKS`] missed ticks in a
//!   row force a synthetic delivery (bounding release latency) and
//!   escalate the operating point to the capped fail-safe rail —
//!   upward-only, like the transition driver's forced rail.
//!
//! All kernel time writes and raw tick arithmetic live in this file; the
//! `time-base-mutation` lint forbids them anywhere else in the crate, the
//! same structural rule `mode-change-mutation` enforces for epoch state.
//! With no driver attached the kernel is byte-identical to the
//! pre-time-base kernel: no draws, no gating, no margins.

use core::cmp::Reverse;
use rtdvs_core::machine::PointIdx;
use rtdvs_core::readyq::tick_of;
use rtdvs_core::time::{Time, Work, EPS};
use rtdvs_sim::{ClockOracle, ClockPlan, TickOutcome};

use crate::kernel::{KernelEvent, ReleaseItem, RtKernel};

/// Nominal kernel timer period (1 kHz tick), milliseconds.
pub const TICK_MS: f64 = 1.0;

/// Gain of the EWMA drift estimator.
const EWMA_ALPHA: f64 = 0.125;

/// Missed/deferred ticks in a row before the stalled-tick watchdog
/// engages: it forces a synthetic delivery (so release latency stays
/// bounded by roughly this many ticks) and escalates to the fail-safe
/// rail until real ticks resume.
pub const WATCHDOG_GAP_TICKS: u64 = 8;

/// Ticks of |EWMA error| added to the admission guarantee-test WCET.
/// Applied only to the candidate the policy tests — never to the stored
/// spec, so checkpoints restore bit-identically.
const ADMISSION_MARGIN_TICKS: f64 = 2.0;

/// Ticks of |EWMA error| subtracted from the slack budget the
/// transition-retry backoff may consume.
const SLACK_MARGIN_TICKS: f64 = 4.0;

/// The live clock hardware behind the time base: the fault oracle plus
/// the tick cursor. Hardware state, like the regulator: never serialized
/// — a restore re-attaches the live driver rather than rewinding its
/// fault streams.
pub(crate) struct ClockDriver {
    pub(crate) oracle: ClockOracle,
    /// When the next timer tick is scheduled to fire.
    pub(crate) next_tick: Time,
    /// How far delivered ticks have covered: releases beyond this instant
    /// wait while a gap is open.
    pub(crate) coverage: Time,
    /// The last delivered (or synthetic) tick, for interval observation.
    pub(crate) last_delivered: Time,
}

/// Observed time-base state. Lives on the kernel (and in checkpoints —
/// the drift estimate survives a restore) independently of the driver.
pub struct TimeBase {
    /// The live clock hardware, when a plan is attached.
    pub(crate) driver: Option<ClockDriver>,
    /// EWMA of per-tick interval error, milliseconds (signed: positive
    /// means the oscillator runs slow).
    pub(crate) ewma_err_ms: f64,
    /// Backward RTC jumps refused by the monotonicity clamp.
    pub(crate) clamped_jumps: u64,
    /// When the clamp last refused a jump.
    pub(crate) last_clamp: Time,
    /// Deepest catch-up cascade so far (distinct overdue release instants
    /// drained after one gap).
    pub(crate) max_catch_up: u64,
    /// Ticks lost or deferred since the last delivery (open gap depth).
    pub(crate) pending_gap: u64,
    /// A gap just closed: the next release pass must drain the backlog
    /// through the catch-up cascade.
    pub(crate) pending_catch_up: bool,
    /// The stalled-tick watchdog is engaged (fail-safe rail forced).
    pub(crate) watchdog: bool,
}

impl Default for TimeBase {
    fn default() -> TimeBase {
        TimeBase {
            driver: None,
            ewma_err_ms: 0.0,
            clamped_jumps: 0,
            last_clamp: Time::ZERO,
            max_catch_up: 0,
            pending_gap: 0,
            pending_catch_up: false,
            watchdog: false,
        }
    }
}

impl TimeBase {
    /// `true` when every observed field is at its default — such a time
    /// base writes no checkpoint stanza.
    #[must_use]
    pub(crate) fn is_default_state(&self) -> bool {
        self.ewma_err_ms.to_bits() == 0.0_f64.to_bits()
            && self.clamped_jumps == 0
            && self.last_clamp.as_ms().to_bits() == 0.0_f64.to_bits()
            && self.max_catch_up == 0
            && self.pending_gap == 0
            && !self.pending_catch_up
            && !self.watchdog
    }

    /// Estimated oscillator drift magnitude, parts per million.
    #[must_use]
    pub(crate) fn drift_ppm(&self) -> f64 {
        self.ewma_err_ms.abs() / TICK_MS * 1.0e6
    }

    /// The instant releases may fire up to while a tick gap is open:
    /// `None` when the gate is wide open (no driver, or ticks healthy).
    pub(crate) fn release_gate(&self) -> Option<Time> {
        match &self.driver {
            Some(d) if self.pending_gap > 0 => Some(d.coverage),
            _ => None,
        }
    }

    /// When the next timer tick fires, if a driver is attached.
    pub(crate) fn next_tick_at(&self) -> Option<Time> {
        self.driver.as_ref().map(|d| d.next_tick)
    }
}

/// Read-only time-base state, as reported by `/proc`-style readback.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockStats {
    /// A clock fault plan is attached.
    pub active: bool,
    /// Estimated oscillator drift magnitude, ppm.
    pub drift_ppm: f64,
    /// Signed EWMA per-tick interval error, milliseconds.
    pub ewma_err_ms: f64,
    /// Backward jumps refused by the monotonicity clamp.
    pub clamped_jumps: u64,
    /// When the clamp last refused a jump, if ever.
    pub last_clamp: Option<Time>,
    /// Deepest catch-up cascade so far.
    pub max_catch_up: u64,
    /// Current open gap depth (ticks lost/deferred since last delivery).
    pub pending_gap: u64,
    /// The stalled-tick watchdog is currently engaged.
    pub watchdog: bool,
}

impl RtKernel {
    /// Attaches a clock fault plan behind the time base. An inactive plan
    /// attaches nothing and the kernel runs byte-identically to one with
    /// no plan at all.
    #[must_use]
    pub fn with_clock_plan(mut self, plan: ClockPlan) -> RtKernel {
        self.set_clock_plan(plan);
        self
    }

    /// Attaches or replaces the clock fault plan at run time (a restore
    /// re-attaches the plan the same way the regulator is re-attached).
    pub fn set_clock_plan(&mut self, plan: ClockPlan) {
        self.timebase.driver = plan.is_active().then(|| ClockDriver {
            oracle: ClockOracle::new(plan),
            next_tick: self.now + Time::from_ms(TICK_MS),
            coverage: self.now,
            last_delivered: self.now,
        });
    }

    /// `true` when a clock fault plan is attached.
    #[must_use]
    pub fn clock_plan_active(&self) -> bool {
        self.timebase.driver.is_some()
    }

    /// Time-base readback: drift estimate, clamp and catch-up counters,
    /// watchdog state.
    #[must_use]
    pub fn clock_stats(&self) -> ClockStats {
        let tb = &self.timebase;
        ClockStats {
            active: tb.driver.is_some(),
            drift_ppm: tb.drift_ppm(),
            ewma_err_ms: tb.ewma_err_ms,
            clamped_jumps: tb.clamped_jumps,
            last_clamp: (tb.clamped_jumps > 0).then_some(tb.last_clamp),
            max_catch_up: tb.max_catch_up,
            pending_gap: tb.pending_gap,
            watchdog: tb.watchdog,
        }
    }

    /// The scheduler-tick index of the kernel's current instant. The only
    /// raw tick arithmetic in the crate lives here.
    pub(crate) fn now_tick_index(&self) -> u64 {
        tick_of(self.now)
    }

    /// Moves kernel time forward to `target`, stepping the clock driver
    /// through every tick scheduled on the way. This is the single place
    /// kernel time is written; without a driver it is exactly the old
    /// `now = target` assignment.
    pub(crate) fn advance_clock(&mut self, target: Time) {
        let Some(mut drv) = self.timebase.driver.take() else {
            self.now = target;
            return;
        };
        while drv.next_tick.at_or_before(target) {
            let at = drv.next_tick;
            let obs = drv.oracle.on_tick(at);
            if let Some(attempted) = obs.backward_jump {
                // Monotonicity clamp: the raw RTC tried to move backward;
                // the time base refuses and only counts the attempt.
                self.timebase.clamped_jumps = self.timebase.clamped_jumps.saturating_add(1);
                self.timebase.last_clamp = at;
                self.log
                    .push((at, KernelEvent::ClockJumpClamped { attempted }));
            }
            match obs.outcome {
                TickOutcome::Delivered { .. } => {
                    if self.timebase.pending_gap > 0 {
                        let missed = self.timebase.pending_gap;
                        self.timebase.pending_gap = 0;
                        self.timebase.pending_catch_up = true;
                        self.log.push((at, KernelEvent::ClockTickGap { missed }));
                    }
                    if self.timebase.watchdog {
                        self.timebase.watchdog = false;
                        self.log
                            .push((at, KernelEvent::ClockWatchdog { engaged: false }));
                    }
                    // Drift estimation: compare the observed interval to
                    // the nearest whole number of nominal ticks, so a gap
                    // reads as its per-tick drift, not as a huge error.
                    let observed = (at - drv.last_delivered).as_ms();
                    let n = (observed / TICK_MS).round().max(1.0);
                    let err = observed / n - TICK_MS;
                    self.timebase.ewma_err_ms += EWMA_ALPHA * (err - self.timebase.ewma_err_ms);
                    drv.last_delivered = at;
                    drv.coverage = at;
                }
                TickOutcome::Lost | TickOutcome::Deferred => {
                    self.timebase.pending_gap = self.timebase.pending_gap.saturating_add(1);
                    if self.timebase.pending_gap >= WATCHDOG_GAP_TICKS {
                        // Stalled ticks: engage the watchdog (once per
                        // stall) and force a synthetic delivery — again
                        // every WATCHDOG_GAP_TICKS while the stall lasts,
                        // so release latency stays bounded even under a
                        // fully dead timer. The interval estimator is
                        // left alone — a synthetic tick observes nothing
                        // about the oscillator.
                        if !self.timebase.watchdog {
                            self.timebase.watchdog = true;
                            self.log
                                .push((at, KernelEvent::ClockWatchdog { engaged: true }));
                        }
                        let missed = self.timebase.pending_gap;
                        self.timebase.pending_gap = 0;
                        self.timebase.pending_catch_up = true;
                        self.log.push((at, KernelEvent::ClockTickGap { missed }));
                        drv.last_delivered = at;
                        drv.coverage = at;
                    }
                }
            }
            let spacing = drv.oracle.next_interval_ms(at, TICK_MS).max(TICK_MS * 0.5);
            drv.next_tick = at + Time::from_ms(spacing);
        }
        self.timebase.driver = Some(drv);
        self.now = target;
    }

    /// Fires every non-deferred release that is due, in index order, off
    /// the release heap — with or without a driver. An open tick gap holds
    /// releases past the last delivered tick; the tick that closes it
    /// drains the backlog through the catch-up cascade instead. Returns
    /// whether anything fired.
    pub(crate) fn process_due_releases(&mut self) -> bool {
        if self.timebase.driver.is_some() && self.timebase.pending_catch_up {
            return self.catch_up_releases();
        }
        let until = self
            .timebase
            .release_gate()
            .map_or(self.now, |cov| cov.min(self.now));
        let mut due = std::mem::take(&mut self.sched.due);
        self.sched.pop_due(&self.entries, until, &mut due);
        due.sort_unstable_by_key(|&Reverse((_, i))| i);
        self.release_all(due)
    }

    /// Drains the post-gap release backlog in `(scheduled release, task)`
    /// order — the order an uninterrupted timer would have fired them in:
    /// each cascade step takes the earliest overdue instant and every
    /// release within tolerance of it, in index order.
    fn catch_up_releases(&mut self) -> bool {
        self.timebase.pending_catch_up = false;
        let mut due = std::mem::take(&mut self.sched.due);
        let mut depth = 0u64;
        while let Some(first) = self
            .sched
            .first_release()
            .and_then(|i| self.entries.get(i))
            .map(|e| e.next_release)
            .filter(|t| t.at_or_before(self.now))
        {
            let start = due.len();
            self.sched
                .pop_due(&self.entries, first.min(self.now), &mut due);
            if let Some(step) = due.get_mut(start..) {
                step.sort_unstable_by_key(|&Reverse((_, i))| i);
            }
            depth += 1;
        }
        if due.len() > 1 {
            self.timebase.max_catch_up = self.timebase.max_catch_up.max(depth);
        }
        self.release_all(due)
    }

    /// Releases the popped items in order, then hands the buffer back.
    fn release_all(&mut self, mut due: Vec<ReleaseItem>) -> bool {
        for &Reverse((_, i)) in &due {
            self.release(i as usize);
        }
        let any = !due.is_empty();
        due.clear();
        self.sched.due = due;
        any
    }

    /// The earliest pending release the tick gate lets through, if any.
    pub(crate) fn next_gated_release(&self) -> Option<Time> {
        let next = self.entries.get(self.sched.first_release()?)?.next_release;
        match self.timebase.release_gate() {
            Some(cov) if !next.at_or_before(cov) => None,
            _ => Some(next),
        }
    }

    /// Logs a clock-induced late release (the audit layer holds these to
    /// the watchdog-derived latency bound). `scheduled` is the release
    /// instant the timer was supposed to fire at.
    pub(crate) fn note_release_latency(&mut self, idx: usize, invocation: u64, scheduled: Time) {
        if self.timebase.driver.is_none() {
            return;
        }
        let latency = self.now - scheduled;
        if latency.as_ms() > EPS {
            let handle = self.entries[idx].handle;
            self.log.push((
                self.now,
                KernelEvent::ReleaseLate {
                    handle,
                    invocation,
                    latency,
                },
            ));
        }
    }

    /// The fail-safe escalation of the stalled-tick watchdog: while
    /// engaged, the desired operating point is raised — never lowered —
    /// to the top of the (brownout-capped) ladder, so uncertain timing
    /// meets maximum speed, matching the transition driver's structural
    /// upward-only rule.
    pub(crate) fn clock_failsafe_point(&self, desired: PointIdx) -> PointIdx {
        if !self.timebase.watchdog {
            return desired;
        }
        let top = self.brownout_cap.map_or(self.machine.highest(), |cap| {
            cap.min(self.machine.highest())
        });
        desired.max(top)
    }

    /// A deadline as the policy should see it: tightened by the estimated
    /// drift over its span, clamped to never cross `now`. With no driver
    /// or no observed error the deadline passes through untouched.
    pub(crate) fn clock_tightened_deadline(&self, deadline: Time) -> Time {
        if !self.clock_tightens_deadlines() {
            return deadline;
        }
        let span = (deadline - self.now).max(Time::ZERO);
        let margin = span.as_ms() * self.timebase.drift_ppm() / 1.0e6;
        (deadline - Time::from_ms(margin)).max(self.now)
    }

    /// Whether [`RtKernel::clock_tightened_deadline`] moves deadlines: a
    /// driver is attached and the drift estimate is not exactly zero.
    pub(crate) fn clock_tightens_deadlines(&self) -> bool {
        self.timebase.driver.is_some() && self.timebase.ewma_err_ms.to_bits() != 0.0_f64.to_bits()
    }

    /// WCET surcharge for the admission guarantee test under observed
    /// drift. Never folded into stored specs: a checkpoint restore
    /// rebuilds specs from the stall budget alone and must be bit-exact.
    pub(crate) fn clock_admission_margin(&self) -> Work {
        if self.timebase.driver.is_none() {
            return Work::ZERO;
        }
        Work::from_ms(self.timebase.ewma_err_ms.abs() * ADMISSION_MARGIN_TICKS)
    }

    /// Shrinks the slack budget transition-retry backoff may consume by
    /// the observed timing error: under a drifting clock the measured
    /// distance to a deadline overstates the true one.
    pub(crate) fn clock_reduced_slack(&self, slack: Time) -> Time {
        if self.timebase.driver.is_none()
            || self.timebase.ewma_err_ms.to_bits() == 0.0_f64.to_bits()
        {
            return slack;
        }
        let margin = Time::from_ms(self.timebase.ewma_err_ms.abs() * SLACK_MARGIN_TICKS);
        (slack - margin).max(Time::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::WcetBody;
    use rtdvs_core::machine::Machine;
    use rtdvs_core::policy::PolicyKind;

    fn kernel() -> RtKernel {
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
        k.spawn(Time::from_ms(10.0), Work::from_ms(3.0), Box::new(WcetBody))
            .expect("schedulable");
        k
    }

    #[test]
    fn inactive_plan_attaches_no_driver() {
        let k = kernel().with_clock_plan(ClockPlan::none());
        assert!(!k.clock_plan_active());
        assert!(k.timebase.is_default_state());
        let stats = k.clock_stats();
        assert!(!stats.active);
        assert_eq!(stats.clamped_jumps, 0);
        assert_eq!(stats.last_clamp, None);
    }

    #[test]
    fn lost_ticks_open_a_gap_and_log_recovery() {
        let plan = ClockPlan::new(0x7_11)
            .with_tick_loss(0.4)
            .with_coalescing(0.2, 4);
        let mut k = kernel().with_clock_plan(plan);
        assert!(k.clock_plan_active());
        k.run_for(Time::from_ms(400.0));
        let gaps = k
            .log()
            .iter()
            .filter(|(_, e)| matches!(e, KernelEvent::ClockTickGap { .. }))
            .count();
        assert!(gaps > 0, "a 40% loss rate over 400 ticks never gapped");
        assert!(k.now().as_ms() >= 400.0 - 1e-9, "kernel stalled");
    }

    #[test]
    fn watchdog_engages_under_total_tick_loss_and_time_still_advances() {
        let plan = ClockPlan::new(1).with_tick_loss(1.0);
        let mut k = kernel().with_clock_plan(plan);
        k.run_for(Time::from_ms(100.0));
        assert!(
            k.log()
                .iter()
                .any(|(_, e)| matches!(e, KernelEvent::ClockWatchdog { engaged: true })),
            "total tick loss never engaged the watchdog"
        );
        assert!(k.clock_stats().watchdog);
        // Synthetic deliveries keep releases flowing: the task keeps
        // being invoked despite a fully dead timer.
        let released = k
            .log()
            .iter()
            .filter(|(_, e)| matches!(e, KernelEvent::Released { .. }))
            .count();
        assert!(released >= 8, "only {released} releases under watchdog");
    }

    #[test]
    fn backward_jumps_are_clamped_and_counted() {
        let plan = ClockPlan::new(2).with_backward_jumps(0.5, 2.0);
        let mut k = kernel().with_clock_plan(plan);
        k.run_for(Time::from_ms(200.0));
        let stats = k.clock_stats();
        assert!(stats.clamped_jumps > 0, "rate-0.5 jumps never fired");
        assert!(stats.last_clamp.is_some());
        // The clamp held: the kernel log never goes backwards.
        let mut last = Time::ZERO;
        for &(t, _) in k.log() {
            assert!(last.at_or_before(t), "kernel time moved backward");
            last = last.max(t);
        }
    }

    #[test]
    fn drift_is_estimated_and_margins_activate() {
        let plan = ClockPlan::new(3).with_drift(0.3, 400.0);
        let mut k = kernel().with_clock_plan(plan);
        k.run_for(Time::from_ms(500.0));
        let stats = k.clock_stats();
        assert!(stats.drift_ppm > 0.0, "drift never observed");
        assert!(stats.drift_ppm < 500.0, "estimate out of range");
        assert!(k.clock_admission_margin().as_ms() > 0.0);
        let slack = Time::from_ms(5.0);
        assert!(k.clock_reduced_slack(slack) < slack);
        let d = k.now() + Time::from_ms(100.0);
        let tightened = k.clock_tightened_deadline(d);
        assert!(tightened < d && tightened > k.now());
    }
}
