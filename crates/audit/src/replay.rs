//! Trace replay: re-derives every scheduling decision of a recorded run
//! and checks the paper's invariants against it.
//!
//! The engine journals releases (with the sampled actual computation),
//! completions, misses, and review grants into the [`Trace`]; segments say
//! what the processor did between them. Replaying the journal against a
//! fresh policy instance reconstructs the exact [`SystemView`] the engine
//! handed to the policy at every scheduling point — work accrual uses the
//! same arithmetic on the same interval boundaries, so the replayed state
//! is bit-for-bit identical and any divergence is a real finding, not
//! float noise.

use rtdvs_core::analysis::{rm_feasible_at, static_rm_point};
use rtdvs_core::machine::{Machine, PointIdx};
use rtdvs_core::policy::{point_for_demand, CcEdf, CcRm, DvsPolicy, LaEdf, PolicyKind};
use rtdvs_core::task::{TaskId, TaskSet};
use rtdvs_core::time::{Time, Work, EPS};
use rtdvs_core::view::{InvState, SystemView, TaskView};
use rtdvs_sim::config::{MissPolicy, SimConfig};
use rtdvs_sim::trace::{Activity, Segment, Trace, TraceEvent};
use rtdvs_sim::{simulate, SimReport};

use crate::violation::{Rule, Violation};

/// Runs `kind` with trace recording forced on and audits the result.
///
/// Convenience entry point for tests and CI: the returned violation list
/// is empty exactly when the run upheld every checked invariant.
#[must_use]
pub fn audit_run(
    tasks: &TaskSet,
    machine: &Machine,
    kind: PolicyKind,
    cfg: &SimConfig,
) -> (SimReport, Vec<Violation>) {
    let cfg = cfg.clone().with_trace();
    let report = simulate(tasks, machine, kind, &cfg);
    let violations = TraceAuditor::new(tasks, machine, kind, &cfg).audit(&report);
    (report, violations)
}

/// Replays a recorded run and verifies the paper's invariants.
///
/// The auditor needs the same inputs the simulation ran with; feed it the
/// exact `tasks`/`machine`/`kind`/`cfg` combination that produced the
/// report (with `cfg.record_trace` enabled), then call
/// [`TraceAuditor::audit`].
#[derive(Debug, Clone, Copy)]
pub struct TraceAuditor<'a> {
    tasks: &'a TaskSet,
    machine: &'a Machine,
    kind: PolicyKind,
    cfg: &'a SimConfig,
}

impl<'a> TraceAuditor<'a> {
    /// Creates an auditor for one simulation configuration.
    #[must_use]
    pub fn new(
        tasks: &'a TaskSet,
        machine: &'a Machine,
        kind: PolicyKind,
        cfg: &'a SimConfig,
    ) -> TraceAuditor<'a> {
        TraceAuditor {
            tasks,
            machine,
            kind,
            cfg,
        }
    }

    /// Audits a report produced by this configuration, returning every
    /// violation found (empty = all invariants held).
    #[must_use]
    pub fn audit(&self, report: &SimReport) -> Vec<Violation> {
        let Some(trace) = &report.trace else {
            return vec![Violation {
                time: Time::ZERO,
                task: None,
                rule: Rule::TraceConsistency,
                details: "no trace recorded; run with SimConfig::with_trace()".to_owned(),
            }];
        };
        let mut out = Vec::new();
        self.check_report(report, trace, &mut out);
        let mut replay = Replay::new(self, trace, report);
        replay.run(trace);
        out.extend(replay.violations);
        out
    }

    /// Report-level checks that need no replay: the switch bound and the
    /// cross-checks between the report's counters and the journal.
    fn check_report(&self, report: &SimReport, trace: &Trace, out: &mut Vec<Violation>) {
        let releases: u64 = report.task_stats.iter().map(|t| t.releases).sum();
        let journaled = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Release { .. }))
            .count() as u64;
        if releases != journaled {
            out.push(Violation {
                time: Time::ZERO,
                task: None,
                rule: Rule::TraceConsistency,
                details: format!("report counts {releases} releases, journal has {journaled}"),
            });
        }
        let journaled_misses = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Miss { .. }))
            .count();
        if report.misses.len() != journaled_misses {
            out.push(Violation {
                time: Time::ZERO,
                task: None,
                rule: Rule::TraceConsistency,
                details: format!(
                    "report counts {} misses, journal has {journaled_misses}",
                    report.misses.len()
                ),
            });
        }
        // Point transitions visible in the trace can never exceed the
        // switches the engine says it applied.
        let transitions = trace
            .segments()
            .windows(2)
            .filter(|w| w[0].point != w[1].point)
            .count() as u64;
        if transitions > report.switches {
            out.push(Violation {
                time: Time::ZERO,
                task: None,
                rule: Rule::TraceConsistency,
                details: format!(
                    "trace shows {transitions} point transitions but report counts only {} switches",
                    report.switches
                ),
            });
        }
        // §2.5: at most two switches per task invocation, plus the initial
        // setting. Holds for the paper's six policies and a manual pin; the
        // interval governor and stochastic extension re-plan on reviews and
        // are exempt by design. Containment escalations and stuck
        // transitions both falsify the bound, so fault-injected runs are
        // exempt too.
        if switch_bounded(self.kind)
            && !self.cfg.fault.is_active()
            && report.switches > 2 * releases + 1
        {
            out.push(Violation {
                time: Time::ZERO,
                task: None,
                rule: Rule::SwitchBound,
                details: format!(
                    "{} switches for {releases} releases (bound 2·releases+1 = {})",
                    report.switches,
                    2 * releases + 1
                ),
            });
        }
    }
}

/// Whether the two-switches-per-invocation bound applies to this policy.
fn switch_bounded(kind: PolicyKind) -> bool {
    !matches!(
        kind,
        PolicyKind::Interval | PolicyKind::StochasticEdf { .. }
    )
}

/// Whether the policy is one of the paper's dynamic schemes, which must
/// halt at the lowest operating point while idle (§3.2).
fn idles_at_lowest(kind: PolicyKind) -> bool {
    matches!(
        kind,
        PolicyKind::CcEdf | PolicyKind::CcRm(_) | PolicyKind::LaEdf
    )
}

/// A concrete replayed policy. The paper's dynamic schemes are kept as
/// concrete types so the auditor can reach their accounting accessors
/// (`utilization_sum`, `outstanding_allotment`, ...); everything else is
/// driven through the trait object.
enum ReplayPolicy {
    CcEdf(CcEdf),
    CcRm(CcRm),
    LaEdf(LaEdf),
    Other(Box<dyn DvsPolicy + Send>),
}

impl ReplayPolicy {
    fn build(kind: PolicyKind) -> ReplayPolicy {
        match kind {
            PolicyKind::CcEdf => ReplayPolicy::CcEdf(CcEdf::new()),
            PolicyKind::CcRm(test) => ReplayPolicy::CcRm(CcRm::new(test)),
            PolicyKind::LaEdf => ReplayPolicy::LaEdf(LaEdf::new()),
            other => ReplayPolicy::Other(other.build()),
        }
    }

    fn as_dyn(&mut self) -> &mut dyn DvsPolicy {
        match self {
            ReplayPolicy::CcEdf(p) => p,
            ReplayPolicy::CcRm(p) => p,
            ReplayPolicy::LaEdf(p) => p,
            ReplayPolicy::Other(p) => p.as_mut(),
        }
    }

    fn as_dyn_ref(&self) -> &dyn DvsPolicy {
        match self {
            ReplayPolicy::CcEdf(p) => p,
            ReplayPolicy::CcRm(p) => p,
            ReplayPolicy::LaEdf(p) => p,
            ReplayPolicy::Other(p) => p.as_ref(),
        }
    }
}

/// Per-task replayed runtime state (mirrors the engine's).
#[derive(Debug, Clone)]
struct TaskRt {
    invocation: u64,
    state: InvState,
    executed: Work,
    actual: Work,
    deadline: Time,
    next_release: Time,
}

struct Replay<'a> {
    tasks: &'a TaskSet,
    machine: &'a Machine,
    kind: PolicyKind,
    cfg: &'a SimConfig,
    policy: ReplayPolicy,
    guarantees: bool,
    /// ccRM's statically-scaled pacing rate (§2.5), decided once: the task
    /// set does not change during a replay. 1.0 for every other policy.
    cc_rm_alpha: f64,
    rt: Vec<TaskRt>,
    /// Independent ccEDF oracle: worst-case utilization on release, actual
    /// on completion, maintained from the journal alone (§2.4).
    cc_util: Vec<f64>,
    segments: &'a [Segment],
    seg_idx: usize,
    pos: Time,
    /// Whether the run had an active fault plan. Injected faults make the
    /// applied operating point legitimately diverge from the replayed
    /// policy (stuck transitions, containment escalation to `f_max`,
    /// quarantine reordering), so point- and scheduler-divergence checks
    /// are suppressed; state tracking and accounting checks still run.
    fault_active: bool,
    /// Earliest injected fault, for miss classification.
    first_fault: Option<Time>,
    violations: Vec<Violation>,
}

impl<'a> Replay<'a> {
    fn new(auditor: &TraceAuditor<'a>, trace: &'a Trace, report: &SimReport) -> Replay<'a> {
        let rt = auditor
            .tasks
            .tasks()
            .iter()
            .map(|t| TaskRt {
                invocation: 0,
                state: InvState::Inactive,
                executed: Work::ZERO,
                actual: Work::ZERO,
                deadline: t.offset() + t.period(),
                next_release: t.offset(),
            })
            .collect();
        let policy = ReplayPolicy::build(auditor.kind);
        let guarantees = policy.as_dyn_ref().guarantees(auditor.tasks);
        let cc_rm_alpha = match auditor.kind {
            PolicyKind::CcRm(test) => static_rm_point(auditor.tasks, auditor.machine, test)
                .map_or(1.0, |idx| auditor.machine.point(idx).freq),
            _ => 1.0,
        };
        Replay {
            tasks: auditor.tasks,
            machine: auditor.machine,
            kind: auditor.kind,
            cfg: auditor.cfg,
            policy,
            guarantees,
            cc_rm_alpha,
            rt,
            cc_util: auditor
                .tasks
                .tasks()
                .iter()
                .map(|t| t.utilization())
                .collect(),
            segments: trace.segments(),
            seg_idx: 0,
            pos: Time::ZERO,
            fault_active: auditor.cfg.fault.is_active(),
            first_fault: report.faults.iter().map(|f| f.time()).reduce(Time::min),
            violations: Vec::new(),
        }
    }

    fn flag(&mut self, time: Time, task: Option<TaskId>, rule: Rule, details: String) {
        self.violations.push(Violation {
            time,
            task,
            rule,
            details,
        });
    }

    fn views(&self) -> Vec<TaskView> {
        self.rt
            .iter()
            .map(|s| TaskView {
                invocation: s.invocation,
                state: s.state,
                executed: s.executed,
                deadline: s.deadline,
                next_release: s.next_release,
            })
            .collect()
    }

    fn remaining(&self, i: usize) -> Work {
        (self.rt[i].actual - self.rt[i].executed).clamp_non_negative()
    }

    /// The ready queue exactly as the engine computes it.
    fn ready(&self) -> Vec<(TaskId, Time)> {
        self.rt
            .iter()
            .enumerate()
            .filter(|(i, s)| s.state == InvState::Active && self.remaining(*i).is_positive())
            .map(|(i, s)| (TaskId(i), s.deadline))
            .collect()
    }

    fn run(&mut self, trace: &Trace) {
        let init_point = self.policy.as_dyn().init(self.tasks, self.machine);
        self.check_init(init_point);
        for event in trace.events() {
            self.advance_to(event.time());
            self.apply_event(event);
        }
        self.advance_to(self.cfg.duration);
    }

    /// Consumes segments up to `t`, splitting any segment spanning it.
    /// Event times are engine interval boundaries, so the sub-intervals
    /// this produces are exactly the intervals the engine charged.
    fn advance_to(&mut self, t: Time) {
        while self.seg_idx < self.segments.len() {
            let seg = self.segments[self.seg_idx];
            let a = if self.pos.as_ms() > seg.start.as_ms() {
                self.pos
            } else {
                seg.start
            };
            let b = if seg.end.as_ms() < t.as_ms() {
                seg.end
            } else {
                t
            };
            if b.as_ms() > a.as_ms() {
                self.consume(a, b, &seg);
                self.pos = b;
            }
            if seg.end.at_or_before(t) {
                self.seg_idx += 1;
            } else {
                break;
            }
        }
    }

    /// Checks one constant-state interval `[a, b)` and accrues its work.
    fn consume(&mut self, a: Time, b: Time, seg: &Segment) {
        if seg.point >= self.machine.len() {
            self.flag(
                a,
                None,
                Rule::TraceConsistency,
                format!(
                    "segment references operating point {} out of range",
                    seg.point
                ),
            );
            return;
        }
        let freq = self.machine.point(seg.point).freq;
        match seg.activity {
            Activity::Run(id) => {
                let want = self.policy.as_dyn_ref().current_point();
                if seg.point != want && !self.fault_active {
                    self.flag(
                        a,
                        Some(id),
                        Rule::PolicyDivergence,
                        format!(
                            "ran at point {} but the replayed policy holds {want}",
                            seg.point
                        ),
                    );
                }
                if id.0 >= self.rt.len() {
                    self.flag(
                        a,
                        Some(id),
                        Rule::TraceConsistency,
                        "segment runs an unknown task".to_owned(),
                    );
                    return;
                }
                if !self.fault_active {
                    let ready = self.ready();
                    match self
                        .policy
                        .as_dyn_ref()
                        .scheduler()
                        .pick_next(self.tasks, &ready)
                    {
                        Some(pick) if pick == id => {}
                        Some(pick) => self.flag(
                            a,
                            Some(id),
                            Rule::TraceConsistency,
                            format!(
                                "priority inversion: T{} ran while T{} had priority",
                                id.0 + 1,
                                pick.0 + 1
                            ),
                        ),
                        None => self.flag(
                            a,
                            Some(id),
                            Rule::TraceConsistency,
                            "task ran with an empty ready queue".to_owned(),
                        ),
                    }
                }
                let work = (b - a).work_at(freq);
                let rt = &mut self.rt[id.0];
                rt.executed += work;
                if rt.executed.as_ms() > rt.actual.as_ms() + EPS {
                    let (executed, actual) = (rt.executed, rt.actual);
                    self.flag(
                        b,
                        Some(id),
                        Rule::TraceConsistency,
                        format!("executed {executed} past the sampled work {actual}"),
                    );
                }
            }
            Activity::Idle => {
                if self.fault_active {
                    return;
                }
                let want = self.policy.as_dyn_ref().idle_point(self.machine);
                if seg.point != want {
                    self.flag(
                        a,
                        None,
                        Rule::PolicyDivergence,
                        format!(
                            "idled at point {} but the policy asks for {want}",
                            seg.point
                        ),
                    );
                }
                if idles_at_lowest(self.kind) && seg.point != self.machine.lowest() {
                    self.flag(
                        a,
                        None,
                        Rule::IdleAtLowest,
                        format!(
                            "dynamic scheme idled at point {} instead of the lowest",
                            seg.point
                        ),
                    );
                }
                if let Some((TaskId(i), _)) = self.ready().first().copied() {
                    self.flag(
                        a,
                        Some(TaskId(i)),
                        Rule::TraceConsistency,
                        "processor idled while ready work was pending".to_owned(),
                    );
                }
            }
            Activity::Stall => {
                // Injected transition jitter stalls the pipeline even when
                // no systematic switch overhead is configured.
                if self.cfg.switch_overhead.is_none() && self.cfg.fault.transition_jitter.is_none()
                {
                    self.flag(
                        a,
                        None,
                        Rule::TraceConsistency,
                        "stall recorded but no switch overhead is configured".to_owned(),
                    );
                }
            }
        }
    }

    fn apply_event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Release {
                time,
                task,
                invocation,
                deadline,
                next_release,
                actual,
            } => self.on_release(time, task, invocation, deadline, next_release, actual),
            TraceEvent::Completion {
                time,
                task,
                executed,
            } => self.on_completion(time, task, executed),
            TraceEvent::Miss {
                time,
                task,
                deadline,
                remaining,
            } => self.on_miss(time, task, deadline, remaining),
            TraceEvent::Review { time } => self.on_review(time),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_release(
        &mut self,
        time: Time,
        task: TaskId,
        invocation: u64,
        deadline: Time,
        next_release: Time,
        actual: Work,
    ) {
        let i = task.0;
        if i >= self.rt.len() {
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                "release of an unknown task".to_owned(),
            );
            return;
        }
        let spec = self.tasks.task(task);
        if self.rt[i].state == InvState::Active {
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                "released while the previous invocation was still active".to_owned(),
            );
        }
        if invocation != self.rt[i].invocation + 1 {
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                format!(
                    "invocation jumped from {} to {invocation}",
                    self.rt[i].invocation
                ),
            );
        }
        let expect_deadline = self.rt[i].next_release + spec.period();
        if !deadline.approx_eq(expect_deadline) {
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                format!("deadline {deadline} is not release + period ({expect_deadline})"),
            );
        }
        if !deadline.at_or_before(next_release) {
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                format!("deadline {deadline} lies beyond the next release {next_release}"),
            );
        }
        if actual.as_ms() > spec.wcet().as_ms() + EPS && self.cfg.fault.overrun.is_none() {
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                format!("sampled work {actual} exceeds the WCET {}", spec.wcet()),
            );
        }
        let rt = &mut self.rt[i];
        rt.invocation = invocation;
        rt.state = InvState::Active;
        rt.executed = Work::ZERO;
        rt.deadline = deadline;
        rt.next_release = next_release;
        rt.actual = actual;
        // §2.4 step: a release restores the worst-case reservation.
        self.cc_util[i] = spec.utilization();
        let views = self.views();
        let sys = SystemView {
            now: time,
            tasks: self.tasks,
            machine: self.machine,
            views: &views,
        };
        self.policy.as_dyn().on_release(task, &sys);
        self.check_decision(time);
    }

    fn on_completion(&mut self, time: Time, task: TaskId, executed: Work) {
        let i = task.0;
        if i >= self.rt.len() {
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                "completion of an unknown task".to_owned(),
            );
            return;
        }
        if self.rt[i].state != InvState::Active {
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                "completion without an active invocation".to_owned(),
            );
        }
        if (self.rt[i].executed.as_ms() - executed.as_ms()).abs() > EPS {
            let accrued = self.rt[i].executed;
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                format!("journal says {executed} executed, segments accrue {accrued}"),
            );
        }
        if !time.at_or_before(self.rt[i].deadline) {
            let deadline = self.rt[i].deadline;
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                format!("completed after its deadline {deadline} without a recorded miss"),
            );
        }
        self.rt[i].executed = executed;
        self.rt[i].state = InvState::Completed;
        // §2.4 step: a completion frees the unused reservation.
        self.cc_util[i] = executed.as_ms() / self.tasks.task(task).period().as_ms();
        let views = self.views();
        let sys = SystemView {
            now: time,
            tasks: self.tasks,
            machine: self.machine,
            views: &views,
        };
        self.policy.as_dyn().on_completion(task, &sys);
        self.check_decision(time);
    }

    fn on_miss(&mut self, time: Time, task: TaskId, deadline: Time, remaining: Work) {
        let i = task.0;
        if i >= self.rt.len() {
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                "miss of an unknown task".to_owned(),
            );
            return;
        }
        let fault_induced = self
            .first_fault
            .map(|t| t.at_or_before(deadline))
            .unwrap_or(false);
        if fault_induced {
            // An injected fault preceded the deadline: the admission
            // test's premises were void, so the policy is not implicated.
            self.flag(
                time,
                Some(task),
                Rule::FaultInducedMiss,
                format!(
                    "invocation {} missed {deadline} with {remaining} left \
                     (first injected fault at {})",
                    self.rt[i].invocation,
                    self.first_fault.unwrap_or(Time::ZERO),
                ),
            );
        } else {
            self.flag(
                time,
                Some(task),
                Rule::DeadlineMiss,
                format!(
                    "invocation {} missed {deadline} with {remaining} left",
                    self.rt[i].invocation
                ),
            );
            if self.guarantees {
                self.flag(
                    time,
                    Some(task),
                    Rule::GuaranteeViolated,
                    format!(
                        "{} admitted the set (condition C1) yet T{} missed {deadline}",
                        self.kind.name(),
                        i + 1
                    ),
                );
            }
        }
        if !deadline.approx_eq(self.rt[i].deadline) {
            let tracked = self.rt[i].deadline;
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                format!("missed deadline {deadline} but the invocation's is {tracked}"),
            );
        }
        if !deadline.at_or_before(time) {
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                format!("miss processed before the deadline {deadline}"),
            );
        }
        let expect_remaining = self.remaining(i);
        if (expect_remaining.as_ms() - remaining.as_ms()).abs() > EPS {
            self.flag(
                time,
                Some(task),
                Rule::TraceConsistency,
                format!("journal says {remaining} remained, segments accrue {expect_remaining}"),
            );
        }
        // Mirror the engine's miss handling; the policy is not consulted.
        let period = self.tasks.task(task).period();
        let rt = &mut self.rt[i];
        match self.cfg.miss_policy {
            MissPolicy::DropRemaining => {
                rt.actual = rt.executed;
                rt.state = InvState::Completed;
            }
            MissPolicy::SkipRelease => {
                rt.deadline += period;
                rt.next_release += period;
            }
        }
    }

    fn on_review(&mut self, time: Time) {
        match self.policy.as_dyn_ref().review_at() {
            Some(due) if due.at_or_before(time) => {}
            Some(due) => self.flag(
                time,
                None,
                Rule::PolicyDivergence,
                format!("review granted early (policy asked for {due})"),
            ),
            None => self.flag(
                time,
                None,
                Rule::PolicyDivergence,
                "review granted but the replayed policy requested none".to_owned(),
            ),
        }
        let views = self.views();
        let sys = SystemView {
            now: time,
            tasks: self.tasks,
            machine: self.machine,
            views: &views,
        };
        self.policy.as_dyn().on_review(&sys);
        self.check_decision(time);
    }

    /// Invariants on the very first operating point, before any event.
    fn check_init(&mut self, init: PointIdx) {
        match self.kind {
            PolicyKind::PlainEdf | PolicyKind::PlainRm if init != self.machine.highest() => {
                self.flag(
                    Time::ZERO,
                    None,
                    Rule::DemandCoverage,
                    format!("non-DVS baseline started at point {init}, not the maximum"),
                );
            }
            PolicyKind::PlainEdf | PolicyKind::PlainRm => {}
            PolicyKind::StaticEdf => {
                let need = self.tasks.total_utilization().min(1.0);
                let freq = self.machine.point(init).freq;
                if freq + EPS < need {
                    self.flag(
                        Time::ZERO,
                        None,
                        Rule::DemandCoverage,
                        format!("static EDF frequency {freq} below the utilization {need}"),
                    );
                }
            }
            PolicyKind::StaticRm(test) => {
                let freq = self.machine.point(init).freq;
                if rm_feasible_at(self.tasks, 1.0, test) && !rm_feasible_at(self.tasks, freq, test)
                {
                    self.flag(
                        Time::ZERO,
                        None,
                        Rule::DemandCoverage,
                        format!("static RM frequency {freq} fails the schedulability test"),
                    );
                }
            }
            PolicyKind::Manual { point, .. } => {
                let expect = point.min(self.machine.highest());
                if init != expect {
                    self.flag(
                        Time::ZERO,
                        None,
                        Rule::PolicyDivergence,
                        format!("manual pin started at {init}, requested {expect}"),
                    );
                }
            }
            _ => {}
        }
    }

    /// Policy-specific accounting checks after every scheduling decision.
    fn check_decision(&mut self, now: Time) {
        // Every invariant below is premised on condition C2 (no task
        // exceeds its WCET) and timely releases; an active fault plan
        // voids those premises — e.g. an injected overrun pushes ccRM's
        // outstanding allotment past what a conforming run could accrue —
        // so the policy-state cross-checks stand down. Misses are still
        // classified, and clean runs audit in full.
        if self.fault_active {
            return;
        }
        let views = self.views();
        let sys = SystemView {
            now,
            tasks: self.tasks,
            machine: self.machine,
            views: &views,
        };
        // What the run still owes, worst case. ccRM allots against released
        // work only; laEDF conservatively plans unreleased (Inactive) tasks
        // at their full WCET, so its bound must too.
        let c_left_total: f64 = sys.iter().map(|(id, _)| sys.c_left(id).as_ms()).sum();
        let planned_c_left = |id: TaskId| {
            if sys.view(id).state == InvState::Inactive {
                self.tasks.task(id).wcet().as_ms()
            } else {
                sys.c_left(id).as_ms()
            }
        };
        match &mut self.policy {
            ReplayPolicy::CcEdf(p) => {
                let sum = p.utilization_sum();
                let point = p.current_point();
                let independent: f64 = self.cc_util.iter().sum();
                let expected = self.machine.point_at_least(sum);
                let freq = self.machine.point(point).freq;
                let mut flags: Vec<(Rule, String)> = Vec::new();
                if (sum - independent).abs() > EPS {
                    flags.push((
                        Rule::CcEdfAccounting,
                        format!("policy utilization sum {sum} != journal-derived {independent}"),
                    ));
                }
                if point != expected {
                    flags.push((
                        Rule::DemandCoverage,
                        format!("point {point} != point_at_least({sum}) = {expected}"),
                    ));
                }
                if freq + EPS < sum.min(1.0) {
                    flags.push((
                        Rule::DemandCoverage,
                        format!("frequency {freq} below committed utilization {sum}"),
                    ));
                }
                for (rule, details) in flags {
                    self.flag(now, None, rule, details);
                }
            }
            ReplayPolicy::CcRm(p) => {
                let Some(boundary) = p.review_at() else {
                    return;
                };
                let window = boundary - now;
                let allot = p.outstanding_allotment();
                let alpha = p.alpha();
                let point = p.current_point();
                let expected = point_for_demand(self.machine, allot, window);
                let static_alpha = self.cc_rm_alpha;
                let mut flags: Vec<(Rule, String)> = Vec::new();
                if (alpha - static_alpha).abs() > EPS {
                    flags.push((
                        Rule::CcRmPacing,
                        format!(
                            "pacing rate {alpha} diverges from the statically-scaled {static_alpha}"
                        ),
                    ));
                }
                if allot.as_ms() > alpha * window.as_ms() + EPS {
                    flags.push((
                        Rule::CcRmPacing,
                        format!(
                            "allotment {allot} exceeds the scaled schedule's {alpha}·{window}",
                        ),
                    ));
                }
                if allot.as_ms() > c_left_total + EPS {
                    flags.push((
                        Rule::CcRmPacing,
                        format!("allotment {allot} exceeds outstanding worst case {c_left_total}"),
                    ));
                }
                if point != expected {
                    flags.push((
                        Rule::DemandCoverage,
                        format!(
                            "point {point} != point_for_demand({allot}, {window}) = {expected}"
                        ),
                    ));
                }
                for (rule, details) in flags {
                    self.flag(now, None, rule, details);
                }
            }
            ReplayPolicy::LaEdf(p) => {
                let Some(d1) = p.review_at() else {
                    return;
                };
                let s = p.work_due_before_next_deadline(&sys);
                let point = p.current_point();
                let expected = point_for_demand(self.machine, s, d1 - now);
                let planned_total: f64 = sys.iter().map(|(id, _)| planned_c_left(id)).sum();
                let due_by_d1: f64 = sys
                    .iter()
                    .filter(|(_, v)| v.deadline.at_or_before(d1))
                    .map(|(id, _)| planned_c_left(id))
                    .sum();
                let mut flags: Vec<(Rule, String)> = Vec::new();
                if s.as_ms() > planned_total + EPS {
                    flags.push((
                        Rule::LaEdfDeferral,
                        format!("plans {s} before D1 but only {planned_total} is planned"),
                    ));
                }
                if s.as_ms() + EPS < due_by_d1 {
                    flags.push((
                        Rule::LaEdfDeferral,
                        format!("defers work due before D1: plans {s}, {due_by_d1} is due"),
                    ));
                }
                if point != expected {
                    flags.push((
                        Rule::DemandCoverage,
                        format!("point {point} != point_for_demand({s}, D1−now) = {expected}"),
                    ));
                }
                for (rule, details) in flags {
                    self.flag(now, None, rule, details);
                }
            }
            ReplayPolicy::Other(_) => {}
        }
    }
}
