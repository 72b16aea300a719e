//! Transactional mode changes (§3.1: static scaling is recomputed
//! "whenever the task set changes").
//!
//! A [`ModeChange`] stages any mix of admit / retire / re-parameterize
//! operations as one transaction. Submission validates the whole target set
//! against the loaded policy's admission test *before touching anything*:
//! a rejected transaction returns an error and leaves kernel and policy
//! state byte-identical — no log entry, no counter bump, nothing (the
//! property tests snapshot the kernel around a rejection and compare
//! bitwise). A validated transaction commits atomically at the next *safe
//! point* — a quiescent instant, when no invocation is in flight, which is
//! exactly when §4.3 says the effects of past DVS decisions have expired —
//! and bumps the kernel's monotonic `mode_epoch`. Because the task set can
//! drift between staging and the safe point (degraded-mode shedding,
//! direct `spawn`/`remove` calls), the transaction is re-validated at
//! commit time; a failed re-validation drops it with a
//! [`KernelEvent::ModeChangeRejected`] instead of committing an unsound
//! set.
//!
//! With [`ModeChange::or_degrade`], a transaction whose demand exceeds
//! capacity at `f_max` is handed to the overload governor instead of being
//! rejected: the committed set runs with the least-critical periods
//! elastically stretched (see
//! [`rtdvs_core::analysis::elastic_stretch_assignment`]) until the
//! governor's hysteresis can restore nominal rates.
//!
//! This module also owns the only two primitives that may mutate the
//! kernel's entry table (`insert_entry` / `take_entry`); `xtask lint`
//! forbids direct task-set mutation anywhere else in the kernel crate, so
//! every admission and eviction — `spawn`, `remove`, shedding,
//! re-admission, commits — is forced through the audited transaction path.

use rtdvs_core::analysis::elastic_stretch_assignment;
use rtdvs_core::task::{Task, TaskSet};
use rtdvs_core::time::{Time, Work};
use rtdvs_core::view::InvState;

use crate::body::TaskBody;
use crate::kernel::{Entry, KernelError, KernelEvent, RtKernel, TaskHandle};

/// One staged operation of a mode-change transaction.
pub(crate) enum ModeOp {
    /// Admit a new periodic task.
    Admit {
        period: Time,
        wcet: Work,
        /// Moved out at commit; `None` afterwards.
        body: Option<Box<dyn TaskBody>>,
    },
    /// Retire an existing task (any outstanding invocation is abandoned).
    Retire { handle: TaskHandle },
    /// Replace an existing task's period and computing bound.
    Reparam {
        handle: TaskHandle,
        period: Time,
        wcet: Work,
    },
}

/// A transaction of task-set operations, built fluently and submitted with
/// [`RtKernel::submit_mode_change`].
///
/// Operations apply in the order they were added: a retire can target a
/// handle a previous reparam touched, but not a task admitted by the same
/// transaction (its handle is only issued at submission).
#[derive(Default)]
pub struct ModeChange {
    pub(crate) ops: Vec<ModeOp>,
    pub(crate) allow_stretch: bool,
}

impl ModeChange {
    /// An empty transaction.
    #[must_use]
    pub fn new() -> ModeChange {
        ModeChange::default()
    }

    /// Stages admission of a new periodic task.
    #[must_use]
    pub fn admit(mut self, period: Time, wcet: Work, body: Box<dyn TaskBody>) -> ModeChange {
        self.ops.push(ModeOp::Admit {
            period,
            wcet,
            body: Some(body),
        });
        self
    }

    /// Stages retirement of an existing task.
    #[must_use]
    pub fn retire(mut self, handle: TaskHandle) -> ModeChange {
        self.ops.push(ModeOp::Retire { handle });
        self
    }

    /// Stages a re-parameterization of an existing task.
    #[must_use]
    pub fn reparam(mut self, handle: TaskHandle, period: Time, wcet: Work) -> ModeChange {
        self.ops.push(ModeOp::Reparam {
            handle,
            period,
            wcet,
        });
        self
    }

    /// Allows the overload governor to elastically stretch periods when
    /// the staged demand exceeds capacity at `f_max`, instead of rejecting
    /// the transaction. Off by default, so rejection stays state-neutral.
    #[must_use]
    pub fn or_degrade(mut self) -> ModeChange {
        self.allow_stretch = true;
        self
    }

    /// Number of staged operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the transaction stages no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What [`RtKernel::submit_mode_change`] hands back for a validated
/// transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeChangeReceipt {
    /// Handles pre-assigned to the transaction's admits, in op order. They
    /// are live once the transaction commits (immediately if `committed`).
    pub admitted: Vec<TaskHandle>,
    /// `true` if the kernel was already at a safe point and the commit
    /// happened synchronously; `false` if the transaction was staged.
    pub committed: bool,
    /// The mode epoch after the commit, or the current epoch if staged.
    pub epoch: u64,
}

/// A validated transaction parked until its safe point.
pub(crate) struct StagedChange {
    pub(crate) ops: Vec<ModeOp>,
    pub(crate) allow_stretch: bool,
    /// Handles pre-assigned to the admits at submission time.
    pub(crate) admit_handles: Vec<TaskHandle>,
}

/// Where a planned entry comes from.
#[derive(Clone, Copy)]
enum Source {
    /// An already-admitted task, by handle.
    Existing(TaskHandle),
    /// The `i`-th admit of the transaction.
    New(usize),
}

/// One row of a validated plan: the task the set will contain after the
/// commit, before governor stretching.
struct PlanItem {
    source: Source,
    task: Task,
    /// Governor stretch factor (1.0 = nominal rate).
    factor: f64,
    /// Whether the commit must rewrite this entry at all.
    dirty: bool,
}

/// A fully validated transaction: the exact set the commit will install.
pub(crate) struct Plan {
    items: Vec<PlanItem>,
    retired: Vec<TaskHandle>,
}

/// Validates `ops` against the kernel's current set. Pure: borrows the
/// kernel immutably, so a rejected transaction cannot have changed
/// anything.
fn plan(kernel: &RtKernel, ops: &[ModeOp], allow_stretch: bool) -> Result<Plan, KernelError> {
    let mut items: Vec<PlanItem> = kernel
        .entries
        .iter()
        .map(|e| PlanItem {
            source: Source::Existing(e.handle),
            task: e.user_spec,
            factor: 1.0,
            dirty: false,
        })
        .collect();
    let mut retired: Vec<TaskHandle> = Vec::new();
    let mut admit_count = 0usize;
    for op in ops {
        match op {
            ModeOp::Admit { period, wcet, .. } => {
                let task = Task::new(*period, *wcet).map_err(KernelError::BadTask)?;
                items.push(PlanItem {
                    source: Source::New(admit_count),
                    task,
                    factor: 1.0,
                    dirty: true,
                });
                admit_count += 1;
            }
            ModeOp::Retire { handle } => {
                let pos = items
                    .iter()
                    .position(|it| matches!(it.source, Source::Existing(h) if h == *handle))
                    .ok_or(KernelError::NoSuchTask(*handle))?;
                items.remove(pos);
                retired.push(*handle);
            }
            ModeOp::Reparam {
                handle,
                period,
                wcet,
            } => {
                let task = Task::new(*period, *wcet).map_err(KernelError::BadTask)?;
                let item = items
                    .iter_mut()
                    .find(|it| matches!(it.source, Source::Existing(h) if h == *handle))
                    .ok_or(KernelError::NoSuchTask(*handle))?;
                item.task = task;
                item.dirty = true;
            }
        }
    }
    if !items.is_empty() {
        let stall = kernel.stall_budget();
        let feasible = |tasks: &[Task]| -> bool {
            let specs: Option<Vec<Task>> = tasks
                .iter()
                .map(|t| t.with_inflated_wcet(stall).ok())
                .collect();
            match specs.and_then(|s| TaskSet::new(s).ok()) {
                Some(candidate) => kernel.policy.guarantees(&candidate),
                None => false,
            }
        };
        let base: Vec<Task> = items.iter().map(|it| it.task).collect();
        if !feasible(&base) {
            let utilization: f64 = base
                .iter()
                .map(|t| (t.wcet().as_ms() + stall.as_ms()) / t.period().as_ms())
                .sum();
            let not_schedulable = KernelError::NotSchedulable { utilization };
            if !allow_stretch {
                return Err(not_schedulable);
            }
            // Criticality: existing tasks by handle (oldest = most
            // critical), then this transaction's admits; the stretch search
            // wants the least critical first.
            let rank = |s: Source| -> (u8, u64) {
                match s {
                    Source::Existing(h) => (0, h.raw()),
                    Source::New(i) => (1, i as u64),
                }
            };
            let mut order: Vec<usize> = (0..items.len()).collect();
            order.sort_by(|&a, &b| rank(items[b].source).cmp(&rank(items[a].source)));
            let Some(factors) =
                elastic_stretch_assignment(&base, &order, |set| feasible(set.tasks()))
            else {
                return Err(not_schedulable);
            };
            for (item, factor) in items.iter_mut().zip(factors) {
                item.factor = factor;
                if factor > 1.0 {
                    item.dirty = true;
                }
            }
        }
    }
    Ok(Plan { items, retired })
}

/// Applies a validated plan at a safe point: retires, rewrites, admits,
/// bumps the epoch, and conservatively re-seeds the policy.
fn apply(kernel: &mut RtKernel, plan: Plan, staged: StagedChange) {
    let stall = kernel.stall_budget();
    let now = kernel.now;
    for handle in &plan.retired {
        if let Some(idx) = kernel.entries.iter().position(|e| e.handle == *handle) {
            let _ = kernel.take_entry(idx);
            kernel.tenant_servers.retain(|(h, _)| h != handle);
            kernel
                .log
                .push((now, KernelEvent::Removed { handle: *handle }));
        }
    }
    let mut bodies: Vec<Option<Box<dyn TaskBody>>> = staged
        .ops
        .into_iter()
        .filter_map(|op| match op {
            ModeOp::Admit { body, .. } => Some(body),
            _ => None,
        })
        .collect();
    let mut stretched = 0usize;
    let mut max_factor = 1.0f64;
    for item in plan.items {
        if !item.dirty {
            continue;
        }
        if item.factor > 1.0 {
            stretched += 1;
            max_factor = max_factor.max(item.factor);
        }
        // `plan` already constructed every candidate, so the fallible steps
        // below cannot fail between planning and this commit; if one ever
        // did, the entry keeps its previous (still-guaranteed) parameters
        // rather than tearing the transaction.
        let period = Time::from_ms(item.task.period().as_ms() * item.factor);
        let Ok(user_spec) = Task::new(period, item.task.wcet()) else {
            continue;
        };
        let Ok(spec) = user_spec.with_inflated_wcet(stall) else {
            continue;
        };
        match item.source {
            Source::Existing(h) => {
                let Some(e) = kernel.entries.iter_mut().find(|e| e.handle == h) else {
                    continue;
                };
                // A reparam resets the nominal period; a pure governor
                // stretch (dirty via factor only) keeps it.
                if item.factor <= 1.0 || item.task.period() != e.user_spec.period() {
                    e.nominal_period = item.task.period();
                }
                e.user_spec = user_spec;
                e.spec = spec;
            }
            Source::New(i) => {
                let handle = staged.admit_handles[i];
                let Some(body) = bodies.get_mut(i).and_then(Option::take) else {
                    continue;
                };
                kernel.insert_entry(Entry {
                    handle,
                    spec,
                    user_spec,
                    nominal_period: item.task.period(),
                    body,
                    invocation: 0,
                    state: InvState::Inactive,
                    executed: Work::ZERO,
                    actual: Work::ZERO,
                    deadline: now + period,
                    next_release: now,
                    deferred: false,
                    overrun_logged: false,
                    observed_peak: Work::ZERO,
                    pending_shed: false,
                });
                kernel.log.push((
                    now,
                    KernelEvent::Admitted {
                        handle,
                        deferred: false,
                    },
                ));
            }
        }
    }
    if stretched > 0 {
        kernel.log.push((
            now,
            KernelEvent::GovernorStretched {
                stretched,
                factor: max_factor,
            },
        ));
    }
    kernel.mode_epoch += 1;
    kernel.log.push((
        now,
        KernelEvent::ModeChangeCommitted {
            epoch: kernel.mode_epoch,
        },
    ));
    kernel.rebuild_and_reinit();
}

/// Re-validates and commits the staged transaction at a safe point. Called
/// from the kernel's event loop at quiescent instants; returns whether the
/// pending slot was consumed (commit or rejection).
pub(crate) fn commit_staged(kernel: &mut RtKernel) -> bool {
    let Some(staged) = kernel.pending_change.take() else {
        return false;
    };
    match plan(kernel, &staged.ops, staged.allow_stretch) {
        Ok(p) => {
            apply(kernel, p, staged);
            true
        }
        Err(e) => {
            // The set drifted since staging and the transaction no longer
            // validates: drop it, leaving the running set untouched.
            let utilization = match e {
                KernelError::NotSchedulable { utilization } => utilization,
                _ => 0.0,
            };
            kernel
                .log
                .push((kernel.now, KernelEvent::ModeChangeRejected { utilization }));
            true
        }
    }
}

impl RtKernel {
    /// The only primitive that may add an entry to the task table; every
    /// admission path (spawn, re-admit, mode-change commit) funnels through
    /// it. `xtask lint` forbids direct mutation elsewhere.
    pub(crate) fn insert_entry(&mut self, entry: Entry) {
        self.entries.push(entry);
    }

    /// The only primitive that may remove an entry from the task table;
    /// every eviction path (remove, shed, retire) funnels through it.
    pub(crate) fn take_entry(&mut self, idx: usize) -> Entry {
        self.entries.remove(idx)
    }

    /// Submits a mode-change transaction.
    ///
    /// Validation happens first and is free of side effects: a rejected
    /// transaction returns the error below with kernel and policy state
    /// byte-identical to before the call. A validated transaction commits
    /// immediately when no invocation is in flight (the kernel is already
    /// at a safe point), and is otherwise staged to commit at the next
    /// quiescent instant, where it is re-validated against whatever the set
    /// has become.
    ///
    /// # Errors
    ///
    /// [`KernelError::ModeChangeBusy`] if a transaction is already staged,
    /// [`KernelError::EmptyModeChange`] for a transaction with no ops,
    /// [`KernelError::BadTask`] / [`KernelError::NoSuchTask`] for invalid
    /// operations, and [`KernelError::NotSchedulable`] when the target set
    /// fails the policy's admission test (unless
    /// [`ModeChange::or_degrade`] allowed the governor to stretch it into
    /// feasibility).
    pub fn submit_mode_change(
        &mut self,
        change: ModeChange,
    ) -> Result<ModeChangeReceipt, KernelError> {
        if self.pending_change.is_some() {
            return Err(KernelError::ModeChangeBusy);
        }
        if change.ops.is_empty() {
            return Err(KernelError::EmptyModeChange);
        }
        let p = plan(self, &change.ops, change.allow_stretch)?;
        // Validation passed: from here on the transaction is in. Handles
        // for the admits are issued now so the caller can name them.
        let admits = change
            .ops
            .iter()
            .filter(|op| matches!(op, ModeOp::Admit { .. }))
            .count();
        let admit_handles: Vec<TaskHandle> = (0..admits as u64)
            .map(|i| TaskHandle::from_raw(self.next_handle + i))
            .collect();
        self.next_handle += admits as u64;
        let staged = StagedChange {
            ops: change.ops,
            allow_stretch: change.allow_stretch,
            admit_handles: admit_handles.clone(),
        };
        let quiescent = self.sched.active == 0;
        if quiescent {
            apply(self, p, staged);
            Ok(ModeChangeReceipt {
                admitted: admit_handles,
                committed: true,
                epoch: self.mode_epoch,
            })
        } else {
            self.log.push((
                self.now,
                KernelEvent::ModeChangeStaged {
                    ops: staged.ops.len(),
                },
            ));
            self.pending_change = Some(staged);
            Ok(ModeChangeReceipt {
                admitted: admit_handles,
                committed: false,
                epoch: self.mode_epoch,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use rtdvs_core::machine::Machine;
    use rtdvs_core::policy::PolicyKind;

    use super::*;
    use crate::body::{FractionBody, WcetBody};
    use crate::kernel::GovernorState;

    fn ms(v: f64) -> Time {
        Time::from_ms(v)
    }

    fn w(v: f64) -> Work {
        Work::from_ms(v)
    }

    fn kernel_with_paper_set() -> (RtKernel, Vec<TaskHandle>) {
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::StaticEdf);
        let handles = [(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]
            .iter()
            .map(|&(p, c)| {
                k.spawn(ms(p), w(c), Box::new(FractionBody(0.9)))
                    .expect("paper set admits")
            })
            .collect();
        (k, handles)
    }

    #[test]
    fn idle_kernel_commits_immediately() {
        let (mut k, handles) = kernel_with_paper_set();
        assert_eq!(k.mode_epoch(), 0);
        let receipt = k
            .submit_mode_change(ModeChange::new().retire(handles[2]).admit(
                ms(20.0),
                w(2.0),
                Box::new(WcetBody),
            ))
            .expect("feasible change");
        assert!(receipt.committed);
        assert_eq!(receipt.epoch, 1);
        assert_eq!(k.mode_epoch(), 1);
        assert_eq!(receipt.admitted.len(), 1);
        assert!(k
            .log()
            .iter()
            .any(|(_, e)| matches!(e, KernelEvent::ModeChangeCommitted { epoch: 1 })));
        assert!(k
            .log()
            .iter()
            .any(|(_, e)| matches!(e, KernelEvent::Removed { handle } if *handle == handles[2])));
    }

    #[test]
    fn busy_kernel_stages_and_commits_at_quiescence() {
        let (mut k, _) = kernel_with_paper_set();
        // Put an invocation in flight: run into the middle of the first
        // busy interval.
        k.run_for(ms(1.0));
        let receipt = k
            .submit_mode_change(ModeChange::new().admit(ms(40.0), w(1.0), Box::new(WcetBody)))
            .expect("feasible change");
        assert!(!receipt.committed, "mid-invocation is not a safe point");
        assert!(k.pending_mode_change());
        assert_eq!(k.mode_epoch(), 0);
        // A second transaction must be refused while one is staged.
        assert_eq!(
            k.submit_mode_change(ModeChange::new().admit(ms(50.0), w(1.0), Box::new(WcetBody))),
            Err(KernelError::ModeChangeBusy)
        );
        k.run_for(ms(30.0));
        assert!(!k.pending_mode_change(), "quiescence must have occurred");
        assert_eq!(k.mode_epoch(), 1);
        // The admitted task is released and scheduled after the commit.
        assert!(k
            .log()
            .iter()
            .any(|(_, e)| matches!(e, KernelEvent::Released { handle, .. } if *handle == receipt.admitted[0])));
        assert!(k.misses().count() == 0);
    }

    #[test]
    fn infeasible_change_is_rejected_without_side_effects() {
        let (mut k, _) = kernel_with_paper_set();
        let log_len = k.log().len();
        let err = k
            .submit_mode_change(
                // U would become 0.746 + 0.9 — hopeless.
                ModeChange::new().admit(ms(10.0), w(9.0), Box::new(WcetBody)),
            )
            .expect_err("must reject");
        assert!(matches!(err, KernelError::NotSchedulable { .. }));
        assert_eq!(k.log().len(), log_len, "rejection must not log");
        assert_eq!(k.mode_epoch(), 0);
        assert_eq!(k.status(), {
            let (k2, _) = kernel_with_paper_set();
            k2.status()
        });
    }

    #[test]
    fn empty_and_unknown_ops_are_errors() {
        let (mut k, handles) = kernel_with_paper_set();
        assert_eq!(
            k.submit_mode_change(ModeChange::new()),
            Err(KernelError::EmptyModeChange)
        );
        let ghost = TaskHandle::from_raw(99);
        assert_eq!(
            k.submit_mode_change(ModeChange::new().retire(ghost)),
            Err(KernelError::NoSuchTask(ghost))
        );
        // Retiring the same task twice in one transaction: the second op
        // sees it already gone.
        assert_eq!(
            k.submit_mode_change(ModeChange::new().retire(handles[0]).retire(handles[0])),
            Err(KernelError::NoSuchTask(handles[0]))
        );
    }

    #[test]
    fn reparam_changes_rate_and_bound_atomically() {
        let (mut k, handles) = kernel_with_paper_set();
        let receipt = k
            .submit_mode_change(ModeChange::new().reparam(handles[0], ms(16.0), w(2.0)))
            .expect("feasible reparam");
        assert!(receipt.committed);
        k.run_for(ms(159.0));
        assert_eq!(k.misses().count(), 0);
        // Ten releases of the slowed task (at 0, 16, …, 144), not the
        // twenty its original 8 ms period would have produced.
        let releases = k
            .log()
            .iter()
            .filter(
                |(_, e)| matches!(e, KernelEvent::Released { handle, .. } if *handle == handles[0]),
            )
            .count();
        assert_eq!(releases, 10);
    }

    #[test]
    fn or_degrade_engages_the_governor_for_staged_overload() {
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf);
        let h0 = k
            .spawn(ms(10.0), w(5.0), Box::new(FractionBody(0.5)))
            .expect("fits");
        // Staged demand 0.5 + 0.6 = 1.1 > 1: rejected without the flag...
        let overload = || ModeChange::new().admit(ms(10.0), w(6.0), Box::new(FractionBody(0.5)));
        assert!(matches!(
            k.submit_mode_change(overload()),
            Err(KernelError::NotSchedulable { .. })
        ));
        // ...but contained by stretching the new (least-critical) task
        // with it: 0.5 + 6/12.5 = 0.98.
        let receipt = k
            .submit_mode_change(overload().or_degrade())
            .expect("governor must contain the overload");
        assert!(receipt.committed);
        assert_eq!(k.governor(), GovernorState::Stretched);
        assert!(k
            .log()
            .iter()
            .any(|(_, e)| matches!(e, KernelEvent::GovernorStretched { stretched: 1, .. })));
        k.run_for(ms(100.0));
        assert_eq!(k.misses().count(), 0);
        // Retiring the heavyweight frees capacity; hysteresis restores the
        // stretched task to nominal at the next quiescent instant.
        k.submit_mode_change(ModeChange::new().retire(h0))
            .expect("retire fits");
        k.run_for(ms(50.0));
        assert_eq!(k.governor(), GovernorState::Nominal);
        assert!(k
            .log()
            .iter()
            .any(|(_, e)| matches!(e, KernelEvent::GovernorRelaxed)));
        assert_eq!(k.misses().count(), 0);
    }

    #[test]
    fn staged_change_revalidates_at_the_safe_point() {
        let (mut k, handles) = kernel_with_paper_set();
        k.run_for(ms(1.0));
        // Stage a change that is feasible now…
        let receipt = k
            .submit_mode_change(ModeChange::new().reparam(handles[2], ms(14.0), w(2.0)))
            .expect("feasible while staged");
        assert!(!receipt.committed);
        // …then make it impossible before the safe point by retiring the
        // target directly.
        k.remove(handles[2]).expect("task exists");
        k.run_for(ms(30.0));
        assert!(!k.pending_mode_change());
        assert_eq!(k.mode_epoch(), 0, "rejected re-validation must not commit");
        assert!(k
            .log()
            .iter()
            .any(|(_, e)| matches!(e, KernelEvent::ModeChangeRejected { .. })));
    }

    #[test]
    fn retiring_everything_empties_the_kernel() {
        let (mut k, handles) = kernel_with_paper_set();
        let mut change = ModeChange::new();
        for h in handles {
            change = change.retire(h);
        }
        let receipt = k.submit_mode_change(change).expect("retiring all is fine");
        assert!(receipt.committed);
        k.run_for(ms(20.0));
        assert_eq!(k.misses().count(), 0);
        assert!(k.status().lines().count() == 1, "no per-task lines remain");
    }
}
