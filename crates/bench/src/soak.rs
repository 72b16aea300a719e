//! Seeded robustness soaks: one grid driver, one fold, four registered
//! adversities.
//!
//! Where the utilization sweeps ask "how much energy does each policy
//! save?", a soak asks "who breaks first, and whose fault is it?". Every
//! soak runs each policy twice per cell — once under a seeded adversity
//! at the grid's rate, once clean at the same seeds — and reports the
//! stressed energy normalized against the clean energy, the same
//! per-policy normalization the paper uses for its figures (§3.2). The
//! registry ([`SOAKS`]) names the adversities:
//!
//! * **`chaos`** (`BENCH_faults.json`, label `"chaos-soak"`) — the
//!   simulator's fault layer (`chaos_plan`) injects WCET overruns,
//!   stuck and jittered transitions, and release jitter into Table 2 on
//!   machine 0; the audit classifier splits misses into policy bugs and
//!   fault-induced ones.
//! * **`modes`** (`BENCH_modes.json`, label `"mode-churn"`) — the kernel
//!   toggles Table 2's first task between its nominal and a relaxed
//!   period through transactional mode changes; nothing excuses a miss,
//!   and the lifecycle auditor must find the log replay-clean.
//! * **`regulator`** (`BENCH_regulator.json`, label `"regulator-soak"`)
//!   — an [`UnreliableRegulator`] (`regulator_plan`) plus a brownout
//!   cap schedule attack the relaxed Table 2 set on the K6-2+; misses
//!   after a fallback, cap change, ladder step, or restore are excused.
//! * **`clock`** (`BENCH_clock.json`, label `"clock-soak"`) — a seeded
//!   [`ClockPlan`] (`clock_plan`) drifts, loses, coalesces, and jumps
//!   the tick source under the same set; misses after a clock event are
//!   excused.
//!
//! Each soak packs into the `rtdvs-bench/v1` artifact with the axes
//! reinterpreted: `u` is the adversity rate, `energy_norm` the stressed
//! energy over the clean energy, `deadline_miss` the **blamed** count —
//! stressed misses nothing excuses, every clean-run miss, and every
//! kernel-log audit finding other than a miss (an unsafe fallback, a cap
//! violation, a backward timestamp is a bug wherever it appears) — and
//! `fault_miss` the stressed misses an adversity excuses. A healthy
//! system shows zero blamed misses everywhere.
//!
//! At rate 0 every plan builder installs nothing and every schedule is
//! empty, so the stressed run IS the clean run and the rate-0 column
//! normalizes to exactly 1.0, bitwise — the committed proof that an
//! inactive adversity costs nothing.

use std::time::Instant;

use rtdvs_audit::{audit_kernel_log, fault_induced_misses, policy_bug_misses, Rule};
use rtdvs_core::example::table2_task_set;
use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::time::{Time, Work};
use rtdvs_kernel::{KernelError, KernelEvent, ModeChange, RtKernel, TaskHandle, UniformBody};
use rtdvs_platform::{PowerNowCpu, RegulatorPlan, UnreliableRegulator};
use rtdvs_sim::{simulate, ClockPlan, ExecModel, FaultPlan, SimConfig, SimReport};
use rtdvs_taskgen::SplitMix64;

use crate::artifact::{BenchArtifact, BenchGrid, BenchPoint, BenchSeries};
use crate::campaign::{
    blame, brownout_schedule, churn_schedule, is_clock_event, is_hardware_event, Window,
};
use crate::tenants::RELAXED_TABLE2;

/// The paper's Table 2, `(period_ms, wcet_ms)`: the set
/// [`table2_task_set`] builds. All six paper policies admit it on
/// machine 0, so a clean run misses nothing.
const TABLE2: [(f64, f64); 3] = [(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)];

/// The relaxed period each churn toggles Table 2's first task to (and
/// back). Both 8 ms and 12 ms keep the set admissible under every paper
/// policy (worst-case utilization 0.746 and 0.621 against the RM bound
/// 0.780), so a miss in the modes grid is a transaction bug.
const RELAXED_PERIOD_MS: f64 = 12.0;

/// The clock plan's drift cap, parts per million: an order of magnitude
/// past a bad crystal, enough to make the estimator's margins matter.
const DRIFT_MAX_PPM: f64 = 400.0;

/// Largest coalesced tick burst the clock plan may defer.
const COALESCE_BURST: u32 = 4;

/// Largest backward RTC jump the clock plan may attempt, milliseconds.
const JUMP_MAX_MS: f64 = 2.0;

/// The shape of one soak run.
#[derive(Debug, Clone)]
pub struct SoakGrid {
    /// Policies to soak, in column order.
    pub policies: Vec<PolicyKind>,
    /// Adversity rates (x axis), each in `[0, 1]`. `0.0` means no
    /// adversity at all.
    pub rates: Vec<f64>,
    /// Independent seed sets averaged per rate.
    pub sets_per_rate: usize,
    /// Simulated horizon per run.
    pub duration: Time,
    /// Base RNG seed every per-cell stream derives from.
    pub seed: u64,
}

/// One run's tallies.
struct Outcome {
    energy: f64,
    /// Misses nothing excuses, plus non-miss audit findings.
    blamed: u64,
    /// Misses an injected adversity excuses.
    excused: u64,
}

/// Runs one policy at one rate for `duration` from the cell's stream
/// and returns the `(stressed, clean)` outcomes. The stream is a copy, so
/// every policy of a cell draws the same seeds and schedules.
type CellFn = fn(PolicyKind, f64, Time, SplitMix64) -> (Outcome, Outcome);

/// One registered soak.
#[derive(Debug)]
pub struct Soak {
    /// Subcommand name (`figures <name>`).
    pub name: &'static str,
    /// Committed golden at the repository root.
    pub golden: &'static str,
    /// Grid label stamped into the artifact.
    pub label: &'static str,
    /// Adversity rates of the smoke grid behind the golden.
    pub smoke_rates: &'static [f64],
    /// Size of the soaked task set.
    pub n_tasks: usize,
    cell: CellFn,
}

/// Every soak, in gate order.
pub static SOAKS: [Soak; 4] = [
    Soak {
        name: "chaos",
        golden: "BENCH_faults.json",
        label: "chaos-soak",
        smoke_rates: &[0.0, 0.05, 0.1, 0.2],
        n_tasks: TABLE2.len(),
        cell: chaos_cell,
    },
    Soak {
        name: "modes",
        golden: "BENCH_modes.json",
        label: "mode-churn",
        smoke_rates: &[0.0, 0.2, 0.5, 1.0],
        n_tasks: TABLE2.len(),
        cell: modes_cell,
    },
    Soak {
        name: "regulator",
        golden: "BENCH_regulator.json",
        label: "regulator-soak",
        smoke_rates: &[0.0, 0.05, 0.2, 0.5],
        n_tasks: RELAXED_TABLE2.len(),
        cell: regulator_cell,
    },
    Soak {
        name: "clock",
        golden: "BENCH_clock.json",
        label: "clock-soak",
        smoke_rates: &[0.0, 0.05, 0.2, 0.5],
        n_tasks: RELAXED_TABLE2.len(),
        cell: clock_cell,
    },
];

/// The registered soak called `name`.
#[must_use]
pub fn find_soak(name: &str) -> Option<&'static Soak> {
    SOAKS.iter().find(|s| s.name == name)
}

/// Whether `label` is a soak's grid label (those grids normalize each
/// policy against its own clean run, not against EDF).
#[must_use]
pub(crate) fn is_soak_label(label: &str) -> bool {
    SOAKS.iter().any(|s| s.label == label)
}

impl Soak {
    /// The grid behind the soak's golden: the smoke rates across all six
    /// paper policies, three seed sets per rate, 600 ms per run. Small
    /// enough to re-run on every push.
    #[must_use]
    pub fn smoke_grid(&self, seed: u64) -> SoakGrid {
        SoakGrid {
            policies: PolicyKind::paper_six().to_vec(),
            rates: self.smoke_rates.to_vec(),
            sets_per_rate: 3,
            duration: Time::from_ms(600.0),
            seed,
        }
    }

    /// Runs the soak and packs it into an artifact labelled
    /// [`Soak::label`].
    ///
    /// Deterministic in `grid` alone: the grid is walked rate → set →
    /// policy, each `(rate, set)` cell draws from
    /// `SplitMix64::seed_from_u64(grid.seed).split(cell_id)` — the same
    /// per-cell stream discipline as the sharded sweep runner — and
    /// every tally is summed in that order. Only `wall_ms` varies
    /// between runs.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty, a rate is outside `[0, 1]`, or the
    /// soaked set is rejected by a policy (it is admissible by
    /// construction, so a rejection is an admission bug).
    #[must_use]
    pub fn run(&self, grid: &SoakGrid) -> BenchArtifact {
        assert!(
            !grid.rates.is_empty() && grid.sets_per_rate > 0 && !grid.policies.is_empty(),
            "{} grid must be non-empty",
            self.name
        );
        assert!(
            grid.rates.iter().all(|r| (0.0..=1.0).contains(r)),
            "adversity rates are probabilities"
        );
        let start = Instant::now();
        let n_pol = grid.policies.len();
        let mut cells = vec![Tally::default(); grid.rates.len() * n_pol];
        for (ri, &rate) in grid.rates.iter().enumerate() {
            for s in 0..grid.sets_per_rate {
                let cell_id = (ri * grid.sets_per_rate + s) as u64;
                let stream = SplitMix64::seed_from_u64(grid.seed).split(cell_id);
                for (pi, &kind) in grid.policies.iter().enumerate() {
                    let (stressed, clean) = (self.cell)(kind, rate, grid.duration, stream);
                    let cell = &mut cells[ri * n_pol + pi];
                    cell.energy += stressed.energy;
                    cell.baseline += clean.energy;
                    cell.blamed += stressed.blamed + clean.blamed + clean.excused;
                    cell.excused += stressed.excused;
                }
            }
        }

        let series = grid
            .policies
            .iter()
            .enumerate()
            .map(|(pi, kind)| BenchSeries {
                policy: kind.name().to_owned(),
                n_tasks: self.n_tasks,
                points: grid
                    .rates
                    .iter()
                    .enumerate()
                    .map(|(ri, &rate)| {
                        let cell = &cells[ri * n_pol + pi];
                        BenchPoint {
                            u: rate,
                            energy_norm: cell.energy / cell.baseline,
                            deadline_miss: cell.blamed,
                            fault_miss: cell.excused,
                        }
                    })
                    .collect(),
            })
            .collect();

        BenchArtifact {
            seed: grid.seed,
            threads: 1,
            grid: BenchGrid {
                label: self.label.to_owned(),
                n_tasks: vec![self.n_tasks],
                utilizations: grid.rates.clone(),
                sets_per_point: grid.sets_per_rate,
                duration_ms: grid.duration.as_ms(),
                policies: grid.policies.iter().map(|k| k.name().to_owned()).collect(),
            },
            series,
            wall_ms: start.elapsed().as_millis() as u64,
        }
    }
}

/// One policy's tallies at one rate, summed over the rate's seed sets.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    energy: f64,
    baseline: f64,
    blamed: u64,
    excused: u64,
}

/// The fault plan the chaos soak injects at `rate`. Overruns are the
/// headline fault (rate as given, 1.5× the declared worst case); stuck
/// transitions, transition jitter, and delayed releases ride along at
/// half the rate. At rate 0 the plan is exactly [`FaultPlan::none`].
#[must_use]
fn chaos_plan(fault_seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::new(fault_seed)
        .with_overruns(rate, 1.5)
        .with_stuck_transitions(rate * 0.5)
        .with_transition_jitter(rate * 0.5, Time::from_ms(0.1))
        .with_release_jitter(rate * 0.5, 0.25)
}

/// The regulator-failure plan at `rate`. Ignored transitions are the
/// headline failure (rate as given); handshake timeouts and late settles
/// ride along at half the rate. At rate 0 the plan is exactly
/// [`RegulatorPlan::ideal`] and the regulator performs zero draws.
#[must_use]
pub(crate) fn regulator_plan(seed: u64, rate: f64) -> RegulatorPlan {
    let stop = PowerNowCpu::k6_2_plus_550().stop_interval();
    RegulatorPlan::new(seed)
        .with_failures(rate)
        .with_timeouts(rate * 0.5, stop)
        .with_settle_jitter(rate * 0.5, stop)
}

/// The clock-fault plan at `rate`. Drift retargeting is the headline
/// fault (rate as given); tick loss and coalescing ride along at half
/// the rate, backward jumps at a quarter. At rate 0 the plan is exactly
/// [`ClockPlan::none`] and the kernel attaches no clock driver.
#[must_use]
pub(crate) fn clock_plan(seed: u64, rate: f64) -> ClockPlan {
    ClockPlan::new(seed)
        .with_drift(rate, DRIFT_MAX_PPM)
        .with_tick_loss(rate * 0.5)
        .with_coalescing(rate * 0.5, COALESCE_BURST)
        .with_backward_jumps(rate * 0.25, JUMP_MAX_MS)
}

/// Chaos: Table 2 in the simulator on machine 0 with uniform actual
/// computation, with and without [`chaos_plan`].
fn chaos_cell(
    kind: PolicyKind,
    rate: f64,
    duration: Time,
    mut stream: SplitMix64,
) -> (Outcome, Outcome) {
    let sim_seed = stream.next_u64();
    let fault_seed = stream.next_u64();
    let (tasks, machine) = (table2_task_set(), Machine::machine0());
    let clean_cfg = SimConfig::new(duration)
        .with_exec(ExecModel::uniform())
        .with_seed(sim_seed);
    let chaos_cfg = clean_cfg.clone().with_faults(chaos_plan(fault_seed, rate));
    let outcome = |report: SimReport| Outcome {
        energy: report.energy(),
        blamed: policy_bug_misses(&report),
        excused: fault_induced_misses(&report),
    };
    (
        outcome(simulate(&tasks, &machine, kind, &chaos_cfg)),
        outcome(simulate(&tasks, &machine, kind, &clean_cfg)),
    )
}

/// Modes: Table 2 in a machine-0 kernel, with and without the churn
/// schedule.
fn modes_cell(
    kind: PolicyKind,
    rate: f64,
    duration: Time,
    mut stream: SplitMix64,
) -> (Outcome, Outcome) {
    let body_seed = stream.next_u64();
    let churns = churn_schedule(&mut stream, rate, &Window::full(), duration.as_ms());
    let run = |schedule: &[Time]| {
        kernel_outcome(&churn_kernel(kind, duration, body_seed, schedule), never)
    };
    (run(&churns), run(&[]))
}

/// Mode churn excuses nothing: a miss under churn is a safe-point bug.
fn never(_: &KernelEvent) -> bool {
    false
}

/// Runs Table 2 on machine 0 to `duration`, submitting a transaction at
/// each scheduled instant that toggles the first task between its
/// nominal and its relaxed period.
///
/// # Panics
///
/// Panics if a churn transaction is rejected outright: the toggled set
/// is admissible by construction, so a rejection is a transaction bug.
fn churn_kernel(kind: PolicyKind, duration: Time, body_seed: u64, schedule: &[Time]) -> RtKernel {
    let mut kernel = RtKernel::new(Machine::machine0(), kind);
    let first = spawn_set(&mut kernel, &TABLE2, body_seed);
    let (nominal, wcet) = (Time::from_ms(TABLE2[0].0), Work::from_ms(TABLE2[0].1));
    let mut relaxed = false;
    let toggles = schedule.iter().map(|&at| (at, ()));
    replay(&mut kernel, toggles, duration, |kernel, ()| {
        let target = if relaxed {
            nominal
        } else {
            Time::from_ms(RELAXED_PERIOD_MS)
        };
        match kernel.submit_mode_change(ModeChange::new().reparam(first, target, wcet)) {
            Ok(_) => relaxed = !relaxed,
            // A transaction staged at the previous slot and not yet at its
            // safe point keeps the builder busy; skip this slot's toggle.
            Err(KernelError::ModeChangeBusy) => {}
            Err(e) => panic!("churn transaction rejected: {e}"),
        }
    });
    kernel
}

/// Regulator: the relaxed set on the K6-2+ with an unreliable regulator
/// and the brownout schedule, against no regulator and no brownouts.
fn regulator_cell(
    kind: PolicyKind,
    rate: f64,
    duration: Time,
    mut stream: SplitMix64,
) -> (Outcome, Outcome) {
    let body_seed = stream.next_u64();
    let reg_seed = stream.next_u64();
    let brownouts = brownout_schedule(&mut stream, rate, &Window::full(), duration.as_ms());
    let mut hard = k6_kernel(kind, body_seed, |k| {
        let plan = regulator_plan(reg_seed, rate);
        k.attach_regulator(Box::new(UnreliableRegulator::new(
            PowerNowCpu::k6_2_plus_550(),
            plan,
        )));
    });
    replay(&mut hard, brownouts, duration, RtKernel::set_brownout_cap);
    let mut clean = k6_kernel(kind, body_seed, |_| {});
    run_to(&mut clean, duration);
    (
        kernel_outcome(&hard, is_hardware_event),
        kernel_outcome(&clean, is_hardware_event),
    )
}

/// Clock: the relaxed set on the K6-2+ with and without [`clock_plan`].
fn clock_cell(
    kind: PolicyKind,
    rate: f64,
    duration: Time,
    mut stream: SplitMix64,
) -> (Outcome, Outcome) {
    let body_seed = stream.next_u64();
    let clock_seed = stream.next_u64();
    let mut hard = k6_kernel(kind, body_seed, |k| {
        k.set_clock_plan(clock_plan(clock_seed, rate))
    });
    run_to(&mut hard, duration);
    let mut clean = k6_kernel(kind, body_seed, |_| {});
    run_to(&mut clean, duration);
    (
        kernel_outcome(&hard, is_clock_event),
        kernel_outcome(&clean, is_clock_event),
    )
}

/// The relaxed Table 2 set on the K6-2+ prototype machine with accounted
/// switch overheads; `attach` installs the adversity before the first
/// spawn.
fn k6_kernel(kind: PolicyKind, body_seed: u64, attach: impl FnOnce(&mut RtKernel)) -> RtKernel {
    let cpu = PowerNowCpu::k6_2_plus_550();
    let machine = cpu.machine().expect("prototype machine is valid");
    let mut kernel =
        RtKernel::new(machine, kind).with_accounted_switch_overhead(cpu.switch_overhead());
    attach(&mut kernel);
    spawn_set(&mut kernel, &RELAXED_TABLE2, body_seed);
    kernel
}

/// Spawns `set` with uniform bodies seeded from `body_seed` and returns
/// the first task's handle.
fn spawn_set(kernel: &mut RtKernel, set: &[(f64, f64)], body_seed: u64) -> TaskHandle {
    let mut bodies = SplitMix64::seed_from_u64(body_seed);
    let handles: Vec<TaskHandle> = set
        .iter()
        .map(|&(period, wcet)| {
            kernel
                .spawn(
                    Time::from_ms(period),
                    Work::from_ms(wcet),
                    Box::new(UniformBody::new(bodies.next_u64())),
                )
                .expect("the soaked set is admitted by every paper policy")
        })
        .collect();
    handles[0]
}

/// Runs `kernel` to `duration`, pausing at each scheduled instant to
/// apply its action.
fn replay<T>(
    kernel: &mut RtKernel,
    schedule: impl IntoIterator<Item = (Time, T)>,
    duration: Time,
    mut act: impl FnMut(&mut RtKernel, T),
) {
    for (at, action) in schedule {
        run_to(kernel, at);
        act(kernel, action);
    }
    run_to(kernel, duration);
}

fn run_to(kernel: &mut RtKernel, at: Time) {
    if kernel.now().as_ms() < at.as_ms() {
        kernel.run_for(at - kernel.now());
    }
}

/// A finished kernel's outcome: its misses split by [`blame`] under
/// `excuses`, with every non-miss audit finding counted as blamed.
fn kernel_outcome(kernel: &RtKernel, excuses: fn(&KernelEvent) -> bool) -> Outcome {
    let (blamed, excused) = blame(kernel.log(), excuses);
    let findings = audit_kernel_log(kernel.log())
        .iter()
        .filter(|v| v.rule != Rule::DeadlineMiss)
        .count() as u64;
    Outcome {
        energy: kernel.energy(),
        blamed: blamed + findings,
        excused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Artifact;

    /// The seed each soak's small grid runs at.
    const TINY_SEEDS: [(&str, u64); 4] = [
        ("chaos", 0x50AC),
        ("modes", 0x30DE),
        ("regulator", 0x4E60),
        ("clock", 0xC10C),
    ];

    /// Whether `soak`'s adversity visibly acted, judged on its small
    /// grid (rate 0 and the top smoke rate) and its smoke grid.
    fn adversity_bites(soak: &Soak, tiny: &BenchArtifact, smoke: &BenchArtifact) -> bool {
        let top = || {
            tiny.series
                .iter()
                .map(|s| s.points.last().expect("non-empty"))
        };
        let worst = top().map(|p| p.energy_norm).fold(f64::MIN, f64::max);
        match soak.name {
            // Containment escalates to the top frequency, which only adds
            // energy, and the faults really do cause misses.
            "chaos" => {
                let excused: u64 = smoke
                    .series
                    .iter()
                    .flat_map(|s| &s.points)
                    .map(|p| p.fault_miss)
                    .sum();
                worst > 1.0 && excused > 0
            }
            // Retry stalls, forced writes, and capped slots only add energy.
            "regulator" => worst > 1.0,
            // Drift margins, gating, or an excused miss leave a footprint.
            "clock" => {
                top().any(|p| p.energy_norm.to_bits() != 1.0_f64.to_bits() || p.fault_miss > 0)
            }
            // Transactions really commit: at rate 1 the epoch advances at
            // least every other slot, and the log replays clean.
            "modes" => {
                let mut stream = SplitMix64::seed_from_u64(7).split(0);
                let body_seed = stream.next_u64();
                let schedule = churn_schedule(&mut stream, 1.0, &Window::full(), 300.0);
                let kernel = churn_kernel(
                    PolicyKind::CcEdf,
                    Time::from_ms(350.0),
                    body_seed,
                    &schedule,
                );
                schedule.len() >= 10
                    && kernel.mode_epoch() >= schedule.len() as u64 / 2
                    && audit_kernel_log(kernel.log()).is_empty()
            }
            other => panic!("no adversity check for soak {other}"),
        }
    }

    #[test]
    fn every_soak_is_deterministic_free_at_rate_zero_blameless_and_biting() {
        for (soak, (name, seed)) in SOAKS.iter().zip(TINY_SEEDS) {
            assert_eq!(soak.name, name);
            let top = *soak.smoke_rates.last().expect("non-empty smoke grid");
            let tiny = SoakGrid {
                rates: vec![0.0, top],
                sets_per_rate: 2,
                duration: Time::from_ms(300.0),
                ..soak.smoke_grid(seed)
            };
            let a = soak.run(&tiny);
            assert_eq!(
                a.canonical_json(),
                soak.run(&tiny).canonical_json(),
                "{name}"
            );

            // At rate 0 the stressed run IS the clean run: normalization
            // exactly 1 and nothing misses.
            for series in &a.series {
                let p0 = &series.points[0];
                assert_eq!(p0.u.to_bits(), 0.0_f64.to_bits());
                assert_eq!(
                    p0.energy_norm.to_bits(),
                    1.0_f64.to_bits(),
                    "{name} {}",
                    series.policy
                );
                assert_eq!(
                    (p0.deadline_miss, p0.fault_miss),
                    (0, 0),
                    "{name} {}",
                    series.policy
                );
            }

            // Across the whole smoke grid nothing is ever blamed and the
            // artifact is structurally sound.
            let smoke = soak.run(&soak.smoke_grid(0x5eed));
            let problems = smoke.validate();
            assert!(problems.is_empty(), "{name}: {problems:?}");
            for series in &smoke.series {
                for p in &series.points {
                    assert_eq!(
                        p.deadline_miss, 0,
                        "{name} blamed {} at rate {}",
                        series.policy, p.u
                    );
                }
            }

            assert!(
                adversity_bites(soak, &a, &smoke),
                "{name}: the adversity never bit"
            );
        }
    }
}
