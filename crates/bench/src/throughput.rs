//! Throughput soak: the O(1) engine against the frozen pre-refactor
//! baseline.
//!
//! The engine rewrite (priority-bitmap ready queue + hierarchical timing
//! wheel, `rtdvs_sim::engine`) must hold two promises at once:
//!
//! 1. **Bit-exact behavior** — on the paper's Table 2 set, every policy's
//!    trace (segments *and* events) and full report must be byte-identical
//!    to `rtdvs_sim::baseline`, the frozen copy of the retired engine.
//! 2. **Throughput** — on a task set large enough that the old engine's
//!    per-event linear scans actually cost something, the new engine must
//!    sustain at least [`ThroughputConfig::floor_ratio`] times the
//!    baseline's events per second.
//!
//! The floor is a *ratio against a reference run in the same process*,
//! never a wall-clock number: the baseline engine is the reference
//! microbenchmark, measured back to back with the new engine on the same
//! core, so CPU-frequency scaling and runner speed cancel out and the
//! gate cannot flake on slow CI hardware.
//!
//! Two workload panels are measured:
//!
//! * `table2` — the paper's 3-task example. With three tasks the linear
//!   scans the rewrite removed are a few nanoseconds per event, so both
//!   engines are dominated by shared work (policy callbacks, the RNG,
//!   energy accounting) and the ratio sits near 1. This panel pins the
//!   traces and guards against regressions
//!   ([`ThroughputConfig::table2_floor_ratio`]).
//! * `soak` — a generated [`ThroughputConfig::soak_tasks`]-task set where
//!   the baseline pays its O(n) per event. The ≥5× floor is enforced here,
//!   on the policies whose per-event cost is engine-dominated (plain EDF,
//!   both statics, ccEDF). ccRM and laEDF are measured and reported but
//!   not floored: their per-event cost is dominated by their own O(n)
//!   policy math, and `rtdvs_sim::baseline` runs the same policy objects,
//!   so a faster policy speeds up both engines alike and the
//!   engine/baseline ratio cannot show it.
//!
//! The committed golden (`BENCH_throughput.json`, schema
//! `rtdvs-throughput/v1`) pins the machine-independent payload: seed,
//! panel shapes, per-policy event counts, and the floor values. Measured
//! events/s and ratios are provenance — recorded by `--write`, zeroed in
//! the canonical form the gate diffs.

use std::fmt::Write as _;
use std::time::Instant;

use rtdvs_core::example::{table2_task_set, table3_actual_times, EXAMPLE_HORIZON_MS};
use rtdvs_core::task::TaskSet;
use rtdvs_core::{Machine, PolicyKind, Time};
use rtdvs_sim::baseline::simulate_baseline;
use rtdvs_sim::{simulate, ExecModel, SimConfig, SimReport};
use rtdvs_taskgen::{generate, TaskGenSpec};

use crate::artifact::{fmt_f64, ArtifactError, Json};

/// Schema identifier of the throughput golden.
pub const THROUGHPUT_SCHEMA: &str = "rtdvs-throughput/v1";

/// Shape of the throughput soak.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Seed for the generated soak set and the simulators.
    pub seed: u64,
    /// Horizon of the Table 2 timing runs.
    pub table2_horizon: Time,
    /// Task count of the generated soak set.
    pub soak_tasks: usize,
    /// Total utilization of the generated soak set.
    pub soak_util: f64,
    /// Horizon of the soak timing runs.
    pub soak_horizon: Time,
    /// Minimum accumulated measurement time per (engine, policy) pair:
    /// runs repeat until this much wall clock has been spent, and the
    /// best observed events/s wins (robust to scheduler noise).
    pub min_measure_ms: u64,
    /// Events/s floor on the soak panel: `engine / baseline` must be at
    /// least this for every floored policy.
    pub floor_ratio: f64,
    /// Regression guard on the Table 2 panel (near-1 ratios expected).
    pub table2_floor_ratio: f64,
}

/// The committed soak shape: 128 tasks at U = 0.8, measured against a
/// 5× floor (observed ratios are 6.7–8.4× on the floored policies).
#[must_use]
pub fn throughput_smoke_config(seed: u64) -> ThroughputConfig {
    ThroughputConfig {
        seed,
        table2_horizon: Time::from_ms(2_000.0),
        soak_tasks: 128,
        soak_util: 0.8,
        soak_horizon: Time::from_ms(8_000.0),
        min_measure_ms: 250,
        floor_ratio: 5.0,
        table2_floor_ratio: 0.5,
    }
}

/// One policy's measurement on one panel.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyThroughput {
    /// Policy display name.
    pub policy: String,
    /// Simulated events per run (identical for both engines; pinned).
    pub events: u64,
    /// Whether this policy counts toward the panel's ratio floor.
    pub floored: bool,
    /// New-engine events/s (provenance; zeroed in canonical form).
    pub engine_eps: f64,
    /// Baseline events/s (provenance; zeroed in canonical form).
    pub baseline_eps: f64,
    /// `engine_eps / baseline_eps` (provenance; zeroed in canonical form).
    pub ratio: f64,
}

/// The full soak result / golden artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputArtifact {
    /// Seed the panels were generated and simulated with.
    pub seed: u64,
    /// Soak-set task count.
    pub soak_tasks: u64,
    /// Soak-panel ratio floor.
    pub floor_ratio: f64,
    /// Table 2 panel regression floor.
    pub table2_floor_ratio: f64,
    /// Table 2 panel, all six policies.
    pub table2: Vec<PolicyThroughput>,
    /// Soak panel, all six policies.
    pub soak: Vec<PolicyThroughput>,
    /// Total wall clock (provenance; zeroed in canonical form).
    pub wall_ms: u64,
}

impl ThroughputArtifact {
    /// Serializes the artifact, measurements included.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render(false)
    }

    /// Serializes the machine-independent payload only: wall clock,
    /// events/s, and ratios are zeroed. Gate comparisons diff this form.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        self.render(true)
    }

    fn render(&self, canonical: bool) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{\n  \"schema\": \"{THROUGHPUT_SCHEMA}\",");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"soak_tasks\": {},", self.soak_tasks);
        let _ = writeln!(s, "  \"floor_ratio\": {},", fmt_f64(self.floor_ratio, 2));
        let _ = writeln!(
            s,
            "  \"table2_floor_ratio\": {},",
            fmt_f64(self.table2_floor_ratio, 2)
        );
        for (name, panel) in [("table2", &self.table2), ("soak", &self.soak)] {
            let _ = writeln!(s, "  \"{name}\": [");
            for (i, p) in panel.iter().enumerate() {
                let (eng, base, ratio) = if canonical {
                    (0.0, 0.0, 0.0)
                } else {
                    (p.engine_eps, p.baseline_eps, p.ratio)
                };
                let _ = writeln!(
                    s,
                    "    {{\"policy\": \"{}\", \"events\": {}, \"floored\": {}, \
                     \"engine_eps\": {}, \"baseline_eps\": {}, \"ratio\": {}}}{}",
                    p.policy,
                    p.events,
                    p.floored,
                    fmt_f64(eng, 0),
                    fmt_f64(base, 0),
                    fmt_f64(ratio, 2),
                    if i + 1 < panel.len() { "," } else { "" }
                );
            }
            let _ = writeln!(s, "  ],");
        }
        let _ = writeln!(
            s,
            "  \"wall_ms\": {}\n}}",
            if canonical { 0 } else { self.wall_ms }
        );
        s
    }

    /// Parses an artifact back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem: malformed JSON, wrong schema
    /// identifier, or a missing/ill-typed field.
    pub fn from_json(text: &str) -> Result<ThroughputArtifact, ArtifactError> {
        let value = Json::parse(text)?;
        let schema = value.get("schema")?.as_str()?;
        if schema != THROUGHPUT_SCHEMA {
            return Err(ArtifactError(format!(
                "schema mismatch: artifact says {schema:?}, reader speaks {THROUGHPUT_SCHEMA:?}"
            )));
        }
        let panel = |key: &str| -> Result<Vec<PolicyThroughput>, ArtifactError> {
            value
                .get(key)?
                .as_array()?
                .iter()
                .map(|p| {
                    Ok(PolicyThroughput {
                        policy: p.get("policy")?.as_str()?.to_owned(),
                        events: p.get("events")?.as_u64()?,
                        floored: match p.get("floored")? {
                            Json::Bool(b) => *b,
                            other => {
                                return Err(ArtifactError(format!(
                                    "expected bool for \"floored\", found {other:?}"
                                )))
                            }
                        },
                        engine_eps: p.get("engine_eps")?.as_f64()?,
                        baseline_eps: p.get("baseline_eps")?.as_f64()?,
                        ratio: p.get("ratio")?.as_f64()?,
                    })
                })
                .collect()
        };
        Ok(ThroughputArtifact {
            seed: value.get("seed")?.as_u64()?,
            soak_tasks: value.get("soak_tasks")?.as_u64()?,
            floor_ratio: value.get("floor_ratio")?.as_f64()?,
            table2_floor_ratio: value.get("table2_floor_ratio")?.as_f64()?,
            table2: panel("table2")?,
            soak: panel("soak")?,
            wall_ms: value.get("wall_ms")?.as_u64()?,
        })
    }

    /// Structural invariants any well-formed throughput artifact obeys.
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.floor_ratio <= 1.0 {
            problems.push(format!(
                "soak floor_ratio {} does not demand a speedup",
                self.floor_ratio
            ));
        }
        if self.table2_floor_ratio <= 0.0 {
            problems.push("table2_floor_ratio must be positive".to_owned());
        }
        if self.soak_tasks < 32 {
            problems.push(format!(
                "soak_tasks {} is too small for the baseline's O(n) scans to matter",
                self.soak_tasks
            ));
        }
        for (name, panel) in [("table2", &self.table2), ("soak", &self.soak)] {
            if panel.len() != PolicyKind::paper_six().len() {
                problems.push(format!(
                    "{name}: {} policies, expected all {}",
                    panel.len(),
                    PolicyKind::paper_six().len()
                ));
            }
            for p in panel {
                if p.events == 0 {
                    problems.push(format!("{name}/{}: zero events", p.policy));
                }
            }
            if !panel.iter().any(|p| p.floored) {
                problems.push(format!("{name}: no policy counts toward the floor"));
            }
        }
        problems
    }
}

/// Differences in the machine-independent payload between a golden and a
/// fresh artifact (event counts, shapes, floors). Empty means identical.
#[must_use]
pub fn compare_throughput(golden: &ThroughputArtifact, fresh: &ThroughputArtifact) -> Vec<String> {
    let mut problems = Vec::new();
    if golden.canonical_json() != fresh.canonical_json() {
        // Localize the divergence for the error message.
        if golden.seed != fresh.seed {
            problems.push(format!("seed {} vs golden {}", fresh.seed, golden.seed));
        }
        if golden.soak_tasks != fresh.soak_tasks {
            problems.push(format!(
                "soak_tasks {} vs golden {}",
                fresh.soak_tasks, golden.soak_tasks
            ));
        }
        for (name, g, f) in [
            ("table2", &golden.table2, &fresh.table2),
            ("soak", &golden.soak, &fresh.soak),
        ] {
            if g.len() != f.len() {
                problems.push(format!(
                    "{name}: {} policies vs golden {}",
                    f.len(),
                    g.len()
                ));
                continue;
            }
            for (gp, fp) in g.iter().zip(f) {
                if gp.policy != fp.policy || gp.events != fp.events || gp.floored != fp.floored {
                    problems.push(format!(
                        "{name}/{}: {} events (floored {}) vs golden {}/{} events (floored {})",
                        fp.policy, fp.events, fp.floored, gp.policy, gp.events, gp.floored
                    ));
                }
            }
        }
        if problems.is_empty() {
            problems.push("canonical payloads differ".to_owned());
        }
    }
    problems
}

/// The paper's Table 2 set with the Table 3 execution trace, the trace
/// pinning workload.
fn table2_cfg() -> (TaskSet, SimConfig) {
    let tasks = table2_task_set();
    let cfg = SimConfig::new(Time::from_ms(EXAMPLE_HORIZON_MS))
        .with_exec(ExecModel::Trace(table3_actual_times()))
        .with_trace();
    (tasks, cfg)
}

/// Byte-identical-trace pinning on the Table 2 set: every policy's trace
/// segments, trace events, and full report must match the frozen
/// pre-refactor engine exactly.
///
/// # Errors
///
/// Returns the first policy whose engines disagree, with the field that
/// diverged.
pub fn pin_table2_traces() -> Result<(), String> {
    let machine = Machine::machine0();
    let (tasks, cfg) = table2_cfg();
    for kind in PolicyKind::paper_six() {
        let new = simulate(&tasks, &machine, kind, &cfg);
        let old = simulate_baseline(&tasks, &machine, kind, &cfg);
        let name = kind.name();
        if new.events != old.events {
            return Err(format!(
                "{name}: {} events vs baseline {}",
                new.events, old.events
            ));
        }
        if new.energy().to_bits() != old.energy().to_bits() {
            return Err(format!(
                "{name}: energy {} vs baseline {} (not bit-identical)",
                new.energy(),
                old.energy()
            ));
        }
        match (&new.trace, &old.trace) {
            (Some(a), Some(b)) => {
                if a.segments() != b.segments() {
                    return Err(format!("{name}: trace segments diverge from baseline"));
                }
                if a.events() != b.events() {
                    return Err(format!("{name}: trace events diverge from baseline"));
                }
            }
            _ => return Err(format!("{name}: one engine lost its trace")),
        }
        if format!("{new:?}") != format!("{old:?}") {
            return Err(format!("{name}: reports are not byte-identical"));
        }
    }
    Ok(())
}

/// Times one simulator repeatedly until `min_ms` of wall clock has
/// accumulated and returns `(events_per_run, best events/s)`. The
/// per-run timing is written into [`SimReport::sched_ns`] so the
/// events/s figure flows through [`SimReport::events_per_sec`].
fn measure<F: FnMut() -> SimReport>(mut run: F, min_ms: u64) -> (u64, f64) {
    let mut events = 0u64;
    let mut best = 0.0f64;
    let mut spent_ns = 0u128;
    let budget_ns = u128::from(min_ms) * 1_000_000;
    while spent_ns < budget_ns {
        let t0 = Instant::now();
        let mut report = run();
        let ns = t0.elapsed().as_nanos();
        spent_ns += ns;
        report.sched_ns = u64::try_from(ns).unwrap_or(u64::MAX).max(1);
        events = report.events;
        if let Some(eps) = report.events_per_sec() {
            best = best.max(eps);
        }
    }
    (events, best)
}

/// Policies whose soak cost is engine-dominated (the floor applies).
/// ccRM and laEDF spend most of every event inside their own O(n)
/// schedulability math, which both engines share.
fn is_floored(kind: PolicyKind) -> bool {
    !matches!(kind, PolicyKind::CcRm(_) | PolicyKind::LaEdf)
}

/// Measures one panel: both engines, every paper policy.
fn measure_panel(
    tasks: &TaskSet,
    machine: &Machine,
    cfg: &SimConfig,
    min_ms: u64,
    table2: bool,
) -> Vec<PolicyThroughput> {
    PolicyKind::paper_six()
        .into_iter()
        .map(|kind| {
            let (events, engine_eps) = measure(|| simulate(tasks, machine, kind, cfg), min_ms);
            let (base_events, baseline_eps) =
                measure(|| simulate_baseline(tasks, machine, kind, cfg), min_ms);
            debug_assert_eq!(events, base_events, "{}: engines disagree", kind.name());
            let ratio = if baseline_eps > 0.0 {
                engine_eps / baseline_eps
            } else {
                0.0
            };
            PolicyThroughput {
                policy: kind.name().to_owned(),
                events,
                // On the 3-task panel every policy is shared-cost
                // dominated; the regression floor applies to all six.
                floored: table2 || is_floored(kind),
                engine_eps,
                baseline_eps,
                ratio,
            }
        })
        .collect()
}

/// Runs the full soak: trace pinning is the caller's job
/// ([`pin_table2_traces`]); this measures events/s on both panels.
///
/// # Panics
///
/// Panics if the soak task set cannot be generated (invalid utilization
/// in the config).
#[must_use]
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputArtifact {
    let machine = Machine::machine0();
    let start = Instant::now();

    let table2_set = table2_task_set();
    let table2_sim = SimConfig::new(cfg.table2_horizon)
        .with_exec(ExecModel::uniform())
        .with_seed(cfg.seed);
    let table2 = measure_panel(&table2_set, &machine, &table2_sim, cfg.min_measure_ms, true);

    let spec = TaskGenSpec::new(cfg.soak_tasks, cfg.soak_util)
        .expect("soak utilization must be in (0, 1]");
    let soak_set = generate(&spec, cfg.seed).expect("soak task-set generation is total");
    let soak_sim = SimConfig::new(cfg.soak_horizon)
        .with_exec(ExecModel::uniform())
        .with_seed(cfg.seed);
    let soak = measure_panel(&soak_set, &machine, &soak_sim, cfg.min_measure_ms, false);

    ThroughputArtifact {
        seed: cfg.seed,
        soak_tasks: cfg.soak_tasks as u64,
        floor_ratio: cfg.floor_ratio,
        table2_floor_ratio: cfg.table2_floor_ratio,
        table2,
        soak,
        wall_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
    }
}

/// Applies the floors to a measured artifact: every floored soak policy
/// must reach `floor_ratio`, every floored Table 2 policy
/// `table2_floor_ratio`. Returns the violations (empty = pass).
#[must_use]
pub fn floor_violations(fresh: &ThroughputArtifact) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, panel, floor) in [
        ("table2", &fresh.table2, fresh.table2_floor_ratio),
        ("soak", &fresh.soak, fresh.floor_ratio),
    ] {
        for p in panel.iter().filter(|p| p.floored) {
            if p.ratio < floor {
                problems.push(format!(
                    "{name}/{}: {:.2}x baseline is below the {floor}x floor \
                     ({:.0} vs {:.0} events/s)",
                    p.policy, p.ratio, p.engine_eps, p.baseline_eps
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ThroughputConfig {
        ThroughputConfig {
            seed: 7,
            table2_horizon: Time::from_ms(100.0),
            soak_tasks: 48,
            soak_util: 0.8,
            soak_horizon: Time::from_ms(200.0),
            min_measure_ms: 1,
            floor_ratio: 5.0,
            table2_floor_ratio: 0.5,
        }
    }

    #[test]
    fn table2_traces_pin_against_the_baseline() {
        pin_table2_traces().expect("the engines must agree byte for byte");
    }

    #[test]
    fn artifact_roundtrips_through_json() {
        let art = run_throughput(&tiny_config());
        let parsed = ThroughputArtifact::from_json(&art.to_json()).expect("roundtrip");
        // Measurements are rounded on the way out, so compare the
        // serialized forms (idempotent) and the pinned payload.
        assert_eq!(parsed.to_json(), art.to_json());
        assert_eq!(parsed.canonical_json(), art.canonical_json());
        assert!(art.validate().is_empty(), "{:?}", art.validate());
        assert!(compare_throughput(&art, &parsed).is_empty());
    }

    #[test]
    fn canonical_json_hides_measurements() {
        let art = run_throughput(&tiny_config());
        let canon = art.canonical_json();
        assert!(canon.contains("\"engine_eps\": 0,"));
        assert!(canon.contains("\"wall_ms\": 0"));
        // A second measurement of the same shape is canonically identical
        // even though its timings differ.
        let again = run_throughput(&tiny_config());
        assert_eq!(canon, again.canonical_json());
    }

    #[test]
    fn event_counts_are_deterministic_and_engine_independent() {
        let art = run_throughput(&tiny_config());
        for panel in [&art.table2, &art.soak] {
            for p in panel {
                assert!(p.events > 0, "{}: no events simulated", p.policy);
            }
        }
    }

    #[test]
    fn compare_flags_event_count_drift() {
        let art = run_throughput(&tiny_config());
        let mut other = art.clone();
        if let Some(p) = other.soak.first_mut() {
            p.events += 1;
        }
        let problems = compare_throughput(&art, &other);
        assert!(!problems.is_empty(), "event drift must be reported");
    }

    #[test]
    fn floor_violations_fire_on_slow_ratios() {
        let mut art = run_throughput(&tiny_config());
        for p in &mut art.soak {
            p.ratio = 0.1;
        }
        assert!(!floor_violations(&art).is_empty());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let art = run_throughput(&tiny_config());
        let bad = art.to_json().replace(THROUGHPUT_SCHEMA, "rtdvs-bench/v1");
        assert!(ThroughputArtifact::from_json(&bad).is_err());
    }
}
