//! Metric catalogue, sample statistics and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rtdvs_core::policy::PolicyKind;

/// Display names of the six paper policies, in `PolicyKind::paper_six`
/// order.
pub fn policy_names() -> [&'static str; 6] {
    PolicyKind::paper_six().map(PolicyKind::name)
}

/// Every end-to-end metric (reported by an untraced run), with its unit.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut m = vec![("setup_s".to_owned(), "s")];
    for p in policy_names() {
        m.push((format!("events_per_s.{p}"), "1/s"));
    }
    for (name, unit) in [
        ("energy_norm", "ratio"),
        ("requests_per_s", "1/s"),
        ("response_p50_ms", "sim_ms"),
        ("response_p999_ms", "sim_ms"),
        ("checkpoint_ms.p50", "ms"),
        ("checkpoint_ms.p90", "ms"),
        ("restore_ms.p50", "ms"),
        ("restore_ms.p90", "ms"),
        ("peak_rss_mb", "MiB"),
    ] {
        m.push((name.to_owned(), unit));
    }
    m
}

/// Every per-layer metric (reported by a traced run), with its unit. A
/// layer a workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("taskgen.generate_ms".into(), "ms"),
        ("taskgen.openloop_ns_per_request".into(), "ns"),
    ];
    let per_policy: [(&str, &'static str); 8] = [
        ("policy.calls", "count"),
        ("policy.ns_per_call", "ns"),
        ("policy.share", "ratio"),
        ("engine.events", "count"),
        ("engine.self_ns_per_event", "ns"),
        ("kernel.events", "count"),
        ("kernel.self_ns_per_event", "ns"),
        ("kernel.admit_ms", "ms"),
    ];
    for (stem, unit) in per_policy {
        for p in policy_names() {
            m.push((format!("{stem}.{p}"), unit));
        }
    }
    for (name, unit) in [
        ("kernel.log_len", "count"),
        ("kernel.energy_vs_engine.max_dev", "ratio"),
        ("body.calls", "count"),
        ("body.ns_per_call", "ns"),
        ("body.share", "ratio"),
        ("tenants.submits", "count"),
        ("tenants.submit_ns", "ns"),
        ("tenants.accepted_share", "ratio"),
        ("tenants.shed", "count"),
        ("tenants.rejected", "count"),
        ("tenants.take_completed_ns", "ns"),
        ("modechange.commits", "count"),
        ("modechange.refused", "count"),
        ("modechange.submit_ms.p50", "ms"),
        ("kernel.policy_swaps", "count"),
        ("kernel.load_policy_us.p50", "us"),
        ("snapshot.bytes.p50", "count"),
        ("snapshot.bytes.max", "count"),
        ("snapshot.encode_ns_per_byte", "ns"),
        ("snapshot.parse_ms.p50", "ms"),
        ("snapshot.rebuild_ms.p50", "ms"),
        ("snapshot.share", "ratio"),
        ("availability.calls", "count"),
        ("availability.ms.p50", "ms"),
        ("audit.ms", "ms"),
        ("audit.findings", "count"),
        ("trace.overhead", "ratio"),
    ] {
        m.push((name.to_owned(), unit));
    }
    m
}

/// The paper's y-axis: mean over the five DVS policies of energy divided
/// by plain EDF's energy.
pub fn energy_norm(energies: &[f64; 6]) -> f64 {
    energies[1..].iter().map(|e| e / energies[0]).sum::<f64>() / 5.0
}

/// Nearest-rank percentile of `xs` (`q` in `[0, 1]`); 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (lower middle for even counts, so it is always a sample).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Operations checked and failed, plus the first few failure messages.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; `problem` is its failure, if any.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Counts `n` checked operations of which `bad` failed for `why`.
    pub fn check_many(&mut self, n: u64, bad: u64, why: &str) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.note(format!("{bad} x {why}"));
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.note(problem);
    }

    fn note(&mut self, problem: String) {
        if self.notes.len() < 20 {
            self.notes.push(problem);
        }
    }

    /// The recorded failure messages.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// Scales every host-time metric of `catalogue` in `values` to nominal
/// host speed: times divide by `slowdown`, rates multiply. Simulated
/// times (`sim_ms`), counts and ratios are left alone.
pub fn to_nominal_speed(catalogue: &[(String, &str)], values: &mut Values, slowdown: f64) {
    for (name, unit) in catalogue {
        if let Some(v) = values.get_mut(name) {
            match *unit {
                "s" | "ms" | "us" | "ns" => *v /= slowdown,
                "1/s" => *v *= slowdown,
                _ => {}
            }
        }
    }
}

/// Renders the result line: every metric of `catalogue`, in order, with
/// its unit. A missing value is reported as 0, which is a failure when
/// `require_all` (end-to-end metrics) and means "layer not exercised"
/// otherwise; a non-finite value is always a failure.
pub fn result_line(
    catalogue: &[(String, &str)],
    values: &Values,
    require_all: bool,
    outcome: &mut Outcome,
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = match values.get(name).copied() {
            Some(v) if v.is_finite() => v,
            None if !require_all => 0.0,
            _ => {
                outcome.fail(format!("metric {name} was not measured"));
                0.0
            }
        };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// A JSON number with every digit of `v` (Rust's shortest round-trip
/// form, which never uses exponent notation for `f64` Display).
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
