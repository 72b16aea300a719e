//! Tier-1 guarantees for the sharded sweep runner and the BENCH
//! artifact gate.
//!
//! The parallel runner's whole claim is *determinism by construction*:
//! every (utilization, task-set) cell draws from its own split PRNG
//! stream and the reduction folds cells in a fixed order, so the thread
//! count is pure mechanism — it may change wall-clock, never results.
//! These tests pin that claim at the two layers CI relies on (the merged
//! `Sweep` and the serialized artifact), and prove the golden gate's
//! `diff` names the regressions it exists to catch. Every committed
//! golden must be exactly what the one JSON writer renders, and each
//! seeded soak must reproduce its golden byte for byte.

use std::num::NonZeroUsize;
use std::path::Path;

use rtdvs_bench::figures::{smoke_sweep_artifact, smoke_sweep_config};
use rtdvs_bench::{
    diff, run_sweep, run_sweep_threads, Artifact, ArtifactError, BenchArtifact, CampaignArtifact,
    Json, ReproArtifact, TenantsArtifact, ThroughputArtifact, SOAKS,
};

const SEED: u64 = 0x5eed;

fn threads(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("thread counts in tests are positive")
}

/// The headline guarantee: the artifact CI diffs against the golden is
/// byte-identical whether produced by one worker or four.
#[test]
fn bench_sweep_artifact_is_byte_identical_across_thread_counts() {
    let serial = smoke_sweep_artifact(SEED, threads(1));
    let sharded = smoke_sweep_artifact(SEED, threads(4));
    // `canonical_json` zeroes the two provenance fields (`threads`,
    // `wall_ms`) that legitimately differ between the runs; everything
    // else must match to the byte.
    assert_eq!(serial.canonical_json(), sharded.canonical_json());
    // The full rendering differs only in that provenance.
    assert_eq!(serial.threads, 1);
    assert_eq!(sharded.threads, 4);
}

/// The serial `run_sweep` entry point and the sharded runner at one
/// thread are the same computation, not two code paths that happen to
/// agree today.
#[test]
fn run_sweep_matches_single_threaded_runner() {
    let cfg = smoke_sweep_config(SEED);
    let plain = run_sweep(&cfg);
    let threaded = run_sweep_threads(&cfg, threads(1)).sweep;
    assert_eq!(plain.to_csv(), threaded.to_csv());
}

/// Index of `policy`'s series in the smoke sweep.
fn series_of(art: &BenchArtifact, policy: &str) -> usize {
    art.series
        .iter()
        .position(|s| s.policy == policy)
        .expect("the smoke sweep runs all six paper policies")
}

/// A 2% energy shift on one ccEDF point is flagged, and the message
/// names the JSON path. The gate compares canonical bytes, so any shift
/// that survives the six-decimal rounding is a divergence.
#[test]
fn compare_rejects_two_percent_energy_drift() {
    let golden = smoke_sweep_artifact(SEED, threads(1));
    let mut drifted = golden.clone();
    // EDF stays untouched so the artifact remains internally plausible
    // (EDF normalizes to 1.0).
    let cc = series_of(&drifted, "ccEDF");
    drifted.series[cc].points[0].energy_norm *= 1.02;

    let problems = diff(&golden.to_value(true), &drifted.to_value(true));
    let path = format!("series[{cc}].points[0].energy_norm: ");
    assert!(
        problems.len() == 1 && problems[0].starts_with(&path),
        "2% drift must be flagged at {path}, got: {problems:?}"
    );
}

/// A policy that starts missing deadlines is a divergence regardless of
/// magnitude.
#[test]
fn compare_rejects_any_new_deadline_miss() {
    let golden = smoke_sweep_artifact(SEED, threads(1));
    let mut missed = golden.clone();
    let la = series_of(&missed, "laEDF");
    missed.series[la].points[0].deadline_miss += 1;

    let problems = diff(&golden.to_value(true), &missed.to_value(true));
    assert_eq!(
        problems,
        [format!(
            "series[{la}].points[0].deadline_miss: 1 vs golden 0"
        )],
        "a new deadline miss must be flagged"
    );
}

/// An identical re-run at another thread count diffs empty: the gate
/// has no false positives on the exact configuration CI runs.
#[test]
fn compare_accepts_identical_rerun() {
    let golden = smoke_sweep_artifact(SEED, threads(1));
    let rerun = smoke_sweep_artifact(SEED, threads(2));
    assert_eq!(
        diff(&golden.to_value(true), &rerun.to_value(true)),
        Vec::<String>::new()
    );
}

/// Every registered soak, re-run at its golden's seed, reproduces the
/// committed `BENCH_*.json` canonical payload byte for byte.
#[test]
fn soak_goldens_reproduce_byte_for_byte() {
    for soak in &SOAKS {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(soak.golden);
        let text = std::fs::read_to_string(&path).expect("soak goldens are committed");
        let golden = BenchArtifact::from_json(&text).expect("soak goldens parse");
        let fresh = soak.run(&soak.smoke_grid(golden.seed));
        assert_eq!(
            fresh.canonical_json(),
            golden.canonical_json(),
            "{} diverged from {}",
            soak.name,
            soak.golden
        );
    }
}

/// Re-encodes `text` through artifact type `A`.
fn reencode<A: Artifact>(text: &str) -> Result<String, ArtifactError> {
    Ok(A::from_json(text)?.to_json())
}

/// Every schema a committed `BENCH_*.json` may carry, with its codec.
const CODECS: [(&str, fn(&str) -> Result<String, ArtifactError>); 4] = [
    (BenchArtifact::SCHEMA, reencode::<BenchArtifact>),
    (ThroughputArtifact::SCHEMA, reencode::<ThroughputArtifact>),
    (TenantsArtifact::SCHEMA, reencode::<TenantsArtifact>),
    (CampaignArtifact::SCHEMA, reencode::<CampaignArtifact>),
];

fn read_committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every committed `BENCH_*.json` is exactly what the one writer renders
/// from it: parse, rebuild the tree, render, and get the file back byte
/// for byte. (`results/repro_availability_floor.json` predates the
/// `clock` plan dimension, so re-rendering it adds a key; its replay
/// gate is `figures repro`.)
#[test]
fn committed_goldens_round_trip_byte_for_byte() {
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).expect("repository root") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = read_committed(&name);
        let schema = Json::parse(&text)
            .and_then(|doc| Ok(doc.get("schema")?.as_str()?.to_owned()))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (_, reencode) = CODECS
            .iter()
            .find(|(s, _)| *s == schema)
            .unwrap_or_else(|| panic!("{name}: no codec for schema {schema:?}"));
        let again = reencode(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(again == text, "{name} does not re-render byte for byte");
        checked.push(name.into_owned());
    }
    assert!(checked.len() >= 9, "found only {checked:?}");
}

/// Parses the committed `file` twice, applies `mutate` to one copy, and
/// requires `diff` to report exactly the one changed `path`.
fn drift_is_named<A: Artifact>(file: &str, mutate: fn(&mut A), path: &str) {
    let text = read_committed(file);
    let golden = A::from_json(&text).expect("committed artifacts parse");
    let mut fresh = A::from_json(&text).expect("committed artifacts parse");
    mutate(&mut fresh);
    let found = diff(&golden.to_value(true), &fresh.to_value(true));
    assert!(
        found.len() == 1 && found[0].starts_with(&format!("{path}: ")),
        "{file}: expected one divergence at {path}, got {found:?}"
    );
}

/// One drift per artifact type: the differ names the changed JSON path.
#[test]
fn diff_names_the_drifted_path_in_every_artifact_type() {
    drift_is_named::<BenchArtifact>(
        "BENCH_faults.json",
        |a| a.series[3].points[2].energy_norm += 0.001,
        "series[3].points[2].energy_norm",
    );
    drift_is_named::<ThroughputArtifact>(
        "BENCH_throughput.json",
        |a| a.soak[2].events += 1,
        "soak[2].events",
    );
    drift_is_named::<TenantsArtifact>(
        "BENCH_tenants.json",
        |a| a.tenants[0].served -= 1,
        "tenants[0].served",
    );
    drift_is_named::<CampaignArtifact>(
        "BENCH_campaign.json",
        |a| a.cells[4].availability -= 0.01,
        "cells[4].availability",
    );
    drift_is_named::<ReproArtifact>(
        "results/repro_availability_floor.json",
        |a| a.violation.details.push('!'),
        "violation.details",
    );
}
