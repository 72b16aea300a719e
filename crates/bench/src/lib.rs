//! # rtdvs-bench
//!
//! Experiment harness regenerating every table and figure of the RT-DVS
//! paper's evaluation (§3.2 and §4.3). The `experiments` binary drives the
//! functions here; integration tests reuse them with smaller sample counts
//! to assert the paper's qualitative results (orderings, crossovers,
//! bounds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod chart;
pub mod figures;
pub mod microbench;
pub mod runner;
pub mod soak;
pub mod stats;
pub mod sweep;
pub mod taskfile;
pub mod tenants;
pub mod throughput;

pub use artifact::{
    diff, Artifact, ArtifactError, BenchArtifact, BenchGrid, BenchPoint, BenchSeries, Json,
};
pub use campaign::{
    campaign_smoke_config, cell_findings, known_violating_campaign, materialize, policy_by_name,
    replay_repro, run_campaign, shrink_plan, CampaignArtifact, CampaignCell, CampaignConfig,
    CampaignSchedules, ChaosPlan, ChurnDim, ClockDim, FaultDim, FloodDim, KillDim, RegulatorDim,
    ReproArtifact, ReproViolation, Window,
};
pub use chart::render_normalized_chart;
pub use figures::*;
pub use runner::{run_sweep_threads, RunnerStats, SweepRun};
pub use soak::{find_soak, Soak, SoakGrid, SOAKS};
pub use stats::{welch_t, Summary};
pub use sweep::{run_sweep, Sweep, SweepConfig, SweepRow};
pub use tenants::{
    run_tenants, tenants_smoke_config, TenantOutcome, TenantSpec, TenantsArtifact, TenantsConfig,
};
pub use throughput::{
    floor_violations, pin_table2_traces, run_throughput, throughput_smoke_config, KernelThroughput,
    PolicyThroughput, ThroughputArtifact, ThroughputConfig,
};
