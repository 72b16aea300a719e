//! End-to-end and per-layer benchmark of the rtdvs workspace.
//!
//! Three workloads, each a single-threaded loop of identical rounds over
//! inputs generated from the seed:
//!
//! * [`engine_soak`] — the six paper policies through the simulator;
//! * [`kernel_soak`] — the same task set in one `RtKernel` per policy;
//! * [`control_plane`] — tenants, mode changes, policy hot-swaps and
//!   checkpoint/restore on a small kernel.
//!
//! `README.md` beside this crate documents the metrics and seeds.

pub mod calib;
pub mod control_plane;
pub mod engine_soak;
pub mod kernel_soak;
pub mod report;
pub mod soak;
pub mod trace;
pub mod wrap;

use rtdvs_sim::SimReport;

/// Seed whose soak results are pinned in [`ENGINE_PINS`] and [`KERNEL_PINS`].
pub const DEFAULT_SEED: u64 = 24301;

/// The deterministic outcome of one soak run of one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Scheduling events (engine: `SimReport::events`; kernel: released
    /// plus completed log entries).
    pub events: u64,
    /// Bits of the total energy.
    pub energy_bits: u64,
    /// Operating-point switches.
    pub switches: u64,
}

impl Pin {
    /// The pin of an engine report.
    pub fn of_report(r: &SimReport) -> Pin {
        Pin {
            events: r.events,
            energy_bits: r.energy().to_bits(),
            switches: r.switches,
        }
    }
}

/// `engine-soak` results on [`DEFAULT_SEED`], in `PolicyKind::paper_six`
/// order.
pub const ENGINE_PINS: Option<[Pin; 6]> = Some([
    Pin {
        events: 218003,
        energy_bits: 4680401820491775040,
        switches: 0,
    },
    Pin {
        events: 218003,
        energy_bits: 4680401820491775040,
        switches: 0,
    },
    Pin {
        events: 218003,
        energy_bits: 4680401820491775040,
        switches: 0,
    },
    Pin {
        events: 218000,
        energy_bits: 4673917327988138600,
        switches: 150,
    },
    Pin {
        events: 218002,
        energy_bits: 4679626529686521420,
        switches: 89709,
    },
    Pin {
        events: 218000,
        energy_bits: 4673879624448865684,
        switches: 0,
    },
]);

/// `kernel-soak` results on [`DEFAULT_SEED`], in `PolicyKind::paper_six`
/// order. The kernel charges energy per `run_until` call, so the energy
/// bits depend on the slicing as well as the inputs.
pub const KERNEL_PINS: Option<[Pin; 6]> = Some([
    Pin {
        events: 218146,
        energy_bits: 4680317612721141877,
        switches: 0,
    },
    Pin {
        events: 218146,
        energy_bits: 4680317612721141877,
        switches: 0,
    },
    Pin {
        events: 218146,
        energy_bits: 4680317612721141877,
        switches: 0,
    },
    Pin {
        events: 218146,
        energy_bits: 4673793598069801127,
        switches: 64,
    },
    Pin {
        events: 218146,
        energy_bits: 4679544350952819566,
        switches: 89468,
    },
    Pin {
        events: 218146,
        energy_bits: 4673766141247748147,
        switches: 0,
    },
]);
