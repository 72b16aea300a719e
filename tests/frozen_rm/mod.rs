//! The per-frequency scheduling-point RM test, frozen as it was before
//! `rm_lowest_feasible` replaced it with one sweep per level. The oracle
//! tests compare every verdict and every statically-scaled point against
//! it.

use rtdvs::core::time::EPS;
use rtdvs::core::{Machine, PointIdx, TaskSet};

/// Ceiling of `t / p` that tolerates float round-off: values within a
/// relative hair of an integer are treated as that integer.
fn ceil_tolerant(t: f64, p: f64) -> f64 {
    let q = t / p;
    let r = q.round();
    if (q - r).abs() <= 1e-9 * r.max(1.0) {
        r
    } else {
        q.ceil()
    }
}

/// Exact scheduling-point RM test at frequency factor `alpha`.
///
/// For each task `i` in priority order, searches the scheduling points
/// `S_i = { k·P_j : j ≤ i, k = 1..⌊P_i/P_j⌋ } ∪ {P_i}` for a `t` with
/// `Σ_{j ≤ i} ⌈t/P_j⌉ · C_j/α ≤ t`.
pub fn rm_scheduling_points_feasible(tasks: &TaskSet, alpha: f64) -> bool {
    debug_assert!(alpha > 0.0);
    let order = tasks.rm_order();
    for (i, &id_i) in order.iter().enumerate() {
        let p_i = tasks.task(id_i).period().as_ms();
        // Collect scheduling points for level i.
        let mut points: Vec<f64> = Vec::new();
        for &id_j in &order[..=i] {
            let p_j = tasks.task(id_j).period().as_ms();
            let kmax = (p_i / p_j + 1e-9).floor() as u64;
            for k in 1..=kmax {
                points.push(k as f64 * p_j);
            }
        }
        points.push(p_i);
        let fits = points.iter().any(|&t| {
            let workload: f64 = order[..=i]
                .iter()
                .map(|&id_j| {
                    let task = tasks.task(id_j);
                    ceil_tolerant(t, task.period().as_ms()) * task.wcet().as_ms() / alpha
                })
                .sum();
            workload <= t + EPS
        });
        if !fits {
            return false;
        }
    }
    true
}

/// The statically-scaled RM operating point as one test per frequency.
pub fn oracle_static_rm_point(tasks: &TaskSet, machine: &Machine) -> Option<PointIdx> {
    machine.lowest_point_where(|p| rm_scheduling_points_feasible(tasks, p.freq))
}
