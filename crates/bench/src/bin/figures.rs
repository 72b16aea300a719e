//! Regenerates the paper's headline figures on the sharded runner and
//! maintains the repo's `BENCH_*.json` goldens.
//!
//! ```text
//! figures [run] [--quick] [--threads N] [--seed S] [--out DIR]
//!     Regenerate Figures 6–8 and the smoke sweep, print the panels, and
//!     write BENCH_paper_figures.json and BENCH_sweep.json into DIR
//!     (default: the repository root).
//!
//! figures bench [--threads-list 1,2,4] [--quick] [--seed S]
//!     Run the Figure 6–8 grid once per thread count; report wall-clock,
//!     event throughput, and speedup vs one thread, and verify the merged
//!     results are byte-identical across thread counts.
//!
//! figures <gate> [--golden-dir DIR] [--threads N] [--seed S] [--write]
//!     Run one golden gate. It loads the committed golden, re-runs the
//!     experiment at the golden's seed, and diffs the canonical payloads
//!     (everything but provenance: wall clock, thread count, measured
//!     rates) byte for byte; a divergence prints every differing JSON
//!     path with both values. It then validates the fresh artifact, runs
//!     the gate's own checks, and prints a summary. `--write` instead
//!     runs at `--seed`, validates, checks, and writes the golden. Gates:
//!
//!     paper-figures  Figures 6-8 on the full 20-point grid
//!                    (BENCH_paper_figures.json).
//!     sweep          the 2-utilization smoke sweep (BENCH_sweep.json).
//!     chaos, modes, regulator, clock
//!                    the seeded soaks: simulator fault injection, mode
//!                    churn, an unreliable regulator with brownout caps,
//!                    clock faults (BENCH_faults/modes/regulator/clock.json).
//!                    Nothing may be blamed on a policy and the rate-0
//!                    column must normalize to exactly 1.
//!     throughput     the O(1) engine against the frozen baseline
//!                    (BENCH_throughput.json). The Table 2 traces must be
//!                    byte-identical, and the measured events/s ratios
//!                    must clear the floors.
//!     tenants        a tenant flooding at 10x its quota beside five
//!                    compliant tenants and the relaxed Table 2 set
//!                    (BENCH_tenants.json).
//!     campaign       every chaos dimension composed under one root seed
//!                    (BENCH_campaign.json).
//!
//! figures goldens [--golden-dir DIR] [--threads N] [--seed S] [--write]
//!     Run every gate above in one process and report each failure. This
//!     is what `xtask goldens` and the CI goldens job run.
//!
//! figures repro [--write] [FILE]
//!     Replay a minimized chaos repro (`rtdvs-repro/v1`) and require the
//!     bit-identical audit violation it pins (default FILE:
//!     results/repro_availability_floor.json). With `--write`, instead
//!     shrink the known-violating campaign down to a minimal repro and
//!     write it to FILE. This is what `xtask repro` runs.
//! ```

use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rtdvs_bench::campaign::{
    campaign_smoke_config, known_violating_campaign, replay_repro, run_campaign, shrink_plan,
    CampaignArtifact, ReproArtifact,
};
use rtdvs_bench::figures::{
    paper_figures, paper_figures_artifact, smoke_sweep_artifact, PaperFigure, Scale,
};
use rtdvs_bench::soak::{Soak, SOAKS};
use rtdvs_bench::tenants::{run_tenants, tenants_smoke_config, TenantsArtifact};
use rtdvs_bench::throughput::{
    floor_violations, pin_table2_traces, run_throughput, throughput_smoke_config,
    ThroughputArtifact,
};
use rtdvs_bench::{diff, render_normalized_chart, Artifact, BenchArtifact};

/// Default experiment seed (the sweep harness default, `0x5eed`).
const DEFAULT_SEED: u64 = 0x5eed;

/// File names of the committed golden artifacts at the repository root.
const PAPER_FIGURES_FILE: &str = "BENCH_paper_figures.json";
const SWEEP_FILE: &str = "BENCH_sweep.json";

/// Default location of the committed minimized repro, relative to the
/// repository root.
const REPRO_FILE: &str = "results/repro_availability_floor.json";

struct Args {
    command: String,
    quick: bool,
    threads: Option<usize>,
    threads_list: Vec<usize>,
    seed: u64,
    out: Option<PathBuf>,
    golden_dir: Option<PathBuf>,
    write: bool,
    file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_owned(),
        quick: false,
        threads: None,
        threads_list: vec![1, 2, 4],
        seed: DEFAULT_SEED,
        out: None,
        golden_dir: None,
        write: false,
        file: None,
    };
    let gate_names: Vec<&str> = gates().iter().map(|g| g.name).collect();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "run" | "bench" | "goldens" | "repro" => args.command = a,
            gate if gate_names.contains(&gate) => args.command = a,
            "--quick" => args.quick = true,
            "--write" => args.write = true,
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a count")?;
                args.threads = Some(v.parse().map_err(|e| format!("--threads {v}: {e}"))?);
            }
            "--threads-list" => {
                let v = argv.next().ok_or("--threads-list needs e.g. 1,2,4")?;
                args.threads_list = v
                    .split(',')
                    .map(|t| t.trim().parse::<usize>().map_err(|e| format!("{t}: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.threads_list.is_empty() || args.threads_list.contains(&0) {
                    return Err("--threads-list needs positive counts".to_owned());
                }
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                args.seed = parse_seed(&v)?;
            }
            "--out" => args.out = Some(PathBuf::from(argv.next().ok_or("--out needs a dir")?)),
            "--golden-dir" => {
                args.golden_dir = Some(PathBuf::from(
                    argv.next().ok_or("--golden-dir needs a dir")?,
                ));
            }
            "--help" | "-h" => return Err(usage()),
            other if args.command == "repro" && args.file.is_none() && !other.starts_with('-') => {
                args.file = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn usage() -> String {
    let gate_names: Vec<&str> = gates().iter().map(|g| g.name).collect();
    format!(
        "usage: figures [run|bench|goldens|{}|repro] [--quick] [--threads N] \
         [--threads-list 1,2,4] [--seed S] [--out DIR] [--golden-dir DIR] [--write] \
         [FILE (repro only)]",
        gate_names.join("|")
    )
}

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|e| format!("--seed {v}: {e}"))
}

/// The workspace root: `crates/bench` sits two levels below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

fn default_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::new(1).expect("non-zero"))
}

fn resolve_threads(requested: Option<usize>) -> Result<NonZeroUsize, String> {
    match requested {
        None => Ok(default_threads()),
        Some(n) => NonZeroUsize::new(n).ok_or_else(|| "--threads 0 is meaningless".to_owned()),
    }
}

/// The grid the committed `BENCH_paper_figures.json` is generated at:
/// full 20-point utilization grid, trimmed sample count so regeneration
/// stays tractable on a laptop while the curves stay smooth.
fn figures_scale(quick: bool) -> Scale {
    if quick {
        Scale::quick()
    } else {
        Scale {
            sets_per_point: 20,
            duration: rtdvs_core::time::Time::from_secs(2.0),
            grid: 20,
        }
    }
}

fn print_panel(figure: &PaperFigure) {
    let stats = &figure.run.stats;
    println!(
        "-- Figure {} ({} tasks): {} cells, {} sims, {} events, {} ms wall, {:.0} events/s --",
        figure.figure,
        figure.n_tasks,
        stats.cells,
        stats.sims,
        stats.events,
        stats.wall_ms,
        stats.events_per_sec()
    );
    println!("{}", figure.run.sweep.render_normalized());
    println!("{}", render_normalized_chart(&figure.run.sweep));
}

fn write_artifact(dir: &Path, name: &str, artifact: &impl Artifact) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, artifact.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let threads = resolve_threads(args.threads)?;
    let scale = figures_scale(args.quick);
    let out = args.out.clone().unwrap_or_else(repo_root);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    println!(
        "== Figures 6-8: {}-point grid x {} sets x 6 policies, {} thread(s) ==",
        scale.grid,
        scale.sets_per_point,
        threads.get()
    );
    let figures = paper_figures(scale, args.seed, threads);
    for figure in &figures {
        print_panel(figure);
    }
    let artifact = paper_figures_artifact(&figures, scale, args.seed, threads);
    write_artifact(&out, PAPER_FIGURES_FILE, &artifact)?;

    let smoke = smoke_sweep_artifact(args.seed, threads);
    write_artifact(&out, SWEEP_FILE, &smoke)?;
    println!(
        "total wall: {} ms across {} simulations",
        artifact.wall_ms + smoke.wall_ms,
        figures.iter().map(|f| f.run.stats.sims).sum::<u64>()
    );
    Ok(())
}

/// A gate's body: [`golden_gate`] bound to one golden.
type Check = Box<dyn Fn(&Args) -> Result<(), String>>;

/// One committed golden, and the gate that reproduces it.
struct Gate {
    /// Subcommand name (`figures <name>`).
    name: &'static str,
    /// Runs [`golden_gate`] on this golden.
    check: Check,
}

impl Gate {
    /// The gate for `file`, an artifact of type `A`: `seed` reads a
    /// golden's seed, `run` re-runs the experiment at a seed, and `hook`
    /// holds the gate's own checks and returns its summary.
    fn new<A: Artifact + 'static>(
        name: &'static str,
        file: &'static str,
        seed: fn(&A) -> u64,
        run: impl Fn(u64, &Args) -> Result<A, String> + 'static,
        hook: impl Fn(&A) -> Result<String, String> + 'static,
    ) -> Gate {
        Gate {
            name,
            check: Box::new(move |args| golden_gate(name, file, args, seed, &run, &hook)),
        }
    }
}

/// Every committed golden, in `figures goldens` order.
fn gates() -> Vec<Gate> {
    let bench_seed = |art: &BenchArtifact| art.seed;
    let mut gates = vec![
        Gate::new(
            "paper-figures",
            PAPER_FIGURES_FILE,
            bench_seed,
            |seed, args| {
                let threads = resolve_threads(args.threads)?;
                let scale = figures_scale(false);
                let figures = paper_figures(scale, seed, threads);
                Ok(paper_figures_artifact(&figures, scale, seed, threads))
            },
            |art| Ok(bench_summary(art)),
        ),
        Gate::new(
            "sweep",
            SWEEP_FILE,
            bench_seed,
            |seed, args| Ok(smoke_sweep_artifact(seed, resolve_threads(args.threads)?)),
            |art| Ok(bench_summary(art)),
        ),
    ];
    gates.extend(SOAKS.iter().map(|soak| {
        Gate::new(
            soak.name,
            soak.golden,
            bench_seed,
            move |seed, _| Ok(soak.run(&soak.smoke_grid(seed))),
            move |art| soak_checks(soak, art),
        )
    }));
    gates.push(Gate::new(
        "throughput",
        "BENCH_throughput.json",
        |art: &ThroughputArtifact| art.seed,
        |seed, _| Ok(run_throughput(&throughput_smoke_config(seed))),
        throughput_checks,
    ));
    gates.push(Gate::new(
        "tenants",
        "BENCH_tenants.json",
        |art: &TenantsArtifact| art.seed,
        |seed, _| Ok(run_tenants(&tenants_smoke_config(seed))),
        |art| Ok(tenants_summary(art)),
    ));
    gates.push(Gate::new(
        "campaign",
        "BENCH_campaign.json",
        |art: &CampaignArtifact| art.seed,
        |seed, _| Ok(run_campaign(&campaign_smoke_config(seed))),
        |art| Ok(campaign_summary(art)),
    ));
    gates
}

/// The one golden gate. Loads `file`, re-runs at the golden's seed,
/// diffs the canonical trees, validates the fresh artifact, runs `hook`
/// and prints its summary. With `--write` it runs at `--seed` and writes
/// the golden once validation and `hook` pass.
fn golden_gate<A: Artifact>(
    name: &str,
    file: &str,
    args: &Args,
    seed: fn(&A) -> u64,
    run: &dyn Fn(u64, &Args) -> Result<A, String>,
    hook: &dyn Fn(&A) -> Result<String, String>,
) -> Result<(), String> {
    let dir = args.golden_dir.clone().unwrap_or_else(repo_root);
    let regenerate = format!("figures {name} --write");
    let golden = if args.write {
        None
    } else {
        let path = dir.join(file);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "cannot read golden {}: {e} (run `{regenerate}` to create it)",
                path.display()
            )
        })?;
        Some(A::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?)
    };
    let fresh = run(golden.as_ref().map_or(args.seed, seed), args)?;

    if let Some(golden) = &golden {
        let drift = diff(&golden.to_value(true), &fresh.to_value(true));
        if !drift.is_empty() {
            for d in &drift {
                eprintln!("{name}: {d}");
            }
            return Err(format!(
                "{name}: {} divergence(s) from {file}; if the model intentionally changed, \
                 regenerate with `{regenerate}` and commit",
                drift.len()
            ));
        }
    }
    let broken = fresh.validate();
    if !broken.is_empty() {
        for p in &broken {
            eprintln!("{name}: {p}");
        }
        return Err(format!("{name}: {} invariant(s) broken", broken.len()));
    }
    let summary = hook(&fresh).map_err(|e| format!("{name}: {e}"))?;
    if args.write {
        write_artifact(&dir, file, &fresh)?;
    } else {
        println!("{name}: fresh run reproduces {file} byte for byte");
    }
    print!("{summary}");
    Ok(())
}

/// Runs every gate, reporting each failure rather than stopping at the
/// first.
fn goldens(args: &Args) -> Result<(), String> {
    let mut failed = Vec::new();
    for gate in gates() {
        if let Err(e) = (gate.check)(args) {
            eprintln!("{e}");
            failed.push(gate.name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} golden gate(s) failed: {}",
            failed.len(),
            failed.join(", ")
        ))
    }
}

fn bench_summary(art: &BenchArtifact) -> String {
    format!(
        "  {} series x {} points, {} ms\n",
        art.series.len(),
        art.grid.utilizations.len(),
        art.wall_ms
    )
}

/// The soak invariants beyond `validate()`: nothing blamed anywhere
/// (policy-blamed misses and non-miss audit findings share that column),
/// and the rate-0 column bitwise 1 (an inactive adversity draws nothing,
/// so it must be byte-identical to none at all).
fn soak_checks(soak: &Soak, fresh: &BenchArtifact) -> Result<String, String> {
    let mut excused = 0u64;
    for series in &fresh.series {
        for p in &series.points {
            if p.deadline_miss != 0 {
                return Err(format!(
                    "{} blamed for {} miss(es) or audit finding(s) at rate {} — \
                     adversity must never read as a policy bug",
                    series.policy, p.deadline_miss, p.u
                ));
            }
            if p.u.to_bits() == 0.0_f64.to_bits() && p.energy_norm.to_bits() != 1.0_f64.to_bits() {
                return Err(format!(
                    "{} normalizes to {} at rate 0 — an inactive adversity \
                     must be byte-identical to none at all",
                    series.policy, p.energy_norm
                ));
            }
            excused += p.fault_miss;
        }
    }
    Ok(format!(
        "  {}: {} policies x {} rates, {excused} excused misses, 0 blamed, \
         rate 0 bit-exact, {} ms\n",
        soak.label,
        fresh.grid.policies.len(),
        fresh.grid.utilizations.len(),
        fresh.wall_ms
    ))
}

/// Pins the Table 2 traces byte-identically against the frozen
/// pre-refactor engine, then holds the fresh run's measured events/s
/// ratios to the floors.
fn throughput_checks(art: &ThroughputArtifact) -> Result<String, String> {
    pin_table2_traces().map_err(|e| format!("trace pinning failed: {e}"))?;
    let slow = floor_violations(art);
    if !slow.is_empty() {
        return Err(format!(
            "{} events/s floor violation(s) — the O(1) hot path has regressed:\n  {}",
            slow.len(),
            slow.join("\n  ")
        ));
    }
    let floored: Vec<_> = art.soak.iter().filter(|p| p.floored).collect();
    let mut s = format!(
        "  Table 2 traces byte-identical to the pre-refactor engine; {}-task soak sustains \
         {:.1}-{:.1}x baseline events/s on {} floored policies (floor {}x), {} ms\n",
        art.soak_tasks,
        floored
            .iter()
            .map(|p| p.ratio)
            .fold(f64::INFINITY, f64::min),
        floored.iter().map(|p| p.ratio).fold(0.0, f64::max),
        floored.len(),
        art.floor_ratio,
        art.wall_ms
    );
    for (panel, rows) in [("soak", &art.soak), ("table2", &art.table2)] {
        for p in rows {
            let _ = writeln!(
                s,
                "  {panel:>6} {:>9} {:>10} events {:>12.0} vs {:>12.0} events/s  {:>6.2}x{}",
                p.policy,
                p.events,
                p.engine_eps,
                p.baseline_eps,
                p.ratio,
                if p.floored { "  [floored]" } else { "" }
            );
        }
    }
    Ok(s)
}

fn tenants_summary(art: &TenantsArtifact) -> String {
    let offered: u64 = art.tenants.iter().map(|t| t.offered).sum();
    let worst_ratio = art
        .tenants
        .iter()
        .filter(|t| !t.flood)
        .map(|t| t.p99_ratio)
        .fold(0.0, f64::max);
    let mut s = format!(
        "  {} tenants, {} requests offered over {} ms; 0 periodic misses, \
         0 audit findings, worst compliant p99 inflation {:.3}x (limit {:.2}x), {} ms\n",
        art.tenants.len(),
        offered,
        art.horizon_ms,
        worst_ratio,
        art.p99_ratio_limit,
        art.wall_ms
    );
    for t in &art.tenants {
        let _ = writeln!(
            s,
            "  tenant{} {} quota {:.3} ms  offered {:>8}  served {:>8}  shed {:>7}  \
             rejected {:>7}  quarantined {:>5} periods  p50 {:>7.3} p99 {:>7.3} \
             p999 {:>7.3} ms{}",
            t.tenant,
            if t.flood { "[flood]" } else { "       " },
            t.quota_ms,
            t.offered,
            t.served,
            t.shed,
            t.rejected,
            t.quarantined_periods,
            t.p50_ms,
            t.p99_ms,
            t.p999_ms,
            if t.flood {
                String::new()
            } else {
                format!("  ({:.3}x flood-free p99)", t.p99_ratio)
            }
        );
    }
    s
}

fn campaign_summary(art: &CampaignArtifact) -> String {
    let mut s = format!(
        "  {} policies x [{}] over {} ms (seed {:#x}); 0 blamed misses, \
         0 audit findings, floor {:.2}, recovery bound {:.0} ms, {} ms wall\n",
        art.cells.len(),
        art.dimensions.join(", "),
        art.horizon_ms,
        art.seed,
        art.min_availability,
        art.max_recovery_ms,
        art.wall_ms
    );
    for c in &art.cells {
        let _ = writeln!(
            s,
            "  {:>9}  kills {:>2} restores {:>2}  churn {:>3}  served {:>5}/{:>5}  \
             excused {:>3}  avail {:.4}  mttf {:>8.1} mttr {:>7.1} worst-rec {:>7.1} ms",
            c.policy,
            c.kills,
            c.restores,
            c.churn_commits,
            c.served,
            c.compliant_offered + c.flood_offered,
            c.excused_misses,
            c.availability,
            c.mttf_ms,
            c.mttr_ms,
            c.worst_recovery_ms
        );
    }
    s
}

fn repro(args: &Args) -> Result<(), String> {
    let path = args
        .file
        .clone()
        .unwrap_or_else(|| repo_root().join(REPRO_FILE));

    if args.write {
        let (kind, plan, avail) = known_violating_campaign(args.seed);
        println!(
            "repro: shrinking the known-violating campaign (policy {}, {} ms, \
             dimensions [{}])...",
            kind.name(),
            plan.horizon_ms,
            plan.active_dimensions().join(", ")
        );
        let repro = shrink_plan(kind, &plan, &avail)?;
        replay_repro(&repro)?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        std::fs::write(&path, repro.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        print_repro_summary(&repro);
        return Ok(());
    }

    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read repro {}: {e} (run `figures repro --write` to create it)",
            path.display()
        )
    })?;
    let repro = ReproArtifact::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let broken = repro.validate();
    if !broken.is_empty() {
        return Err(format!("{}: {}", path.display(), broken.join("; ")));
    }
    replay_repro(&repro)?;
    println!(
        "repro: {} replays to the identical violation",
        path.display()
    );
    print_repro_summary(&repro);
    Ok(())
}

fn print_repro_summary(repro: &ReproArtifact) {
    println!(
        "  policy {}  seed {:#x}  horizon {} ms  dimensions [{}]",
        repro.policy,
        repro.plan.seed,
        repro.plan.horizon_ms,
        repro.plan.active_dimensions().join(", ")
    );
    println!(
        "  [{}] t={:.3} ms: {}",
        repro.violation.rule, repro.violation.time_ms, repro.violation.details
    );
}

fn bench(args: &Args) -> Result<(), String> {
    let scale = figures_scale(args.quick);
    println!(
        "== thread scaling on the Figure 6-8 grid ({} points x {} sets x 6 policies x 3 panels) ==",
        scale.grid, scale.sets_per_point
    );
    let mut baseline_ms = None;
    let mut baseline_json = None;
    println!("  threads    wall_ms    events/s   speedup");
    for &n in &args.threads_list {
        let threads = NonZeroUsize::new(n).ok_or("thread counts must be positive")?;
        let figures = paper_figures(scale, args.seed, threads);
        let artifact = paper_figures_artifact(&figures, scale, args.seed, threads);
        let wall: u64 = figures.iter().map(|f| f.run.stats.wall_ms).sum();
        let events: u64 = figures.iter().map(|f| f.run.stats.events).sum();
        let speedup = match baseline_ms {
            None => {
                baseline_ms = Some(wall);
                1.0
            }
            Some(base) => base as f64 / (wall.max(1)) as f64,
        };
        println!(
            "  {n:>7} {wall:>10} {:>11.0} {speedup:>8.2}x",
            events as f64 * 1000.0 / wall.max(1) as f64
        );
        let canonical = artifact.canonical_json();
        match &baseline_json {
            None => baseline_json = Some(canonical),
            Some(base) => {
                if *base != canonical {
                    return Err(format!(
                        "merged results at {n} threads are not byte-identical to the baseline"
                    ));
                }
                println!("           merged results byte-identical to 1-thread baseline");
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "run" => run(&args),
        "bench" => bench(&args),
        "goldens" => goldens(&args),
        "repro" => repro(&args),
        name => match gates().into_iter().find(|g| g.name == name) {
            Some(gate) => (gate.check)(&args),
            None => Err(format!("unknown command {name}\n{}", usage())),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
