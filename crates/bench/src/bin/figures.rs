//! Regenerates the paper's headline figures on the sharded runner and
//! maintains the repo's `BENCH_*.json` trajectory.
//!
//! ```text
//! figures [run] [--quick] [--threads N] [--seed S] [--out DIR]
//!     Regenerate Figures 6–8 and the smoke sweep; write
//!     BENCH_paper_figures.json and BENCH_sweep.json into DIR (default:
//!     the repository root).
//!
//! figures check [--tolerance FRACTION] [--golden-dir DIR] [--threads N]
//!     Re-run the smoke grid and diff it against the committed
//!     BENCH_sweep.json (default tolerance ±1% energy, deadline misses
//!     must match exactly), then structurally validate the committed
//!     BENCH_paper_figures.json. Exits non-zero on any divergence —
//!     this is what `xtask bench-check` and the CI bench-smoke stage run.
//!
//! figures bench [--threads-list 1,2,4] [--quick] [--seed S]
//!     Run the Figure 6–8 grid once per thread count; report wall-clock,
//!     event throughput, and speedup vs one thread, and verify the merged
//!     results are byte-identical across thread counts.
//!
//! figures <chaos|modes|regulator|clock|soaks> [--golden-dir DIR] [--seed S] [--write]
//!     Re-run a registered seeded soak's smoke grid (`soaks`: all of
//!     them in turn) — chaos: simulator fault injection; modes:
//!     transactional mode churn; regulator: unreliable regulator plus
//!     brownout caps; clock: oscillator drift, lost and coalesced ticks,
//!     backward RTC jumps — across all six paper policies. Assert that
//!     nothing is ever blamed (no policy-blamed miss, no non-miss audit
//!     finding), that the rate-0 column normalizes to exactly 1 (an
//!     inactive adversity is provably free), and that the artifact
//!     validates, then diff the canonical payload byte-for-byte against
//!     the committed golden (BENCH_faults.json, BENCH_modes.json,
//!     BENCH_regulator.json, BENCH_clock.json). `--write` regenerates
//!     the golden instead. `figures soaks` is what `xtask soaks` and the
//!     CI soaks stage run.
//!
//! figures tenants [--golden-dir DIR] [--seed S] [--write]
//!     Re-run the multi-tenant serving soak (one tenant flooding at 10x
//!     its quota beside five compliant tenants and the relaxed Table 2
//!     hard-RT set under injected overruns), enforce the isolation
//!     invariants (zero periodic misses, clean audits, no compliant-
//!     tenant loss, compliant p99 within the configured limit of the
//!     flood-free baseline), and diff the canonical payload byte-for-
//!     byte against the committed BENCH_tenants.json. `--write`
//!     regenerates the golden instead. This is what `xtask tenants` and
//!     the CI tenants-smoke job run.
//!
//! figures throughput [--golden-dir DIR] [--seed S] [--write]
//!     Pin the Table 2 traces byte-identically against the frozen
//!     pre-refactor engine, measure events/s for both engines on the
//!     Table 2 set and a 128-task soak, diff the machine-independent
//!     payload against the committed BENCH_throughput.json, and enforce
//!     the events/s ratio floors (≥5x baseline on the engine-dominated
//!     soak policies). `--write` regenerates the golden instead. This is
//!     what `xtask throughput` and the CI throughput-smoke job run.
//!
//! figures campaign [--golden-dir DIR] [--seed S] [--write]
//!     Re-run the composed chaos campaign (WCET overruns + unreliable
//!     regulator with brownouts + crash/restore kills + mode churn + a
//!     flooding tenant, all derived from one root seed with phased
//!     windows) across all six paper policies, enforce the campaign
//!     invariants (0 policy-blamed misses, 0 audit findings including
//!     the availability rules, kills actually restored), and diff the
//!     canonical payload byte-for-byte against the committed
//!     BENCH_campaign.json. `--write` regenerates the golden instead.
//!     This is what `xtask campaign` and the CI campaign-smoke job run.
//!
//! figures repro [--write] [FILE]
//!     Replay a minimized chaos repro (`rtdvs-repro/v1`) and require the
//!     bit-identical audit violation it pins (default FILE:
//!     results/repro_availability_floor.json). With `--write`, instead
//!     shrink the known-violating campaign down to a minimal repro and
//!     write it to FILE. This is what `xtask repro` runs.
//! ```

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rtdvs_bench::artifact::{compare, BenchArtifact};
use rtdvs_bench::campaign::{
    campaign_smoke_config, compare_campaign, known_violating_campaign, replay_repro, run_campaign,
    shrink_plan, CampaignArtifact, ReproArtifact,
};
use rtdvs_bench::figures::{
    paper_figures, paper_figures_artifact, smoke_sweep_artifact, PaperFigure, Scale,
};
use rtdvs_bench::render_normalized_chart;
use rtdvs_bench::soak::{find_soak, Soak, SOAKS};
use rtdvs_bench::tenants::{compare_tenants, run_tenants, tenants_smoke_config, TenantsArtifact};
use rtdvs_bench::throughput::{
    compare_throughput, floor_violations, pin_table2_traces, run_throughput,
    throughput_smoke_config, ThroughputArtifact,
};

/// Default experiment seed (the sweep harness default, `0x5eed`).
const DEFAULT_SEED: u64 = 0x5eed;

/// File names of the committed golden artifacts at the repository root.
const PAPER_FIGURES_FILE: &str = "BENCH_paper_figures.json";
const SWEEP_FILE: &str = "BENCH_sweep.json";
const THROUGHPUT_FILE: &str = "BENCH_throughput.json";
const TENANTS_FILE: &str = "BENCH_tenants.json";
const CAMPAIGN_FILE: &str = "BENCH_campaign.json";

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
    tolerance: f64,
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
        tolerance: 0.01,
        write: false,
        file: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "run" | "check" | "bench" | "soaks" | "throughput" | "tenants" | "campaign"
            | "repro" => {
                args.command = a;
            }
            soak if find_soak(soak).is_some() => args.command = a,
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
            "--tolerance" => {
                let v = argv.next().ok_or("--tolerance needs a fraction")?;
                args.tolerance = v.parse().map_err(|e| format!("--tolerance {v}: {e}"))?;
                if !(args.tolerance > 0.0 && args.tolerance < 1.0) {
                    return Err(format!("tolerance {v} outside (0, 1)"));
                }
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
    format!(
        "usage: figures [run|check|bench|soaks|{}|throughput|tenants|campaign|repro] \
         [--quick] [--threads N] [--threads-list 1,2,4] [--seed S] [--out DIR] \
         [--golden-dir DIR] [--tolerance FRACTION] [--write] [FILE (repro only)]",
        SOAKS.iter().map(|s| s.name).collect::<Vec<_>>().join("|")
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

fn write_artifact(dir: &Path, name: &str, artifact: &BenchArtifact) -> Result<(), String> {
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

fn load_golden(dir: &Path, name: &str, regenerate: &str) -> Result<BenchArtifact, String> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read golden {}: {e} (run `{regenerate}` to create it)",
            path.display()
        )
    })?;
    BenchArtifact::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn check(args: &Args) -> Result<(), String> {
    let threads = resolve_threads(args.threads)?;
    let dir = args.golden_dir.clone().unwrap_or_else(repo_root);

    // 1. Fresh smoke run vs the committed golden, within tolerance.
    let golden = load_golden(&dir, SWEEP_FILE, "figures run")?;
    let fresh = smoke_sweep_artifact(golden.seed, threads);
    let problems = compare(&golden, &fresh, args.tolerance);
    if problems.is_empty() {
        println!(
            "bench-check: smoke grid reproduces {} within ±{:.1}% ({} points, {} ms)",
            SWEEP_FILE,
            100.0 * args.tolerance,
            golden.series.iter().map(|s| s.points.len()).sum::<usize>(),
            fresh.wall_ms
        );
    } else {
        for p in &problems {
            eprintln!("bench-check: {p}");
        }
        return Err(format!(
            "{} divergence(s) from {SWEEP_FILE}; if the energy model intentionally \
             changed, regenerate the goldens with `figures run` and commit them",
            problems.len()
        ));
    }

    // 2. Structural invariants of the committed paper-figures artifact
    //    (full regeneration is `figures run`; too slow for every push).
    let golden = load_golden(&dir, PAPER_FIGURES_FILE, "figures run")?;
    let structural = golden.validate();
    if !structural.is_empty() {
        for p in &structural {
            eprintln!("bench-check: {PAPER_FIGURES_FILE}: {p}");
        }
        return Err(format!(
            "{PAPER_FIGURES_FILE}: {} structural problem(s)",
            structural.len()
        ));
    }
    println!(
        "bench-check: {PAPER_FIGURES_FILE} is structurally sound ({} series)",
        golden.series.len()
    );
    Ok(())
}

/// The invariants every fresh soak grid must hold: nothing blamed
/// anywhere (policy-blamed misses and non-miss audit findings share that
/// column), the rate-0 column bitwise 1 (an inactive adversity draws
/// nothing, so it must be byte-identical to none at all), and a
/// structurally valid artifact. Returns the excused-miss total.
fn soak_invariants(soak: &Soak, fresh: &BenchArtifact) -> Result<u64, String> {
    let name = soak.name;
    let mut excused = 0u64;
    for series in &fresh.series {
        for p in &series.points {
            if p.deadline_miss != 0 {
                return Err(format!(
                    "{name}: {} blamed for {} miss(es) or audit finding(s) at rate {} — \
                     adversity must never read as a policy bug",
                    series.policy, p.deadline_miss, p.u
                ));
            }
            if p.u.to_bits() == 0.0_f64.to_bits() && p.energy_norm.to_bits() != 1.0_f64.to_bits() {
                return Err(format!(
                    "{name}: {} normalizes to {} at rate 0 — an inactive adversity \
                     must be byte-identical to none at all",
                    series.policy, p.energy_norm
                ));
            }
            excused += p.fault_miss;
        }
    }
    let structural = fresh.validate();
    if !structural.is_empty() {
        for p in &structural {
            eprintln!("{name}: {}: {p}", soak.golden);
        }
        return Err(format!(
            "{name}: {} structural problem(s)",
            structural.len()
        ));
    }
    Ok(excused)
}

/// Runs one registered soak: regenerates its golden under `--write`,
/// otherwise re-runs it at the golden's seed and requires the invariants
/// and a byte-identical canonical payload.
fn soak_gate(soak: &Soak, args: &Args) -> Result<(), String> {
    let dir = args.golden_dir.clone().unwrap_or_else(repo_root);
    let regenerate = format!("figures {} --write", soak.name);
    if args.write {
        let art = soak.run(&soak.smoke_grid(args.seed));
        soak_invariants(soak, &art)?;
        return write_artifact(&dir, soak.golden, &art);
    }

    let golden = load_golden(&dir, soak.golden, &regenerate)?;
    let fresh = soak.run(&soak.smoke_grid(golden.seed));
    let excused = soak_invariants(soak, &fresh)?;
    let (want, got) = (golden.canonical_json(), fresh.canonical_json());
    if want != got {
        for (w, g) in want.lines().zip(got.lines()).filter(|(w, g)| w != g) {
            let name = soak.name;
            eprintln!("{name}: golden {}\n{name}: fresh  {}", w.trim(), g.trim());
        }
        return Err(format!(
            "{}: fresh run is not byte-identical to {}; if the model intentionally \
             changed, regenerate with `{regenerate}` and commit",
            soak.name, soak.golden
        ));
    }
    println!(
        "{}: {} policies x {} rates reproduce {} byte-for-byte \
         ({excused} excused misses, 0 blamed, rate 0 bit-exact, {} ms)",
        soak.name,
        fresh.grid.policies.len(),
        fresh.grid.utilizations.len(),
        soak.golden,
        fresh.wall_ms
    );
    Ok(())
}

fn tenants(args: &Args) -> Result<(), String> {
    let dir = args.golden_dir.clone().unwrap_or_else(repo_root);
    let path = dir.join(TENANTS_FILE);

    if args.write {
        let art = run_tenants(&tenants_smoke_config(args.seed));
        print_tenants_summary(&art);
        let broken = art.validate();
        if !broken.is_empty() {
            for p in &broken {
                eprintln!("tenants: {p}");
            }
            return Err(format!("{} isolation invariant(s) broken", broken.len()));
        }
        std::fs::write(&path, art.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        print_tenants_summary(&art);
        return Ok(());
    }

    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read golden {}: {e} (run `figures tenants --write` to create it)",
            path.display()
        )
    })?;
    let golden =
        TenantsArtifact::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;

    // 1. Fresh soak at the golden's seed; everything except wall clock is
    //    a pure function of it, so the canonical payloads must be
    //    byte-identical.
    let fresh = run_tenants(&tenants_smoke_config(golden.seed));
    let problems = compare_tenants(&golden, &fresh);
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("tenants: {p}");
        }
        return Err(format!(
            "{} divergence(s) from {TENANTS_FILE}; if the serving model intentionally \
             changed, regenerate with `figures tenants --write` and commit",
            problems.len()
        ));
    }

    // 2. The isolation invariants hold on the fresh run: no periodic
    //    miss, clean audits, no compliant-tenant loss, p99 within limit.
    let broken = fresh.validate();
    if !broken.is_empty() {
        for p in &broken {
            eprintln!("tenants: {p}");
        }
        return Err(format!("{} isolation invariant(s) broken", broken.len()));
    }

    print_tenants_summary(&fresh);
    Ok(())
}

fn print_tenants_summary(art: &TenantsArtifact) {
    let offered: u64 = art.tenants.iter().map(|t| t.offered).sum();
    let worst_ratio = art
        .tenants
        .iter()
        .filter(|t| !t.flood)
        .map(|t| t.p99_ratio)
        .fold(0.0, f64::max);
    println!(
        "tenants: {} tenants, {} requests offered over {} ms; 0 periodic misses, \
         0 audit findings, worst compliant p99 inflation {:.3}x (limit {:.2}x), {} ms",
        art.tenants.len(),
        offered,
        art.horizon_ms,
        worst_ratio,
        art.p99_ratio_limit,
        art.wall_ms
    );
    for t in &art.tenants {
        println!(
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
}

fn throughput(args: &Args) -> Result<(), String> {
    let dir = args.golden_dir.clone().unwrap_or_else(repo_root);
    let path = dir.join(THROUGHPUT_FILE);

    // 1. Byte-identical-trace pinning: the O(1) engine must agree with
    //    the frozen baseline on the paper's Table 2 set, byte for byte,
    //    before any timing is trusted.
    pin_table2_traces().map_err(|e| format!("throughput: trace pinning failed: {e}"))?;
    println!("throughput: Table 2 traces byte-identical to the pre-refactor engine (6 policies)");

    if args.write {
        let art = run_throughput(&throughput_smoke_config(args.seed));
        let structural = art.validate();
        if !structural.is_empty() {
            for p in &structural {
                eprintln!("throughput: {p}");
            }
            return Err(format!("{} structural problem(s)", structural.len()));
        }
        std::fs::write(&path, art.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        print_throughput_summary(&art);
        return Ok(());
    }

    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read golden {}: {e} (run `figures throughput --write` to create it)",
            path.display()
        )
    })?;
    let golden =
        ThroughputArtifact::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;

    // 2. Fresh measurement at the golden's seed and shape.
    let mut cfg = throughput_smoke_config(golden.seed);
    cfg.floor_ratio = golden.floor_ratio;
    cfg.table2_floor_ratio = golden.table2_floor_ratio;
    let fresh = run_throughput(&cfg);

    // 3. The machine-independent payload (event counts, panel shapes,
    //    floors) must reproduce the golden exactly.
    let problems = compare_throughput(&golden, &fresh);
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("throughput: {p}");
        }
        return Err(format!(
            "{} divergence(s) from {THROUGHPUT_FILE}; if the engine or workload \
             intentionally changed, regenerate with `figures throughput --write` and commit",
            problems.len()
        ));
    }

    // 4. The events/s floors hold on this machine's fresh measurement.
    let slow = floor_violations(&fresh);
    if !slow.is_empty() {
        for p in &slow {
            eprintln!("throughput: {p}");
        }
        return Err(format!(
            "{} events/s floor violation(s) — the O(1) hot path has regressed",
            slow.len()
        ));
    }

    // 5. Structural invariants of the artifact itself.
    let structural = fresh.validate();
    if !structural.is_empty() {
        for p in &structural {
            eprintln!("throughput: {THROUGHPUT_FILE}: {p}");
        }
        return Err(format!("{} structural problem(s)", structural.len()));
    }

    print_throughput_summary(&fresh);
    Ok(())
}

fn print_throughput_summary(art: &ThroughputArtifact) {
    let floored: Vec<&rtdvs_bench::PolicyThroughput> =
        art.soak.iter().filter(|p| p.floored).collect();
    let worst = floored
        .iter()
        .map(|p| p.ratio)
        .fold(f64::INFINITY, f64::min);
    println!(
        "throughput: {}-task soak sustains {:.1}-{:.1}x baseline events/s on {} floored \
         policies (floor {}x), table2 pinned, {} ms",
        art.soak_tasks,
        worst,
        floored.iter().map(|p| p.ratio).fold(0.0, f64::max),
        floored.len(),
        art.floor_ratio,
        art.wall_ms
    );
    for (panel, rows) in [("soak", &art.soak), ("table2", &art.table2)] {
        for p in rows {
            println!(
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
}

fn campaign(args: &Args) -> Result<(), String> {
    let dir = args.golden_dir.clone().unwrap_or_else(repo_root);
    let path = dir.join(CAMPAIGN_FILE);

    if args.write {
        let art = run_campaign(&campaign_smoke_config(args.seed));
        let broken = art.validate();
        if !broken.is_empty() {
            for p in &broken {
                eprintln!("campaign: {p}");
            }
            return Err(format!("{} campaign invariant(s) broken", broken.len()));
        }
        std::fs::write(&path, art.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        print_campaign_summary(&art);
        return Ok(());
    }

    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read golden {}: {e} (run `figures campaign --write` to create it)",
            path.display()
        )
    })?;
    let golden =
        CampaignArtifact::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;

    // 1. Fresh campaign at the golden's seed; everything except wall
    //    clock is a pure function of it, so the canonical payloads must
    //    be byte-identical.
    let fresh = run_campaign(&campaign_smoke_config(golden.seed));
    let problems = compare_campaign(&golden, &fresh);
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("campaign: {p}");
        }
        return Err(format!(
            "{} divergence(s) from {CAMPAIGN_FILE}; if the chaos model intentionally \
             changed, regenerate with `figures campaign --write` and commit",
            problems.len()
        ));
    }

    // 2. The campaign invariants hold on the fresh run: no policy-blamed
    //    miss, no audit finding, every kill restored, availability above
    //    the declared floor.
    let broken = fresh.validate();
    if !broken.is_empty() {
        for p in &broken {
            eprintln!("campaign: {p}");
        }
        return Err(format!("{} campaign invariant(s) broken", broken.len()));
    }

    print_campaign_summary(&fresh);
    Ok(())
}

fn print_campaign_summary(art: &CampaignArtifact) {
    println!(
        "campaign: {} policies x [{}] over {} ms (seed {:#x}); 0 blamed misses, \
         0 audit findings, floor {:.2}, recovery bound {:.0} ms, {} ms wall",
        art.cells.len(),
        art.dimensions.join(", "),
        art.horizon_ms,
        art.seed,
        art.min_availability,
        art.max_recovery_ms,
        art.wall_ms
    );
    for c in &art.cells {
        println!(
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
        "check" => check(&args),
        "bench" => bench(&args),
        "soaks" => SOAKS.iter().try_for_each(|soak| soak_gate(soak, &args)),
        "throughput" => throughput(&args),
        "tenants" => tenants(&args),
        "campaign" => campaign(&args),
        "repro" => repro(&args),
        other => match find_soak(other) {
            Some(soak) => soak_gate(soak, &args),
            None => Err(format!("unknown command {other}\n{}", usage())),
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
