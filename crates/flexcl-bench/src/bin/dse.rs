//! Experiment E5 — §4.3 design-space exploration.
//!
//! Reproduced claims, per PolyBench kernel:
//!
//! * **Speed**: FlexCL explores the full space in seconds; against
//!   synthesis-based System Run (0.7 h per design, as Table 2 implies) the
//!   speedup exceeds 10,000×.
//! * **Quality**: the configuration FlexCL ranks best performs within a
//!   few percent of the true (System-Run-measured) optimum — the paper
//!   reports 2.1% average — and the best configuration accelerates the
//!   unoptimized baseline by orders of magnitude (273× on the paper's
//!   workload sizes).
//! * **Comparison with \[16\]**: exhaustive search over the FlexCL model
//!   finds the optimum for most kernels, while the coarse-grained model
//!   with step-by-step search of HPCA'16 rarely does (96% vs 12%).
//!
//! Regenerate with `cargo run -p flexcl-bench --bin dse --release`.
//!
//! In addition to the E5 tables, the binary measures the raw sweep-engine
//! throughput at 1/2/4/8 worker threads — with per-phase timings, the
//! work-stealing scheduler's chunk/steal counters and the hit rates of
//! the analysis and schedule caches — and writes it to the repo-root
//! `BENCH_dse.json`. Each row is the **median of N repetitions** after a
//! warm-up sweep: the per-sweep times are sub-millisecond at standard
//! scale, so single-shot timings are noise-dominated.
//!
//! Flags:
//!
//! * `--bench-only` — run just the throughput measurement.
//! * `--kernels SUBSTR` — restrict the measured kernels to names
//!   containing `SUBSTR` (e.g. `--kernels vadd` for a smoke run).
//! * `--grid NAME` — sweep the `standard`, `fine` (default) or `ultra`
//!   knob grid; `fine` gives the ≥10⁵-point sweeps the scaling numbers
//!   are quoted on.
//! * `--reps N` — repetitions per row (default 5); the row reports the
//!   median.
//! * `--out PATH` — write the JSON to `PATH` instead of the repo root.
//! * `--verbose` — print each measured sweep's internals (the
//!   [`flexcl_core::DseStats`] rendering) and diagnostics.
//! * `--trace-out PATH` (with `--trace-sample N`) — dump the span trace
//!   of the run as JSONL.
//! * `--check PATH` — validate an existing BENCH_dse.json (schema keys
//!   present, `configs_per_sec` finite and positive) and exit; used by
//!   `scripts/tier1.sh`. With `--require-scaling`, additionally require
//!   threads=8 throughput to beat threads=1 per kernel — skipped with a
//!   notice when the rows were measured on a single-core host.

use flexcl_bench::record::{self, Field};
use flexcl_bench::{
    compile, flag_value, host_cores, sweep_kernel, vadd, write_csv, SYNTHESIS_HOURS_PER_DESIGN,
};
use flexcl_core::{
    explore_space, DseOptions, KernelAnalysis, Platform, SweepGrid, Workload,
};
use flexcl_kernels::{polybench, Scale};
use flexcl_serve::json::Json;
use std::time::Instant;

/// Times model-only sweeps (no System Run) at 1, 2, 4 and 8 worker
/// threads over vadd and a few PolyBench kernels, printing a summary line
/// per sweep and returning the BENCH_dse.json rows: a full sweep of one
/// kernel at one thread count (median of `reps` runs after one warm-up),
/// with phase timings, scheduler counters and cache effectiveness.
/// `filter` restricts the kernels to names containing the given substring.
fn bench_sweeps(
    filter: Option<&str>,
    grid_name: &str,
    reps: usize,
    verbose: bool,
) -> Vec<Vec<Field>> {
    let platform = Platform::virtex7_adm7v3();
    let grid = SweepGrid::by_name(grid_name)
        .unwrap_or_else(|| panic!("unknown grid {grid_name:?} (standard|fine|ultra)"));
    let thread_counts = [1usize, 2, 4, 8];
    let reps = reps.max(1);
    let cores = host_cores();

    let mut targets: Vec<(String, flexcl_ir::Function, Workload)> = Vec::new();
    let (f, w) = vadd();
    targets.push(("vadd".to_string(), f, w));
    for spec in polybench().into_iter().take(3) {
        let func = compile(&spec);
        let workload = spec.workload(Scale::Test, 1234);
        targets.push((spec.full_name(), func, workload));
    }
    if let Some(sub) = filter {
        targets.retain(|(name, _, _)| name.contains(sub));
    }

    println!("\nSweep throughput (model only):");
    let mut rows = Vec::new();
    for (name, func, workload) in &targets {
        // Warm the process-wide caches once so every repetition measures
        // the same steady state (the analysis cache fully hot).
        let _ = explore_space(func, &platform, workload, &grid, DseOptions::default());
        for &threads in &thread_counts {
            let opts = DseOptions { threads, ..DseOptions::default() };
            // Median of `reps` runs: sub-millisecond standard-grid sweeps
            // are noise-dominated single-shot.
            let mut runs = Vec::with_capacity(reps);
            for _ in 0..reps {
                let start = Instant::now();
                let res =
                    explore_space(func, &platform, workload, &grid, opts).expect("bench sweep");
                runs.push((start.elapsed().as_secs_f64(), res));
            }
            runs.sort_by(|(a, _), (b, _)| a.total_cmp(b));
            let (secs, res) = &runs[runs.len() / 2];
            if verbose {
                println!("{name} threads={threads} sweep internals:\n{}", res.stats);
                println!("  diagnostics      : {}", res.diagnostics);
            }
            if !res.diagnostics.is_clean() {
                eprintln!(
                    "  warning: {} skipped {} candidate(s) [{}]: {}",
                    name,
                    res.diagnostics.skipped_count(),
                    res.diagnostics.summary(),
                    res.diagnostics.failed[0].message
                );
            }
            let points = res.points.len();
            let configs_per_sec = points as f64 / secs.max(1e-9);
            let ms = |nanos: u64| Field::Num(nanos as f64 / 1e6, 3);
            println!(
                "  {:<26} {:>4} points  threads={}  {:>8.2} ms  {:>9.0} configs/s  \
                 sched-hits={:>5.1}%",
                name,
                points,
                threads,
                secs * 1e3,
                configs_per_sec,
                res.stats.sched_cache_hit_rate() * 100.0,
            );
            rows.push(vec![
                name.as_str().into(),
                points.into(),
                threads.into(),
                grid_name.into(),
                reps.into(),
                res.stats.chunk_size.into(),
                res.stats.chunks_processed.into(),
                res.stats.steals.into(),
                res.stats.repaired_chunks.into(),
                cores.into(),
                Field::Num(secs * 1e3, 3),
                Field::Num(configs_per_sec, 1),
                ms(res.stats.analysis_nanos),
                ms(res.stats.estimate_nanos),
                ms(res.stats.sched_nanos),
                Field::Num(res.stats.analysis_cache_hit_rate(), 3),
                Field::Num(res.stats.sched_cache_hit_rate(), 3),
            ]);
        }
    }
    rows
}

/// The `--check` gates over BENCH_dse.json rows: a finite positive
/// `configs_per_sec` on every row and, with `require_scaling`, per kernel
/// the threads=8 throughput beating threads=1 — skipped with a notice
/// when the rows report a single-core measuring host, where a parallel
/// speedup is physically impossible.
fn gate(rows: &[Json], require_scaling: bool) -> Result<(), String> {
    for (i, row) in rows.iter().enumerate() {
        let cps = record::num(row, "configs_per_sec")
            .ok_or(format!("row {i}: configs_per_sec is not a number"))?;
        if !cps.is_finite() || cps <= 0.0 {
            return Err(format!("row {i}: configs_per_sec = {cps} (must be finite and positive)"));
        }
    }
    if !require_scaling {
        return Ok(());
    }
    let kernel_of = |row| record::text(row, "kernel").unwrap_or("?");
    let mut kernels: Vec<&str> = Vec::new();
    for k in rows.iter().map(kernel_of) {
        if !kernels.contains(&k) {
            kernels.push(k);
        }
    }
    for kernel in kernels {
        let mine = || rows.iter().filter(|&r| kernel_of(r) == kernel);
        let cps_at = |t| {
            let at = mine().rev().find(|&r| record::num(r, "threads") == Some(t));
            at.and_then(|r| record::num(r, "configs_per_sec"))
        };
        let cores = mine().find_map(|r| record::num(r, "host_cores")).unwrap_or(1.0) as usize;
        let (Some(t1), Some(t8)) = (cps_at(1.0), cps_at(8.0)) else {
            return Err(format!("{kernel}: need threads=1 and threads=8 rows for the scaling gate"));
        };
        if cores < 2 {
            println!(
                "BENCH check: {kernel}: scaling gate skipped \
                 (rows measured on a {cores}-core host; t1={t1:.0}, t8={t8:.0} configs/s)"
            );
        } else if t8 <= t1 {
            return Err(format!(
                "{kernel}: threads=8 ({t8:.0} configs/s) does not beat \
                 threads=1 ({t1:.0} configs/s) on a {cores}-core host"
            ));
        } else {
            println!("BENCH check: {kernel}: scaling ok ({:.2}x at 8 threads)", t8 / t1);
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = flag_value(&args, "--check") {
        let require_scaling = args.iter().any(|a| a == "--require-scaling");
        record::DSE.check_or_exit(path, |rows| gate(rows, require_scaling));
        return;
    }
    let kernels = flag_value(&args, "--kernels");
    let out = flag_value(&args, "--out");
    let grid = flag_value(&args, "--grid").unwrap_or("fine");
    let reps = flag_value(&args, "--reps")
        .map(|r| r.parse::<usize>().expect("--reps takes a positive integer"))
        .unwrap_or(5);
    let verbose = args.iter().any(|a| a == "--verbose");
    let traced = match flag_value(&args, "--trace-out") {
        Some(path) => {
            let sample = flag_value(&args, "--trace-sample")
                .map(|n| n.parse::<u64>().expect("--trace-sample takes a positive integer"))
                .unwrap_or(1);
            let file = std::fs::File::create(path).expect("create --trace-out file");
            flexcl_obs::trace::install(Box::new(file), sample)
        }
        None => false,
    };
    if args.iter().any(|a| a == "--bench-only") {
        record::DSE.write(&bench_sweeps(kernels, grid, reps, verbose), out);
        if traced {
            flexcl_obs::trace::shutdown();
        }
        return;
    }
    let platform = Platform::virtex7_adm7v3();
    let mut rows = Vec::new();
    let mut flexcl_optimal = 0usize;
    let mut stepwise_optimal = 0usize;
    let mut total = 0usize;
    let mut gaps = Vec::new();
    let mut speedups = Vec::new();
    let mut speed_ratio = Vec::new();

    println!("Design-space exploration (PolyBench)");
    println!("{:-<100}", "");
    println!(
        "{:<26} {:>7} {:>9} {:>9} {:>9} {:>10} {:>12} {:>10}",
        "Kernel", "points", "gap", "speedup", "FlexCL t", "Synth est", "explore spd", "stepwise"
    );
    println!("{:-<100}", "");

    for spec in polybench() {
        let sweep = sweep_kernel(&spec, &platform, Scale::Test);
        if sweep.records.is_empty() {
            continue;
        }
        total += 1;

        // Ground-truth optimum and FlexCL's pick.
        let sim_best = sweep
            .records
            .iter()
            .min_by(|a, b| a.system_cycles.total_cmp(&b.system_cycles))
            .expect("non-empty");
        let flexcl_pick = sweep
            .records
            .iter()
            .min_by(|a, b| a.flexcl_cycles.total_cmp(&b.flexcl_cycles))
            .expect("non-empty");
        let gap =
            (flexcl_pick.system_cycles - sim_best.system_cycles) / sim_best.system_cycles;
        gaps.push(gap);
        // "Optimal" within the System Run's synthesis-variance noise floor
        // (per-op implementation factors move a measurement by a few
        // percent, so near-ties are genuine ties).
        if gap < 0.05 {
            flexcl_optimal += 1;
        }

        // Speedup of the best point over the unoptimized baseline.
        let baseline = sweep
            .records
            .iter()
            .filter(|r| {
                !r.config.work_item_pipeline
                    && r.config.num_pes == 1
                    && r.config.num_cus == 1
                    && r.config.vector_width == 1
            })
            .map(|r| r.system_cycles)
            .fold(0f64, f64::max);
        let speedup = baseline / sim_best.system_cycles;
        speedups.push(speedup);

        // Stepwise coarse-grained search (HPCA'16).
        let func = compile(&spec);
        let workload = spec.workload(Scale::Test, 1234);
        let limits = flexcl_core::limits_for(&func, &workload);
        let space = flexcl_core::enumerate(&limits);
        let analysis = KernelAnalysis::analyze(&func, &platform, &workload, (64, 1))
            .or_else(|_| KernelAnalysis::analyze(&func, &platform, &workload, (8, 8)))
            .expect("analysis");
        let stepwise_pick = flexcl_baselines::coarse::stepwise_search(&analysis, &space)
            .expect("stepwise");
        let stepwise_sim = sweep
            .records
            .iter()
            .find(|r| r.config == stepwise_pick)
            .map_or(f64::INFINITY, |r| r.system_cycles);
        let stepwise_gap = (stepwise_sim - sim_best.system_cycles) / sim_best.system_cycles;
        let stepwise_is_optimal = stepwise_gap < 0.05;
        if stepwise_is_optimal {
            stepwise_optimal += 1;
        }

        // Exploration speed: measured model time vs extrapolated synthesis.
        let synth_secs = sweep.records.len() as f64 * SYNTHESIS_HOURS_PER_DESIGN * 3600.0;
        let ratio = synth_secs / sweep.flexcl_time.as_secs_f64().max(1e-9);
        speed_ratio.push(ratio);

        println!(
            "{:<26} {:>7} {:>8.1}% {:>8.1}x {:>8.1}s {:>8.0} h {:>11.0}x {:>10}",
            sweep.name,
            sweep.records.len(),
            gap * 100.0,
            speedup,
            sweep.flexcl_time.as_secs_f64(),
            synth_secs / 3600.0,
            ratio,
            if stepwise_is_optimal { "optimal" } else { "local opt" },
        );
        rows.push(format!(
            "{},{},{:.4},{:.2},{:.3},{:.0},{:.0},{}",
            sweep.name,
            sweep.records.len(),
            gap,
            speedup,
            sweep.flexcl_time.as_secs_f64(),
            synth_secs,
            ratio,
            stepwise_is_optimal
        ));
    }

    println!("{:-<100}", "");
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "FlexCL pick within {:.1}% of optimum on average (paper: 2.1%); optimal picks: {}/{} = {:.0}% (paper: 96%)",
        avg(&gaps) * 100.0,
        flexcl_optimal,
        total,
        100.0 * flexcl_optimal as f64 / total.max(1) as f64
    );
    println!(
        "Stepwise [16] optimal picks: {}/{} = {:.0}% (paper: 12%)",
        stepwise_optimal,
        total,
        100.0 * stepwise_optimal as f64 / total.max(1) as f64
    );
    println!(
        "Best-vs-baseline speedup: {:.0}x average (paper: 273x at full workload scale)",
        avg(&speedups)
    );
    println!(
        "Exploration speedup over synthesis-based System Run: {:.0}x average (paper: >10,000x)",
        avg(&speed_ratio)
    );
    write_csv(
        "dse_polybench.csv",
        "kernel,points,gap_to_optimal,speedup_over_baseline,flexcl_seconds,\
         synthesis_seconds_extrapolated,exploration_speedup,stepwise_optimal",
        &rows,
    );
    record::DSE.write(&bench_sweeps(kernels, grid, reps, verbose), out);
    if traced {
        flexcl_obs::trace::shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_bench_file_passes_the_tier1_check() {
        let dse = record::DSE;
        dse.check(&dse.committed(), |rows| gate(rows, true)).unwrap_or_else(|e| panic!("{e}"));
    }
}
