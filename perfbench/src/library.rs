//! The library workloads. `cold_std` explores kernels the tool has never
//! seen on the standard grid; `warm_fine` re-sweeps known kernels on the
//! fine grid with every analysis already cached. Both go through
//! [`sweep`], the benchmark's one sweep call.

use crate::report::{
    mean, median, nproc, peak_rss_mb, print_layer_table, reset_peak_rss, sorted, Checks,
    HostProbe, KindCounts, Layers, Metrics, Outcome, Pct, Rng, Row, Timer,
};
use crate::Args;
use flexcl_core::analysis::{coarsen_trace, trace_to_group_bursts, COARSEN_CANDIDATES};
use flexcl_core::config::{ConfigSpace, SweepGrid};
use flexcl_core::dse::limits_for;
use flexcl_core::{
    estimate_area, explore_space_cached, AnalysisCache, AnalysisScratch, DseOptions, DseResult,
    DseStats, EvalContext, FlexclError, KernelAnalysis, OptimizationConfig, Platform, ProfileFuel,
    Workload,
};
use flexcl_interp::{GroupSampling, NdRange, RunOptions};
use flexcl_ir::Function;
use flexcl_kernels::Scale;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the suite's input generators (inputs are fixed; the run seed
/// only orders the requests).
const INPUT_SEED: u64 = 7;

/// The `warm_fine` working set: eight 1-D kernels (364,800-point fine
/// spaces), three 2-D kernels (635,520 points) and one iterative stencil
/// (1,906,560 points). The 1-D share puts the median well inside the
/// 1-D cluster.
const WARM_SET: [&str; 12] = [
    "backprop/layer",
    "bfs/bfs_1",
    "cfd/compute",
    "hybridsort/count",
    "kmeans/center",
    "nn/nn",
    "particlefilter/sum",
    "polybench/atax",
    "gaussian/fan2",
    "leukocyte/gicov",
    "polybench/gemm",
    "polybench/jacobi2d",
];

/// Suite kernels `cold_std` leaves out: their cold standard-grid sweeps
/// take 0.15-0.6 s each, three quarters of a pass over the whole suite.
/// Without them a pass takes about a second, so a run holds many passes
/// and its median rests on many samples of each kernel near it.
const COLD_LEFT_OUT: [&str; 22] = [
    "backprop/adjust",
    "backprop/layer",
    "hotspot3D/hotspot3D",
    "hybridsort/prefix",
    "hybridsort/sort",
    "kmeans/center",
    "lavaMD/lavaMD",
    "lud/perimeter",
    "particlefilter/find_index",
    "polybench/atax",
    "polybench/bicg",
    "polybench/correlation",
    "polybench/covariance",
    "polybench/gemm",
    "polybench/gemver",
    "polybench/gesummv",
    "polybench/gramschmidt",
    "polybench/mm2",
    "polybench/mm3",
    "polybench/mvt",
    "polybench/syr2k",
    "polybench/syrk",
];

/// Fine-grid points decoded, estimated and area-checked per traced
/// `warm_fine` request by the config/eval/area probes.
const PROBE_POINTS: usize = 8192;

/// Analysis-cache capacity for `warm_fine`: well above the working set's
/// 8-12 families per kernel, so nothing is evicted.
const WARM_CACHE_CAP: usize = 4096;

/// One kernel at a fixed NDRange.
pub struct Case {
    pub name: String,
    pub src: &'static str,
    pub kernel: &'static str,
    pub workload: Workload,
}

fn suite_cases(scale: Scale, keep: impl Fn(&str) -> bool) -> Vec<Case> {
    flexcl_kernels::all()
        .into_iter()
        .filter(|s| keep(&s.full_name()))
        .map(|s| Case {
            name: s.full_name(),
            src: s.source,
            kernel: s.kernel,
            workload: s.workload(scale, INPUT_SEED),
        })
        .collect()
}

/// Parses and lowers a case's kernel (`frontend`, `ir`).
pub fn compile(case: &Case, layers: &mut Layers) -> Result<Function, String> {
    let program = layers
        .time("frontend.parse", || {
            flexcl_frontend::parse_and_check(case.src)
        })
        .map_err(|e| format!("{}: {e}", case.name))?;
    let def = program
        .kernel(case.kernel)
        .ok_or_else(|| format!("{}: no kernel", case.name))?;
    layers
        .time("ir.lower", || flexcl_ir::lower_kernel(def))
        .map_err(|e| format!("{}: {e}", case.name))
}

/// The benchmark's one sweep call, shared by `cold_std` and `warm_fine`.
pub fn sweep(
    func: &Function,
    platform: &Platform,
    workload: &Workload,
    grid: &SweepGrid,
    opts: DseOptions,
    cache: &AnalysisCache,
) -> Result<DseResult, FlexclError> {
    explore_space_cached(func, platform, workload, grid, opts, None, cache)
}

/// Every library sweep must be clean and cover its whole `ConfigSpace`.
fn check_sweep(checks: &mut Checks, case: &Case, func: &Function, grid: &SweepGrid, r: &DseResult) {
    let expected = ConfigSpace::new(&limits_for(func, &case.workload), grid).len();
    checks.require(r.diagnostics.is_clean(), || {
        format!("{}: diagnostics {}", case.name, r.diagnostics)
    });
    checks.require(r.points.len() == expected, || {
        format!(
            "{}: {} points, space has {expected}",
            case.name,
            r.points.len()
        )
    });
    checks.require(r.best().is_some(), || {
        format!("{}: no feasible point", case.name)
    });
}

/// Sums the `DseStats` of a run's sweeps.
#[derive(Default)]
pub struct DseTotals {
    sweeps: u64,
    thread_ms: f64,
    stats: Vec<DseStats>,
}

impl DseTotals {
    pub fn add(&mut self, r: &DseResult, threads: usize) {
        self.sweeps += 1;
        self.thread_ms += r.elapsed.as_secs_f64() * 1e3 * threads as f64;
        self.stats.push(r.stats);
    }

    fn sum(&self, f: impl Fn(&DseStats) -> u64) -> f64 {
        self.stats.iter().map(|s| f(s) as f64).sum()
    }

    fn per_sweep(&self, total: f64) -> f64 {
        if self.sweeps == 0 {
            0.0
        } else {
            total / self.sweeps as f64
        }
    }

    fn ratio(hits: f64, misses: f64) -> f64 {
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }
}

/// Times the analysis' public building blocks on one family, outside
/// the request: the stratified profile, base burst grouping, coarsening
/// merge-and-regroup per factor, and the whole `analyze_interned`.
fn probe_analysis(
    func: &Arc<Function>,
    platform: &Arc<Platform>,
    workload: &Workload,
    wg: (u32, u32),
    layers: &mut Layers,
) -> Option<Arc<KernelAnalysis>> {
    let fuel = ProfileFuel::default();
    let nd = NdRange {
        global: [workload.global.0, workload.global.1, 1],
        local: [u64::from(wg.0), u64::from(wg.1), 1],
    };
    let opts = RunOptions {
        profile_groups: Some(nd.num_groups().min(fuel.group_budget.max(1))),
        profile_sampling: GroupSampling::Stratified,
        step_limit: fuel.step_limit,
        trace_limit: fuel.trace_limit,
        ..RunOptions::default()
    };
    let mut args = workload.args.clone();
    let profile = layers
        .time("interp.profile", || {
            flexcl_interp::run(func, &mut args, nd, opts)
        })
        .ok()?;
    layers.add("interp.trace_len", 0, profile.trace.len() as u64);
    let unit = platform.mem_access_unit_bits / 8;
    std::hint::black_box(layers.time("analysis.burst", || {
        trace_to_group_bursts(&profile.trace, unit)
    }));
    let wg_size = u64::from(wg.0) * u64::from(wg.1);
    let t = Instant::now();
    for cf in COARSEN_CANDIDATES
        .into_iter()
        .filter(|cf| wg_size % u64::from(*cf) == 0)
    {
        let merged = coarsen_trace(&profile.trace, cf);
        std::hint::black_box(trace_to_group_bursts(&merged, unit));
    }
    if layers.on() {
        layers.add("analysis.coarsen", t.elapsed().as_nanos() as u64, 1);
    }
    let analysis = layers.time("analysis.total", || {
        KernelAnalysis::analyze_interned(
            Arc::clone(func),
            Arc::clone(platform),
            workload,
            wg,
            fuel,
            &mut AnalysisScratch::new(),
        )
    });
    analysis.ok().map(Arc::new)
}

/// The probes of a cold request: every family's analysis building
/// blocks, and evaluation on the first family.
pub fn probe_cold(
    func: &Arc<Function>,
    platform: &Arc<Platform>,
    workload: &Workload,
    space: &ConfigSpace,
    layers: &mut Layers,
) {
    for fam in 0..space.family_count() {
        let wg = space.family_work_group(fam);
        let a = probe_analysis(func, platform, workload, wg, layers);
        if let (0, Some(a)) = (fam, a) {
            probe_eval(&a, space, 0, PROBE_POINTS, layers);
        }
    }
}

/// Times config decode, estimation and area over up to `max` points of
/// family `f` (whose work-group `analysis` was built for).
fn probe_eval(
    analysis: &KernelAnalysis,
    space: &ConfigSpace,
    f: usize,
    max: usize,
    layers: &mut Layers,
) {
    let n = space.family_len(f).min(max);
    let mut decoded: Vec<(usize, OptimizationConfig)> = Vec::with_capacity(n);
    let t = Instant::now();
    space.fill_family_range(f, 0, n, &mut decoded);
    layers.add("config.decode", t.elapsed().as_nanos() as u64, n as u64);
    let mut ctx = EvalContext::new(analysis);
    let t = Instant::now();
    for (_, cfg) in &decoded {
        let _ = std::hint::black_box(ctx.estimate(cfg));
    }
    layers.add("eval.estimate", t.elapsed().as_nanos() as u64, n as u64);
    let t = Instant::now();
    for (_, cfg) in &decoded {
        std::hint::black_box(estimate_area(analysis, cfg));
    }
    layers.add("area.estimate", t.elapsed().as_nanos() as u64, n as u64);
}

/// The best point of a case's first sweep in the timed window.
#[derive(Clone)]
struct Best {
    func: Arc<Function>,
    config: OptimizationConfig,
    cycles: f64,
}

/// Mean |model − sim| / sim in percent over the best point of each
/// distinct sweep, against the `flexcl-sim` system run.
fn model_err_pct(
    checks: &mut Checks,
    platform: &Platform,
    cases: &[Case],
    bests: &[Option<Best>],
) -> f64 {
    let mut errs = Vec::new();
    for (case, best) in cases.iter().zip(bests) {
        let Some(b) = best else { continue };
        let sim = flexcl_sim::system_run(
            &b.func,
            platform,
            &case.workload,
            &b.config,
            flexcl_sim::SimOptions::default(),
        );
        match sim {
            Ok(sim) => errs.push((b.cycles - sim.cycles).abs() / sim.cycles * 100.0),
            Err(e) => checks.require(false, || format!("{}: system run failed: {e}", case.name)),
        }
    }
    checks.require(!errs.is_empty(), || {
        "no sweep to check against flexcl-sim".into()
    });
    println!("model_err_pct over {} distinct sweeps", errs.len());
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// What a timed phase did.
struct Window {
    done: Vec<Done>,
    /// Request time, seconds.
    elapsed: f64,
    /// Requests that failed.
    dropped: usize,
    /// Peak RSS of each pass, MiB.
    pass_peak_mb: Vec<f64>,
}

/// Per-request record of a timed phase.
struct Done {
    item: usize,
    wall_ms: f64,
    configs: usize,
}

/// A library workload: its cases, grid, options and analysis store.
struct Plan {
    cases: Vec<Case>,
    funcs: Vec<Option<Arc<Function>>>,
    grid: SweepGrid,
    opts: DseOptions,
    cache: AnalysisCache,
    platform: Platform,
}

impl Plan {
    fn request(
        &self,
        i: usize,
        layers: &mut Layers,
        checks: &mut Checks,
        dse: &mut DseTotals,
    ) -> Option<(DseResult, Arc<Function>)> {
        let case = &self.cases[i];
        // `warm_fine` compiled its kernels in set-up; `cold_std` compiles
        // inside every request.
        let func = match &self.funcs[i] {
            Some(f) => Arc::clone(f),
            None => match compile(case, layers) {
                Ok(f) => Arc::new(f),
                Err(e) => {
                    checks.require(false, || e);
                    return None;
                }
            },
        };
        let r = layers.time("dse.sweep", || {
            sweep(
                &func,
                &self.platform,
                &case.workload,
                &self.grid,
                self.opts,
                &self.cache,
            )
        });
        match r {
            Ok(r) => {
                check_sweep(checks, case, &func, &self.grid, &r);
                dse.add(&r, self.opts.threads);
                Some((r, func))
            }
            Err(e) => {
                checks.require(false, || format!("{}: sweep failed: {e}", case.name));
                None
            }
        }
    }

    /// Seeded passes over every case until `seconds` is nearly spent
    /// (at least `min_passes`); only whole passes run, so every run
    /// weighs the cases alike. `after` and the host probe run after each
    /// request and `between` after each pass (with the request time so
    /// far), all outside the timings.
    #[allow(clippy::too_many_arguments)]
    fn timed_passes(
        &self,
        seed: u64,
        seconds: f64,
        min_passes: u64,
        layers: &mut Layers,
        checks: &mut Checks,
        dse: &mut DseTotals,
        probe: &mut HostProbe,
        mut after: impl FnMut(usize, &DseResult, &Arc<Function>, &mut Layers),
        between: &mut dyn FnMut(&mut Checks, f64),
    ) -> Window {
        let mut done = Vec::new();
        let mut dropped = 0;
        let mut elapsed = 0.0;
        let mut pass_peak_mb = Vec::new();
        for pass in 0u64.. {
            reset_peak_rss();
            let mut order: Vec<usize> = (0..self.cases.len()).collect();
            Rng::new(seed.wrapping_mul(0x1_0000_0001).wrapping_add(pass)).shuffle(&mut order);
            let start = Instant::now();
            let mut outside = 0.0;
            for &i in &order {
                let t = Instant::now();
                let r = self.request(i, layers, checks, dse);
                let wall_ms = t.elapsed().as_secs_f64() * 1e3;
                let Some((r, func)) = r else {
                    dropped += 1;
                    continue;
                };
                done.push(Done {
                    item: i,
                    wall_ms,
                    configs: r.points.len(),
                });
                let t = Instant::now();
                after(i, &r, &func, layers);
                probe.tick();
                outside += t.elapsed().as_secs_f64();
            }
            let pass_s = start.elapsed().as_secs_f64() - outside;
            elapsed += pass_s;
            pass_peak_mb.push(peak_rss_mb());
            if pass + 1 >= min_passes && elapsed + pass_s / 2.0 >= seconds {
                break;
            }
            between(checks, elapsed);
        }
        Window {
            done,
            elapsed,
            dropped,
            pass_peak_mb,
        }
    }
}

/// Which library workload to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdStd,
    WarmFine,
}

/// Set-up repetitions per run; `setup_s` is their median. The first
/// builds the plan the run uses; the others are spread over the timed
/// window (between passes, outside their timings), so the median samples
/// the host across the run.
fn setup_reps(kind: Kind) -> usize {
    match kind {
        Kind::ColdStd => 21,
        Kind::WarmFine => 5,
    }
}

/// Fewest timed passes: enough requests for 10 samples beyond the tail
/// percentile (p90 of 38 per pass; p75 of 12 per pass), however slow
/// the host.
fn min_passes(kind: Kind) -> u64 {
    match kind {
        Kind::ColdStd => 3,
        Kind::WarmFine => 4,
    }
}

/// Everything else before the first timed request: the suite inputs
/// and, for `warm_fine`, compiling the working set and placing every
/// fine-grid family's analysis in the shared cache.
fn set_up(kind: Kind, layers: &mut Layers, checks: &mut Checks) -> Plan {
    let platform = Platform::virtex7_adm7v3();
    let threads = nproc();
    let cases = match kind {
        Kind::ColdStd => suite_cases(Scale::Test, |n| !COLD_LEFT_OUT.contains(&n)),
        Kind::WarmFine => suite_cases(Scale::Test, |n| WARM_SET.contains(&n)),
    };
    let expected = match kind {
        Kind::ColdStd => flexcl_kernels::all().len() - COLD_LEFT_OUT.len(),
        Kind::WarmFine => WARM_SET.len(),
    };
    checks.require(cases.len() == expected, || {
        "a workload kernel is missing from the suite".into()
    });
    let mut plan = Plan {
        funcs: vec![None; cases.len()],
        cases,
        grid: match kind {
            Kind::ColdStd => SweepGrid::standard(),
            Kind::WarmFine => SweepGrid::fine(),
        },
        opts: match kind {
            // Capacity 0 is the explorer's no-reuse mode: every family
            // of every request is analyzed from scratch.
            Kind::ColdStd => DseOptions {
                threads,
                analysis_cache_cap: 0,
                ..DseOptions::default()
            },
            Kind::WarmFine => DseOptions {
                threads,
                analysis_cache_cap: WARM_CACHE_CAP,
                ..DseOptions::default()
            },
        },
        cache: AnalysisCache::new(),
        platform,
    };
    if kind == Kind::WarmFine {
        // One point per family: every fine-grid family gets analyzed.
        let warm_grid = SweepGrid {
            pes: vec![1],
            cus: vec![1],
            vector_widths: vec![1],
            coarsen_factors: vec![1],
            temporal_depths: vec![1],
            ..SweepGrid::fine()
        };
        for (i, case) in plan.cases.iter().enumerate() {
            let func = match compile(case, layers) {
                Ok(f) => Arc::new(f),
                Err(e) => {
                    checks.require(false, || e);
                    continue;
                }
            };
            let warm = sweep(
                &func,
                &plan.platform,
                &case.workload,
                &warm_grid,
                plan.opts,
                &plan.cache,
            );
            checks.require(warm.is_ok(), || {
                format!("{}: warm-up sweep failed", case.name)
            });
            plan.funcs[i] = Some(func);
        }
    }
    plan
}

pub fn run(kind: Kind, args: &Args, checks: &mut Checks, kinds: &mut KindCounts) -> Outcome {
    let mut probe = HostProbe::start();
    // The DRAM micro-benchmark profile is process-wide and cached, so
    // only its first call does the work; every set-up is charged for it.
    let mut setup_layers = Layers::new(args.trace);
    let t = Instant::now();
    setup_layers.time("dram.microbench", || {
        flexcl_dram::microbench::profile_cached(Platform::virtex7_adm7v3().dram)
    });
    let microbench_s = t.elapsed().as_secs_f64();
    let timed_set_up = |layers: &mut Layers, checks: &mut Checks| {
        let t = Instant::now();
        let plan = set_up(kind, layers, checks);
        (plan, t.elapsed().as_secs_f64() + microbench_s)
    };
    let (plan, first) = timed_set_up(&mut setup_layers, checks);
    let mut times = vec![first];
    let reps = setup_reps(kind);
    let threads = plan.opts.threads;
    let cases = &plan.cases;
    println!(
        "{} cases, {threads} sweep threads; {reps} set-ups spread over the window",
        cases.len()
    );
    let platform_arc = Arc::new(plan.platform.clone());

    // Untraced timed phase: the end-to-end metrics come only from here.
    let mut quiet = Layers::new(false);
    let mut dse = DseTotals::default();
    let mut bests: Vec<Option<Best>> = vec![None; cases.len()];
    let mut more_setups = |checks: &mut Checks, until: usize| {
        while times.len() < until {
            times.push(timed_set_up(&mut setup_layers, checks).1);
        }
    };
    let Window {
        done,
        elapsed,
        dropped,
        pass_peak_mb,
    } = plan.timed_passes(
        args.seed,
        args.seconds,
        min_passes(kind),
        &mut quiet,
        checks,
        &mut dse,
        &mut probe,
        |i, r, f, _| {
            if bests[i].is_none() {
                bests[i] = r.best().map(|b| Best {
                    func: Arc::clone(f),
                    config: b.config,
                    cycles: b.estimate.cycles,
                });
            }
        },
        &mut |checks, elapsed| {
            let due = 1 + (elapsed / args.seconds * reps as f64) as usize;
            more_setups(checks, due.min(reps));
        },
    );
    let rss_mb = mean(&pass_peak_mb);
    println!("peak RSS per pass: mean {rss_mb:.1} MiB of {pass_peak_mb:.1?}");
    more_setups(checks, reps);
    let setup_s = median(&times);
    println!("setup {setup_s:.3} s (median of {times:.3?})");
    let lat = sorted(done.iter().map(|s| s.wall_ms).collect());
    let p50 = Pct::of(&lat, 0.5);
    let tail = Pct::of(&lat, if kind == Kind::ColdStd { 0.9 } else { 0.75 });
    checks.percentile("latency", &p50);
    checks.percentile("latency", &tail);
    let requests = done.len();
    let configs: usize = done.iter().map(|s| s.configs).sum();
    let label = if kind == Kind::ColdStd {
        "cold"
    } else {
        "warm_fine"
    };
    for _ in 0..requests {
        kinds.add(label);
    }
    let attempted = (requests + dropped) as u64;
    println!(
        "timed {elapsed:.3} s: {requests} sweeps, {configs} configs, {:.2} sweeps/s, {:.0} configs/s",
        requests as f64 / elapsed,
        configs as f64 / elapsed
    );
    if kind == Kind::WarmFine {
        for s in &dse.stats {
            checks.require(s.analysis_cache_hit_rate() >= 1.0, || {
                format!(
                    "warm sweep analysis-cache hit rate {:.3} < 1",
                    s.analysis_cache_hit_rate()
                )
            });
        }
    }

    let mut metrics = Metrics::default();
    if !args.trace {
        let err = model_err_pct(checks, &plan.platform, cases, &bests);
        probe.print();
        let f = probe.to_reference();
        metrics.put("setup_s", setup_s * f);
        let throughput = match kind {
            Kind::ColdStd => requests as f64 / elapsed,
            Kind::WarmFine => configs as f64 / elapsed,
        };
        metrics.put("throughput_per_s", throughput / f);
        metrics.put("latency_p50_ms", p50.value * f);
        metrics.put("ok_frac", requests as f64 / attempted.max(1) as f64);
        metrics.put("model_err_pct", err);
        metrics.put("peak_rss_mb", rss_mb);
        return Outcome {
            attempted,
            failed: attempted - requests as u64,
            metrics,
            probe_ms: probe.median_ms(),
        };
    }

    // Traced phase: one more pass (a quarter of the window, at least one
    // whole pass) with the layer timers on, plus the probes between
    // requests. `warm_fine` first analyzes one family per case for its
    // evaluation probes.
    let mut layers = Layers::new(true);
    let mut probe_analyses: Vec<Option<Arc<KernelAnalysis>>> = vec![None; cases.len()];
    if kind == Kind::WarmFine {
        for (i, case) in cases.iter().enumerate() {
            if let Some(f) = &plan.funcs[i] {
                let space = ConfigSpace::new(&limits_for(f, &case.workload), &plan.grid);
                probe_analyses[i] = probe_analysis(
                    f,
                    &platform_arc,
                    &case.workload,
                    space.family_work_group(0),
                    &mut layers,
                );
            }
        }
    }
    let mut tdse = DseTotals::default();
    let traced = plan
        .timed_passes(
            args.seed,
            args.seconds / 4.0,
            1,
            &mut layers,
            checks,
            &mut tdse,
            &mut probe,
            |i, _, f, layers| {
                let space = ConfigSpace::new(&limits_for(f, &cases[i].workload), &plan.grid);
                match kind {
                    Kind::ColdStd => {
                        probe_cold(f, &platform_arc, &cases[i].workload, &space, layers)
                    }
                    Kind::WarmFine => {
                        if let Some(a) = &probe_analyses[i] {
                            probe_eval(a, &space, 0, PROBE_POINTS, layers);
                        }
                    }
                }
            },
            &mut |_, _| {},
        )
        .done;
    // The same items' wall time, untraced (median per item) vs traced.
    let mut untraced_by_item = vec![Vec::new(); cases.len()];
    for s in &done {
        untraced_by_item[s.item].push(s.wall_ms);
    }
    let base: f64 = traced
        .iter()
        .map(|s| median(&untraced_by_item[s.item]))
        .sum();
    let traced_ms: f64 = traced.iter().map(|s| s.wall_ms).sum();
    let overhead_pct = (traced_ms / base - 1.0) * 100.0;
    layer_metrics(
        &mut metrics,
        &layers,
        &setup_layers,
        &tdse,
        traced_ms,
        threads,
        overhead_pct,
    );
    metrics.put("latency.tail_ms", tail.value);
    Outcome {
        attempted,
        failed: attempted - requests as u64,
        metrics,
        probe_ms: probe.median_ms(),
    }
}

/// Per-layer metrics of a library workload's traced phase: the request
/// table and coverage, then [`library_layers`].
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    layers: &Layers,
    setup: &Layers,
    dse: &DseTotals,
    request_ms: f64,
    threads: usize,
    overhead_pct: f64,
) {
    let parse = layers.get("frontend.parse");
    let lower = layers.get("ir.lower");
    let analysis_ms = dse.sum(|s| s.analysis_nanos) / 1e6;
    let estimate_ms = dse.sum(|s| s.estimate_nanos) / 1e6;
    let sweep_ms = layers.get("dse.sweep").ms();
    let per_thread = |ms: f64| ms / threads as f64;
    print_layer_table(
        "request layers",
        &[
            Row {
                layer: "frontend.parse",
                calls: parse.calls,
                total_ms: parse.ms(),
                self_ms: parse.ms(),
            },
            Row {
                layer: "ir.lower",
                calls: lower.calls,
                total_ms: lower.ms(),
                self_ms: lower.ms(),
            },
            Row {
                layer: "dse.sweep",
                calls: dse.sweeps,
                total_ms: sweep_ms,
                self_ms: sweep_ms - per_thread(analysis_ms + estimate_ms),
            },
            Row {
                layer: "dse.analysis/thread",
                calls: dse.sweeps,
                total_ms: per_thread(analysis_ms),
                self_ms: per_thread(analysis_ms),
            },
            Row {
                layer: "dse.estimate/thread",
                calls: dse.sweeps,
                total_ms: per_thread(estimate_ms),
                self_ms: per_thread(estimate_ms),
            },
        ],
        ("request wall", request_ms),
    );
    let covered = parse.ms() + lower.ms() + (analysis_ms + estimate_ms) / threads as f64;
    let coverage = if request_ms > 0.0 {
        100.0 * covered.min(request_ms) / request_ms
    } else {
        0.0
    };
    println!(
        "coverage {coverage:.1}% of request wall time (parse + lower + per-thread dse analysis and estimate)"
    );
    library_layers(m, layers, setup, dse);
    m.put("obs.trace_overhead_pct", overhead_pct);
    m.put("trace.coverage_pct", coverage);
}

/// Metrics of the library layers, `frontend` to `area`, from the layer
/// timers and the sweeps' `DseStats`. Set-up calls count towards the
/// per-call means of parse and lower (`warm_fine` compiles only there).
pub fn library_layers(m: &mut Metrics, layers: &Layers, setup: &Layers, dse: &DseTotals) {
    let profile = layers.get("interp.profile");
    let burst = layers.get("analysis.burst");
    let coarsen = layers.get("analysis.coarsen");
    let total = layers.get("analysis.total");
    let other = total.ms() - profile.ms() - burst.ms() - coarsen.ms();
    let per_family = |ms: f64| {
        if total.calls == 0 {
            0.0
        } else {
            ms / total.calls as f64
        }
    };
    let analysis_ms = dse.sum(|s| s.analysis_nanos) / 1e6;
    let estimate_ms = dse.sum(|s| s.estimate_nanos) / 1e6;
    let unattributed = dse.thread_ms - analysis_ms - estimate_ms;
    let ns_per_point = |name: &str| {
        let t = layers.get(name);
        if t.calls == 0 {
            0.0
        } else {
            t.nanos as f64 / t.calls as f64
        }
    };
    print_layer_table(
        "analysis probes (between requests)",
        &[
            Row {
                layer: "analysis.total",
                calls: total.calls,
                total_ms: total.ms(),
                self_ms: other,
            },
            Row {
                layer: "interp.profile",
                calls: profile.calls,
                total_ms: profile.ms(),
                self_ms: profile.ms(),
            },
            Row {
                layer: "analysis.burst",
                calls: burst.calls,
                total_ms: burst.ms(),
                self_ms: burst.ms(),
            },
            Row {
                layer: "analysis.coarsen",
                calls: coarsen.calls,
                total_ms: coarsen.ms(),
                self_ms: coarsen.ms(),
            },
        ],
        ("analysis.total", total.ms()),
    );
    println!(
        "analysis.coarsen = {:.1}% of analysis.total; dse.unattributed = {:.1}% of sweep thread time; \
         analysis.other {}",
        100.0 * coarsen.ms() / total.ms().max(1e-9),
        100.0 * unattributed / dse.thread_ms.max(1e-9),
        if other < 0.0 { "NEGATIVE (probe timings exceed the whole analysis)" } else { "non-negative" }
    );

    let with_setup = |name: &str| {
        let (a, b) = (layers.get(name), setup.get(name));
        Timer {
            calls: a.calls + b.calls,
            nanos: a.nanos + b.nanos,
        }
    };
    m.put("frontend.parse_ms", with_setup("frontend.parse").mean_ms());
    m.put("ir.lower_ms", with_setup("ir.lower").mean_ms());
    m.put("interp.profile_ms", profile.mean_ms());
    m.put(
        "interp.trace_len",
        per_family(layers.get("interp.trace_len").calls as f64),
    );
    m.put("analysis.total_ms", total.mean_ms());
    m.put("analysis.burst_ms", per_family(burst.ms()));
    m.put("analysis.coarsen_ms", per_family(coarsen.ms()));
    m.put("analysis.other_ms", per_family(other));
    m.put(
        "analysis.coarsen_share",
        coarsen.ms() / total.ms().max(1e-9),
    );
    m.put(
        "analysis.families",
        dse.per_sweep(dse.sum(|s| s.analysis_cache_misses)),
    );
    m.put("dram.microbench_ms", setup.get("dram.microbench").ms());
    m.put("dse.analysis_ms", dse.per_sweep(analysis_ms));
    m.put("dse.estimate_ms", dse.per_sweep(estimate_ms));
    m.put("dse.unattributed_ms", dse.per_sweep(unattributed));
    m.put(
        "dse.unattributed_share",
        unattributed / dse.thread_ms.max(1e-9),
    );
    m.put(
        "dse.chunks",
        dse.per_sweep(dse.sum(|s| s.chunks_processed as u64)),
    );
    m.put("dse.steals", dse.per_sweep(dse.sum(|s| s.steals)));
    m.put(
        "dse.repaired_chunks",
        dse.per_sweep(dse.sum(|s| s.repaired_chunks as u64)),
    );
    m.put(
        "dse.analysis_cache_hit_rate",
        DseTotals::ratio(
            dse.sum(|s| s.analysis_cache_hits),
            dse.sum(|s| s.analysis_cache_misses),
        ),
    );
    m.put(
        "dse.points",
        dse.per_sweep(dse.sum(|s| s.points_evaluated as u64)),
    );
    m.put("sched.ms", dse.per_sweep(dse.sum(|s| s.sched_nanos) / 1e6));
    m.put(
        "sched.cache_hit_rate",
        DseTotals::ratio(
            dse.sum(|s| s.sched_cache_hits),
            dse.sum(|s| s.sched_cache_misses),
        ),
    );
    m.put("config.decode_ns_per_point", ns_per_point("config.decode"));
    m.put("eval.ns_per_point", ns_per_point("eval.estimate"));
    m.put("area.ns_per_point", ns_per_point("area.estimate"));
}
