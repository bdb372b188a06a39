//! End-to-end and per-layer benchmark of the FlexCL explorer and server.
//!
//! ```text
//! perfbench --workload <cold_std|warm_fine|served_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run
//! (which first repeats the untraced run as its overhead baseline).
//! See `perfbench/README.md` for the workloads and metric definitions.

mod library;
mod report;
mod served;

use flexcl_serve::json::{self, Json};
use report::{print_record, result_line, Checks, KindCounts, Metrics, Reported};
use std::path::PathBuf;

/// The benchmark's description; the metrics a run reports, with their
/// units, are the ones it declares.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Names and units of the `end_to_end` (untraced) or `per_layer`
/// (traced) metrics declared in `BENCHMARK.json`.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let spec = json::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let Some(Json::Arr(list)) = spec.get(key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: {key} entry without name or unit"))
        })
        .collect()
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let args = Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The declared metrics with the run's values, in declared order. A
/// missing end-to-end metric fails the run. `BENCHMARK.json` declares one
/// per-layer list for all workloads and every traced result carries all
/// of it, so a layer the workload does not exercise reads 0, and the run
/// lists it as such.
fn report(
    m: &Metrics,
    declared: Vec<(String, String)>,
    trace: bool,
    checks: &mut Checks,
) -> Vec<Reported> {
    let mut absent = Vec::new();
    let out: Vec<Reported> = declared
        .into_iter()
        .map(|(name, unit)| {
            let value = m.get(&name).unwrap_or_else(|| {
                absent.push(name.clone());
                0.0
            });
            Reported { name, value, unit }
        })
        .collect();
    if trace && !absent.is_empty() {
        println!(
            "not exercised by this workload (reported as 0): {}",
            absent.join(", ")
        );
    }
    if !trace {
        checks.require(absent.is_empty(), || {
            format!("end-to-end metrics missing: {}", absent.join(", "))
        });
    }
    checks.require(out.iter().all(|m| m.value.is_finite()), || {
        "a metric is not a finite number".into()
    });
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let declared = match declared_metrics(args.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(".bench_scratch");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let mut checks = Checks::default();
    let mut kinds = KindCounts::default();
    let out = match args.workload.as_str() {
        "cold_std" => library::run(library::Kind::ColdStd, &args, &mut checks, &mut kinds),
        "warm_fine" => library::run(library::Kind::WarmFine, &args, &mut checks, &mut kinds),
        "served_mix" => served::run(&args, &scratch, &mut checks, &mut kinds),
        w => {
            eprintln!("perfbench: unknown workload {w} (cold_std, warm_fine, served_mix)");
            std::process::exit(2);
        }
    };
    print_record(
        &args.workload,
        args.seed,
        args.trace,
        &scratch,
        &kinds,
        out.probe_ms,
    );
    let metrics = report(&out.metrics, declared, args.trace, &mut checks);
    println!(
        "{}",
        result_line(checks.ok() && out.failed == 0, &out, &metrics)
    );
}
