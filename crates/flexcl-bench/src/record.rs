//! `BENCH_*.json` records: the one writer and checker behind every
//! benchmark binary's machine-readable output.
//!
//! A BENCH file is a JSON array of flat objects, one row per line so
//! diffs of the committed files stay readable. Each file has a
//! [`Schema`] here — its default file name, what its rows are called and
//! the keys every row carries, in emission order. Its binary writes rows
//! with [`Schema::write`] and validates a file with [`Schema::check`],
//! adding only its own gates (scaling, overhead ceilings, throughput
//! floors, …).
//!
//! Checking parses the whole file with the strict `flexcl_serve::json`
//! parser, so a truncated file, a stray comma or a non-finite number
//! (which the emitter would print as `NaN` or `inf`) fails the check
//! instead of slipping past a substring scan.

use flexcl_serve::json::{self, Json};
use std::path::{Path, PathBuf};

/// One cell of a BENCH row.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// A string, written JSON-escaped.
    Str(String),
    /// An exact count.
    Int(u64),
    /// A measurement and the number of decimals to write it with.
    Num(f64, usize),
    /// A flag.
    Bool(bool),
}

impl From<&str> for Field {
    fn from(s: &str) -> Field {
        Field::Str(s.to_string())
    }
}

impl From<u64> for Field {
    fn from(n: u64) -> Field {
        Field::Int(n)
    }
}

impl From<usize> for Field {
    fn from(n: usize) -> Field {
        Field::Int(n as u64)
    }
}

/// The shape of one BENCH file.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    /// File name at the repository root, used when no `--out` is given.
    pub file: &'static str,
    /// What a row is, for the empty-file message (`no {rows} rows`).
    pub rows: &'static str,
    /// Keys every row carries, in emission order.
    pub keys: &'static [&'static str],
}

impl Schema {
    /// Renders `rows` (each listing its values in [`Schema::keys`] order)
    /// as a BENCH document.
    ///
    /// # Panics
    ///
    /// Panics if a row's length differs from the key list — a bug in the
    /// calling binary, not a data error.
    pub fn render(&self, rows: &[Vec<Field>]) -> String {
        let mut body = String::from("[\n");
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), self.keys.len(), "{} row {i} does not match its keys", self.file);
            body.push_str("  {");
            for (j, (key, field)) in self.keys.iter().zip(row).enumerate() {
                if j > 0 {
                    body.push_str(", ");
                }
                json::push_escaped(&mut body, key);
                body.push_str(": ");
                match field {
                    Field::Str(s) => json::push_escaped(&mut body, s),
                    Field::Int(n) => body.push_str(&n.to_string()),
                    Field::Num(v, decimals) => body.push_str(&format!("{v:.decimals$}")),
                    Field::Bool(b) => body.push_str(if *b { "true" } else { "false" }),
                }
            }
            body.push('}');
            if i + 1 < rows.len() {
                body.push(',');
            }
            body.push('\n');
        }
        body.push_str("]\n");
        body
    }

    /// Writes `rows` to `out`, or to [`Schema::file`] at the repository
    /// root, and prints where they went.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write(&self, rows: &[Vec<Field>], out: Option<&str>) {
        let path = PathBuf::from(out.map_or_else(|| self.committed(), str::to_string));
        std::fs::write(&path, self.render(rows))
            .unwrap_or_else(|e| panic!("write {}: {e}", self.file));
        println!("wrote {}", path.display());
    }

    /// Path of the committed file, [`Schema::file`] at the repository root.
    pub fn committed(&self) -> String {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(self.file).display().to_string()
    }

    /// Reads and validates the BENCH file at `path`: a JSON array of at
    /// least one object, every object carrying every key, then `gate` over
    /// the rows. Returns the row count, or the failure message.
    ///
    /// # Errors
    ///
    /// The file is unreadable, is not a JSON array of objects, is empty,
    /// misses a key, or fails `gate`.
    pub fn check(
        &self,
        path: &str,
        gate: impl FnOnce(&[Json]) -> Result<(), String>,
    ) -> Result<usize, String> {
        let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        self.check_body(&body, gate).map_err(|msg| format!("{path}: {msg}"))
    }

    /// [`Schema::check`] as a binary's `--check` mode: prints the verdict
    /// and exits non-zero on failure.
    pub fn check_or_exit(&self, path: &str, gate: impl FnOnce(&[Json]) -> Result<(), String>) {
        match self.check(path, gate) {
            Ok(n) => println!("BENCH check: {path}: {n} rows ok"),
            Err(msg) => {
                eprintln!("BENCH check: {msg}");
                std::process::exit(1);
            }
        }
    }

    fn check_body(
        &self,
        body: &str,
        gate: impl FnOnce(&[Json]) -> Result<(), String>,
    ) -> Result<usize, String> {
        let Json::Arr(rows) = json::parse(body).map_err(|e| format!("not valid JSON: {e}"))? else {
            return Err("not a JSON array of rows".to_string());
        };
        if rows.is_empty() {
            return Err(format!("no {} rows", self.rows));
        }
        for (i, row) in rows.iter().enumerate() {
            if !matches!(row, Json::Obj(_)) {
                return Err(format!("row {i} is not an object"));
            }
            if let Some(key) = self.keys.iter().find(|k| row.get(k).is_none()) {
                return Err(format!("row {i} is missing key \"{key}\""));
            }
        }
        gate(&rows)?;
        Ok(rows.len())
    }
}

/// `BENCH_dse.json` (`dse --bench-only`): model-only sweep throughput per
/// kernel and thread count.
pub const DSE: Schema = Schema {
    file: "BENCH_dse.json",
    rows: "benchmark",
    keys: &[
        "kernel", "points", "threads", "grid", "reps", "chunk_size", "chunks", "steals",
        "repaired_chunks", "host_cores", "elapsed_ms", "configs_per_sec", "analysis_ms",
        "estimate_ms", "sched_ms", "analysis_cache_hit_rate", "sched_cache_hit_rate",
    ],
};

/// `BENCH_accuracy.json` (`triage`): per-kernel model-vs-sim accuracy
/// with the worst point's error attribution.
pub const ACCURACY: Schema = Schema {
    file: "BENCH_accuracy.json",
    rows: "accuracy",
    keys: &[
        "kernel", "suite", "points", "mean_abs_err_pct", "max_abs_err_pct", "worst_config",
        "worst_err_pct", "worst_err_comp_pct", "worst_err_mem_pct", "worst_err_overhead_pct",
    ],
};

/// `BENCH_obs.json` (`obs_bench`): tracing overhead and traced serve
/// latency.
pub const OBS: Schema = Schema {
    file: "BENCH_obs.json",
    rows: "benchmark",
    keys: &[
        "mode", "kernel", "grid", "points", "threads", "reps", "configs_per_sec", "overhead_pct",
        "span_ns", "spans_emitted", "trace_dropped", "p50_ms", "p99_ms", "requests_per_sec",
        "host_cores",
    ],
};

/// `BENCH_serve.json` (`serve_bench`): one row per load phase.
pub const SERVE: Schema = Schema {
    file: "BENCH_serve.json",
    rows: "benchmark",
    keys: &[
        "phase", "transport", "workers", "clients", "queue_cap", "requests", "completed", "shed",
        "degraded", "deadline_expired", "malformed", "failed", "cache_hits", "cache_misses",
        "coalesced", "backoff", "p50_ms", "p99_ms", "completed_p50_ms", "completed_p99_ms",
        "shed_p50_ms", "shed_p99_ms", "requests_per_sec", "elapsed_ms", "host_cores", "listeners",
    ],
};

/// Numeric value of `key` in a row, if it is a number.
pub fn num(row: &Json, key: &str) -> Option<f64> {
    row.get(key).and_then(Json::as_f64)
}

/// String value of `key` in a row, if it is a string.
pub fn text<'a>(row: &'a Json, key: &str) -> Option<&'a str> {
    row.get(key).and_then(Json::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: Schema =
        Schema { file: "BENCH_test.json", rows: "test", keys: &["name", "rate"] };

    /// The gate the tests use: `rate` must be finite and positive.
    fn positive_rate(rows: &[Json]) -> Result<(), String> {
        for (i, row) in rows.iter().enumerate() {
            let rate = num(row, "rate").ok_or(format!("row {i}: rate is not a number"))?;
            if !rate.is_finite() || rate <= 0.0 {
                return Err(format!("row {i}: rate = {rate}"));
            }
        }
        Ok(())
    }

    #[test]
    fn rendered_rows_round_trip_through_the_checker() {
        let rows = vec![
            vec![Field::from("a \"quoted\" name"), Field::Num(1.25, 3)],
            vec![Field::from("b"), Field::Num(2.0, 1)],
        ];
        let body = SCHEMA.render(&rows);
        assert!(body.starts_with("[\n  {\"name\": \"a \\\"quoted\\\" name\", \"rate\": 1.250},\n"));
        assert_eq!(body.lines().count(), 4, "one row per line:\n{body}");
        assert_eq!(SCHEMA.check_body(&body, positive_rate), Ok(2));
    }

    #[test]
    fn committed_bench_files_pass_their_schemas() {
        for schema in [DSE, ACCURACY, OBS, SERVE] {
            let n = schema.check(&schema.committed(), |_| Ok(())).unwrap_or_else(|e| panic!("{e}"));
            assert!(n > 0, "{}", schema.file);
        }
    }

    #[test]
    fn bad_files_fail_the_check() {
        for (tag, body, why) in [
            ("empty", "", "not valid JSON"),
            ("not_array", r#"{"name": "a", "rate": 1.0}"#, "not a JSON array of rows"),
            ("no_rows", "[\n]\n", "no test rows"),
            ("missing_key", r#"[{"name": "a"}]"#, "row 0 is missing key \"rate\""),
            ("nan", r#"[{"name": "a", "rate": NaN}]"#, "not valid JSON"),
            ("inf", r#"[{"name": "a", "rate": inf}]"#, "not valid JSON"),
            ("overflow", r#"[{"name": "a", "rate": 1e999}]"#, "non-finite number"),
            ("gated", r#"[{"name": "a", "rate": 0.0}]"#, "row 0: rate = 0"),
        ] {
            let err = SCHEMA.check_body(body, positive_rate).expect_err(tag);
            assert!(err.contains(why), "{tag}: {err}");
        }
        let missing = SCHEMA.check("/nonexistent/BENCH_test.json", positive_rate);
        assert!(missing.expect_err("unreadable").starts_with("cannot read"));
    }
}
