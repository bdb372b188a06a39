//! Measurement plumbing shared by the workloads: seeded shuffles,
//! percentiles that carry their sample counts, outside-in layer timers,
//! output checks, the run record and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// SplitMix64: a tiny deterministic generator for seeded request streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// A nearest-rank percentile with the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    pub p: f64,
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

impl Pct {
    /// Nearest-rank percentile `p` (0..1) of ascending `sorted`.
    pub fn of(sorted: &[f64], p: f64) -> Pct {
        let n = sorted.len();
        if n == 0 {
            return Pct {
                p,
                value: f64::NAN,
                n,
                beyond: 0,
            };
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Pct {
            p,
            value: sorted[rank - 1],
            n,
            beyond: n - rank,
        }
    }

    pub fn line(&self, what: &str) -> String {
        format!(
            "{what} p{:.0} = {:.3} ms  (n={}, beyond={}, need >= {MIN_BEYOND})",
            self.p * 100.0,
            self.value,
            self.n,
            self.beyond
        )
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of `v`. Per-pass peak RSS is bimodal (whether two large analyses
/// overlap on the sweep threads), so its mean is steadier than its median.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Calls and accumulated wall time of one timed public call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timer {
    pub calls: u64,
    pub nanos: u64,
}

impl Timer {
    pub fn ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Mean milliseconds per call (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ms() / self.calls as f64
        }
    }
}

/// Iterations of the host-speed loop: about 6.5 ms of one core.
const PROBE_ITERS: u64 = 3_000_000;
/// The reference host speed: about the loop's median thread CPU time on
/// a 2-core Intel Xeon VM at 2.0 GHz. Scaled times read as if measured
/// where the loop takes this long.
pub const REFERENCE_PROBE_MS: f64 = 6.5;
/// Least run time between two probes.
const PROBE_EVERY_S: f64 = 0.25;

/// Thread CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`), ms.
fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// The fixed integer loop, timed in the thread CPU time of the thread
/// that runs it.
fn probe_loop() -> f64 {
    let t = thread_cpu_ms();
    let mut rng = Rng::new(1);
    let mut acc = 0u64;
    for _ in 0..PROBE_ITERS {
        acc = acc.wrapping_add(rng.next_u64() >> 7);
    }
    std::hint::black_box(acc);
    thread_cpu_ms() - t
}

/// Host speed through a run. The cores of a shared host slow down and
/// speed up by tens of percent over minutes, with what runs beside them,
/// and every time the benchmark measures moves with them. A fixed integer
/// loop, run on the benchmark's own thread between requests (outside
/// their timings), moves the same way. It is timed in thread CPU time,
/// so a program thread left busy beside it cannot inflate it; run on
/// every core at once, it would time the cores slowing each other. The
/// end-to-end times are scaled by [`REFERENCE_PROBE_MS`] over the run's
/// median loop time.
pub struct HostProbe {
    samples: Vec<f64>,
    last: Instant,
}

impl HostProbe {
    /// Starts with one sample.
    pub fn start() -> Self {
        let mut p = HostProbe {
            samples: Vec::new(),
            last: Instant::now(),
        };
        p.sample();
        p
    }

    fn sample(&mut self) {
        self.samples.push(probe_loop());
        self.last = Instant::now();
    }

    /// Samples when [`PROBE_EVERY_S`] has passed since the last sample.
    /// Call it only outside the timings.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() >= PROBE_EVERY_S {
            self.sample();
        }
    }

    /// Median loop time of the run, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// Factor that turns a time measured in this run into one at the
    /// reference speed; a rate is divided by it.
    pub fn to_reference(&self) -> f64 {
        REFERENCE_PROBE_MS / self.median_ms()
    }

    /// Prints the probe and the factor.
    pub fn print(&self) {
        println!(
            "host probe: median {:.3} ms of thread CPU time over {} samples (reference {REFERENCE_PROBE_MS} ms); end-to-end times x {:.4}, rates / {:.4}",
            self.median_ms(),
            self.samples.len(),
            self.to_reference(),
            self.to_reference()
        );
    }
}

/// Outside-in timers around the layers' public calls. Disabled, `time`
/// is a plain call, so the untraced run pays nothing.
#[derive(Debug, Default)]
pub struct Layers {
    on: bool,
    timers: BTreeMap<&'static str, Timer>,
}

impl Layers {
    pub fn new(on: bool) -> Self {
        Layers {
            on,
            timers: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.add(name, t.elapsed().as_nanos() as u64, 1);
        r
    }

    pub fn add(&mut self, name: &'static str, nanos: u64, calls: u64) {
        let t = self.timers.entry(name).or_default();
        t.calls += calls;
        t.nanos += nanos;
    }

    pub fn get(&self, name: &str) -> Timer {
        self.timers.get(name).copied().unwrap_or_default()
    }
}

/// One row of the printed per-layer table.
pub struct Row {
    pub layer: &'static str,
    pub calls: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Prints calls, total and self time per layer, with self time as a
/// share of `base` (its label and milliseconds).
pub fn print_layer_table(title: &str, rows: &[Row], base: (&str, f64)) {
    println!("{title}:");
    println!(
        "  {:<22} {:>9} {:>12} {:>12} {:>8}",
        "layer", "calls", "total_ms", "self_ms", "self%"
    );
    for r in rows {
        let share = if base.1 > 0.0 {
            100.0 * r.self_ms / base.1
        } else {
            0.0
        };
        println!(
            "  {:<22} {:>9} {:>12.3} {:>12.3} {:>7.1}%",
            r.layer, r.calls, r.total_ms, r.self_ms, share
        );
    }
    println!(
        "  {:<22} {:>9} {:>12.3}  (base of self%)",
        base.0, "", base.1
    );
}

/// Named metric values a workload measured; units come from
/// `BENCHMARK.json`.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// A declared metric's name, value and unit, as the result line prints it.
pub struct Reported {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Output checks: every failure is printed and makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    /// Requires at least [`MIN_BEYOND`] samples beyond a percentile.
    pub fn percentile(&mut self, what: &str, pct: &Pct) {
        println!("{}", pct.line(what));
        self.require(pct.beyond >= MIN_BEYOND, || {
            format!(
                "{what} p{:.0} has only {} samples beyond it",
                pct.p * 100.0,
                pct.beyond
            )
        });
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The run's median [`HostProbe`] time, ms.
    pub probe_ms: f64,
}

/// The result object the benchmark prints as its last line.
pub fn result_line(correct: bool, out: &Outcome, metrics: &[Reported]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{"#,
        out.attempted, out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            r#""{}":{{"value":{:?},"unit":"{}"}}"#,
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`] (or since it started), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the kernel's RSS high-water mark (`VmHWM`) to the current RSS,
/// so that the next [`peak_rss_mb`] reads the peak of what ran in
/// between. False where the kernel refuses; the mark then keeps the peak
/// since the process started.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type and device of the mount holding `dir`.
fn filesystem_of(dir: &std::path::Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && path.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} on {}", f[2], f[0])))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Per-kind request counts of a run.
#[derive(Debug, Default)]
pub struct KindCounts(pub BTreeMap<&'static str, u64>);

impl KindCounts {
    pub fn add(&mut self, kind: &'static str) {
        *self.0.entry(kind).or_default() += 1;
    }
}

/// Prints the run record: host, calibration, seed and request mix.
pub fn print_record(
    workload: &str,
    seed: u64,
    trace: bool,
    scratch: &std::path::Path,
    kinds: &KindCounts,
    probe_ms: f64,
) {
    let total: u64 = kinds.0.values().sum();
    let mut mix = String::new();
    for (i, (k, n)) in kinds.0.iter().enumerate() {
        if i > 0 {
            mix.push(',');
        }
        let share = if total > 0 {
            *n as f64 / total as f64
        } else {
            0.0
        };
        let _ = write!(mix, r#""{k}":{{"count":{n},"share":{share:.4}}}"#);
    }
    println!(
        r#"record {{"workload":"{workload}","seed":{seed},"trace":{trace},"nproc":{},"cpu":"{}","scratch_fs":"{}","rss_peak_resettable":{},"host_probe_ms":{probe_ms:.3},"requests":{total},"kinds":{{{mix}}}}}"#,
        nproc(),
        cpu_model(),
        filesystem_of(scratch),
        reset_peak_rss(),
    );
}
