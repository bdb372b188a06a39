//! `serve_bench` — load generator for the flexcl-serve estimation
//! server, emitting `BENCH_serve.json`.
//!
//! ```text
//! serve_bench [--steady-requests N] [--steady-clients N] [--overload-clients N]
//!             [--workers N] [--no-backoff] [--out PATH]
//! serve_bench --check PATH [--require-overload] [--require-coalesce]
//!             [--require-warm-hits] [--min-rps X]
//! ```
//!
//! Four phases:
//!
//! * **steady** — a small kernel working set is warmed once into a
//!   persistent result cache, then clients replay it in-process;
//!   traffic is cache-hit dominated, measuring the request path a warm
//!   production server actually runs. The warm-up asserts the replay
//!   really hits the cache before anything is timed.
//! * **steady-tcp** (Linux) — the same working set driven over real TCP
//!   sockets through the epoll transport, so the framing and event-loop
//!   overhead is measured, not assumed.
//! * **coalesce** — concurrent clients replay one identical fine-grid
//!   frame against a cache-less server: all but the request leading
//!   each sweep must park on it and share the result (`coalesced > 0`).
//! * **overload** — a sustained storm (16 requests per client) of
//!   unique fine-grid sources against a deliberately tiny queue, some
//!   with impossible deadlines. Clients honor the server's
//!   `retry_after_ms` back-off hint (disable with `--no-backoff`).
//!   Shed and completed latencies are reported separately — a shed
//!   rejection returns in microseconds and saying "p50 0.002 ms" about
//!   a phase that mostly sheds would measure nothing.
//!
//! `--check` validates a previously written file: schema keys on every
//! row, finite positive throughput, optional steady rps floor, and the
//! nonzero overload / coalesce / warm-hit acceptance gates.

use flexcl_bench::load::{drive, fire, percentile, steady_config, Latencies, Reply};
use flexcl_bench::{flag_value, host_cores};
use flexcl_bench::record::{self, Field};
use flexcl_serve::json::Json;
use flexcl_serve::server::ServerConfig;
use flexcl_serve::{CounterSnapshot, Server};
use std::sync::Arc;

/// One kernel shape per distinct fingerprint in the steady working set.
fn steady_kernel(i: usize) -> String {
    format!(
        "__kernel void k{i}(__global float* a, __global float* b) {{ \
           int i = get_global_id(0); a[i] = a[i] * {}.0f + b[i]; }}",
        i + 1
    )
}

fn request(id: &str, src: &str, global: u64, extra: &str) -> String {
    let src_json = src.replace('\\', "\\\\").replace('"', "\\\"");
    format!(r#"{{"id":"{id}","src":"{src_json}","global":{global}{extra}}}"#)
}

/// One measured phase: its summary line and its BENCH_serve.json row.
struct PhaseRow {
    summary: String,
    fields: Vec<Field>,
}

/// Fires `total` requests over real TCP connections to `addr`, one
/// socket per client, length-prefixed frames both ways.
#[cfg(target_os = "linux")]
fn fire_tcp(
    addr: std::net::SocketAddrV4,
    frames: &[String],
    clients: usize,
    total: usize,
) -> (Latencies, f64) {
    use flexcl_serve::protocol::{read_frame, write_frame};
    let connect = || {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
    };
    let send = |stream: &mut std::net::TcpStream, frame: &str| {
        write_frame(stream, frame).expect("write");
        let reply = read_frame(stream).expect("read").expect("frame");
        if reply.contains("\"status\":\"ok\"") { Reply::Ok } else { Reply::Other }
    };
    drive(frames, clients, total, false, connect, send)
}

fn row(
    phase: &'static str,
    transport: &'static str,
    workers: usize,
    clients: usize,
    queue_cap: usize,
    c: CounterSnapshot,
    backoff: bool,
    lat: &Latencies,
    elapsed: f64,
) -> PhaseRow {
    let requests = lat.all.len();
    let requests_per_sec = requests as f64 / elapsed;
    let (p50_ms, p99_ms) = (percentile(&lat.all, 0.50), percentile(&lat.all, 0.99));
    let listeners: u64 = if transport == "epoll" { 2 } else { 0 };
    let summary = format!(
        "  {phase:<10} {transport:<10} {requests:>6} requests  {requests_per_sec:>9.0} req/s  \
         p50={p50_ms:.2}ms p99={p99_ms:.2}ms  ok={} shed={} degraded={} deadline={} \
         cache_hits={} coalesced={}",
        c.completed, c.shed, c.degraded, c.deadline_expired, c.cache_hits, c.coalesced,
    );
    let fields = vec![
        phase.into(),
        transport.into(),
        workers.into(),
        clients.into(),
        queue_cap.into(),
        requests.into(),
        c.completed.into(),
        c.shed.into(),
        c.degraded.into(),
        c.deadline_expired.into(),
        c.malformed.into(),
        c.failed.into(),
        c.cache_hits.into(),
        c.cache_misses.into(),
        c.coalesced.into(),
        Field::Bool(backoff),
        Field::Num(p50_ms, 3),
        Field::Num(p99_ms, 3),
        Field::Num(percentile(&lat.completed, 0.50), 3),
        Field::Num(percentile(&lat.completed, 0.99), 3),
        Field::Num(percentile(&lat.shed, 0.50), 4),
        Field::Num(percentile(&lat.shed, 0.99), 4),
        Field::Num(requests_per_sec, 1),
        Field::Num(elapsed * 1000.0, 1),
        host_cores().into(),
        listeners.into(),
    ];
    PhaseRow { summary, fields }
}

/// A scratch directory for the steady phase's persistent cache,
/// removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let path =
            std::env::temp_dir().join(format!("serve_bench-{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create cache scratch dir");
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Warms the working set and proves the replay path hits the cache:
/// every shape computed once (miss), then one replay that must come
/// back `"cache":"hit"` — the anomaly this guards against is a steady
/// phase silently measuring cache-less traffic.
fn warm(server: &Server, frames: &[String]) {
    for f in frames {
        let resp = server.handle_frame(f);
        assert_eq!(resp.kind(), "ok", "warm-up failed: {}", resp.to_json());
    }
    let probe = server.handle_frame(&frames[0]);
    assert_eq!(probe.kind(), "ok", "warm probe failed: {}", probe.to_json());
    assert!(
        probe.to_json().contains("\"cache\":\"hit\""),
        "warm replay did not hit the persistent cache: {}",
        probe.to_json()
    );
    assert!(server.counters().cache_hits > 0, "warm-up recorded no cache hits");
}

fn steady_frames() -> Vec<String> {
    (0..4).map(|i| request(&format!("w{i}"), &steady_kernel(i), 1024, "")).collect()
}

/// A server over a fresh persistent cache in `scratch`, warmed with the
/// steady working set (returned as the frames to replay).
fn warm_server(workers: usize, scratch: &ScratchDir) -> (Arc<Server>, Vec<String>) {
    let (server, _) =
        Server::start(steady_config(workers, Some(scratch.0.clone()))).expect("start server");
    let frames = steady_frames();
    warm(&server, &frames);
    (Arc::new(server), frames)
}

fn steady_phase(workers: usize, clients: usize, total: usize) -> PhaseRow {
    let scratch = ScratchDir::new("steady");
    let (server, frames) = warm_server(workers, &scratch);

    let (lat, elapsed) = fire(&server, &frames, clients, total, false);
    let counters = server.counters();
    // Every steady request is served without a fresh sweep: from the
    // warm persistent cache, or coalesced onto a twin already fetching.
    assert!(
        (counters.cache_hits + counters.coalesced) as usize >= total,
        "steady traffic must be cache-hit dominated (hits={} coalesced={} total={total})",
        counters.cache_hits,
        counters.coalesced,
    );
    let r = row("steady", "in-process", workers, clients, 256, counters, false, &lat, elapsed);
    Arc::into_inner(server).expect("sole handle").shutdown();
    r
}

#[cfg(target_os = "linux")]
fn steady_tcp_phase(workers: usize, clients: usize, total: usize) -> PhaseRow {
    use flexcl_serve::net::epoll::{EpollOptions, EpollTransport};
    let scratch = ScratchDir::new("steady-tcp");
    let (server, frames) = warm_server(workers, &scratch);

    let transport = EpollTransport::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        EpollOptions { listeners: 2, ..EpollOptions::default() },
    )
    .expect("bind epoll");
    let (lat, elapsed) = fire_tcp(transport.local_addr(), &frames, clients, total);
    let counters = server.counters();
    let r = row("steady-tcp", "epoll", workers, clients, 256, counters, false, &lat, elapsed);
    transport.shutdown().expect("transport shutdown");
    Arc::into_inner(server).expect("sole handle").shutdown();
    r
}

/// Identical fine-grid frames from concurrent clients against a
/// cache-less server: every request that arrives while a twin's sweep
/// is queued or executing parks on it, so one sweep fans out to many.
fn coalesce_phase(workers: usize, clients: usize) -> PhaseRow {
    let (server, _) = Server::start(steady_config(workers, None)).expect("start coalesce");
    let frames = vec![request(
        "dup",
        "__kernel void hot(__global float* a, __global float* b) { \
           int i = get_global_id(0); b[i] = a[i] * a[i] + b[i]; }",
        4096,
        r#","grid":"fine""#,
    )];
    let total = clients * 8;
    let (lat, elapsed) = fire(&server, &frames, clients, total, false);
    let counters = server.counters();
    assert!(
        counters.coalesced > 0,
        "identical concurrent requests coalesced zero times in {total} attempts"
    );
    let r = row("coalesce", "in-process", workers, clients, 256, counters, false, &lat, elapsed);
    server.shutdown();
    r
}

fn overload_phase(workers: usize, clients: usize, backoff: bool) -> PhaseRow {
    // 2× overload by construction: concurrent clients = 2 × queue_cap,
    // sustained for 16 requests per client so shedding and degradation
    // are a steady regime, not a transient spike.
    let queue_cap = clients / 2;
    let (server, _) = Server::start(ServerConfig {
        workers,
        queue_cap,
        degrade_at: 1,
        default_deadline_ms: 30_000,
        ..ServerConfig::default()
    })
    .expect("start overload server");

    // Unique fine-grid sources (no cache or coalescing relief) plus a
    // slice of impossible deadlines: every robustness counter must move.
    let frames: Vec<String> = (0..clients * 16)
        .map(|i| {
            let src = format!(
                "__kernel void o{i}(__global float* a) {{ \
                   int i = get_global_id(0); a[i] = a[i] + {i}.0f; }}"
            );
            let extra = if i % 7 == 3 {
                r#","grid":"fine","deadline_ms":0"#
            } else {
                r#","grid":"fine""#
            };
            request(&format!("o{i}"), &src, 1024, extra)
        })
        .collect();
    let total = frames.len();

    let (lat, elapsed) = fire(&server, &frames, clients, total, backoff);
    // The storm's deadline-0 requests race admission control and may all
    // be shed; this post-storm probe lands in an empty queue, so it is
    // always admitted and always rejected at claim time — the
    // deadline_expired counter is deterministic, not a race artifact.
    let probe = request("probe", &steady_kernel(0), 1024, r#","deadline_ms":0"#);
    assert_eq!(server.handle_frame(&probe).kind(), "deadline");
    let r = row(
        "overload",
        "in-process",
        workers,
        clients,
        queue_cap,
        server.counters(),
        backoff,
        &lat,
        elapsed,
    );
    server.shutdown();
    r
}

fn write_bench_json(rows: &[PhaseRow], out: Option<&str>) {
    for r in rows {
        println!("{}", r.summary);
    }
    let fields: Vec<Vec<Field>> = rows.iter().map(|r| r.fields.clone()).collect();
    record::SERVE.write(&fields, out);
}

/// The `--check` gates over BENCH_serve.json rows: finite positive
/// throughput on every row, plus the steady-phase rps floor and the
/// overload / coalesce / warm-hit acceptance gates the flags in `args`
/// ask for.
fn gate(rows: &[Json], args: &[String]) -> Result<(), String> {
    let require = |flag: &str| args.iter().any(|a| a == flag);
    let require_overload = require("--require-overload");
    let require_coalesce = require("--require-coalesce");
    let require_warm_hits = require("--require-warm-hits");
    let min_rps: Option<f64> =
        flag_value(args, "--min-rps").map(|v| v.parse().expect("bad --min-rps"));
    let mut saw_overload_gate = false;
    let mut saw_coalesce_gate = false;
    let mut saw_warm_gate = false;
    for (i, row) in rows.iter().enumerate() {
        let num = |key| record::num(row, key).unwrap_or(0.0);
        let rps = record::num(row, "requests_per_sec")
            .ok_or(format!("row {i}: requests_per_sec is not a number"))?;
        if !rps.is_finite() || rps <= 0.0 {
            return Err(format!("row {i}: requests_per_sec = {rps} (must be finite and positive)"));
        }
        let phase = record::text(row, "phase").unwrap_or("?");
        if phase == "steady" {
            if let Some(floor) = min_rps {
                if rps < floor {
                    return Err(format!(
                        "steady phase sustained {rps:.0} req/s < the {floor:.0} floor"
                    ));
                }
            }
            if require_warm_hits {
                if num("cache_hits") <= 0.0 {
                    return Err(
                        "steady row: cache_hits = 0 — the warm cache is not being hit".to_string()
                    );
                }
                saw_warm_gate = true;
            }
        }
        if phase == "coalesce" && require_coalesce {
            if num("coalesced") <= 0.0 {
                return Err("coalesce row: coalesced = 0 — identical in-flight requests did not \
                            share"
                    .to_string());
            }
            saw_coalesce_gate = true;
        }
        if phase == "overload" && require_overload {
            let (shed, degraded, deadline) =
                (num("shed"), num("degraded"), num("deadline_expired"));
            if shed <= 0.0 || degraded <= 0.0 || deadline <= 0.0 {
                return Err(format!(
                    "overload row: shed={shed} degraded={degraded} \
                     deadline_expired={deadline} — all must be nonzero"
                ));
            }
            if num("completed") <= 0.0 {
                return Err("overload row: server completed nothing under pressure".to_string());
            }
            saw_overload_gate = true;
        }
    }
    if require_overload && !saw_overload_gate {
        return Err("no overload row to gate on".to_string());
    }
    if require_coalesce && !saw_coalesce_gate {
        return Err("no coalesce row to gate on".to_string());
    }
    if require_warm_hits && !saw_warm_gate {
        return Err("no steady row to gate warm hits on".to_string());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = flag_value(&args, "--check") {
        record::SERVE.check_or_exit(path, |rows| gate(rows, &args));
        return;
    }
    let parse = |flag: &str, default: usize| -> usize {
        flag_value(&args, flag).map_or(default, |v| v.parse().expect("bad flag value"))
    };
    let workers =
        parse("--workers", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2));
    let steady_requests = parse("--steady-requests", 20_000);
    let steady_clients = parse("--steady-clients", 4);
    let overload_clients = parse("--overload-clients", 16);
    let backoff = !args.iter().any(|a| a == "--no-backoff");

    let mut rows = Vec::new();
    println!("steady phase: {steady_clients} clients, {steady_requests} requests…");
    rows.push(steady_phase(workers, steady_clients, steady_requests));
    #[cfg(target_os = "linux")]
    {
        let tcp_requests = (steady_requests / 4).max(1);
        println!("steady-tcp phase: {steady_clients} clients, {tcp_requests} requests over epoll…");
        rows.push(steady_tcp_phase(workers, steady_clients, tcp_requests));
    }
    println!("coalesce phase: 8 clients replaying one fine-grid frame…");
    rows.push(coalesce_phase(workers.min(2), 8));
    println!(
        "overload phase: {overload_clients} clients on a {}-slot queue (backoff={backoff})…",
        overload_clients / 2
    );
    rows.push(overload_phase(workers, overload_clients, backoff));
    write_bench_json(&rows, flag_value(&args, "--out"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_bench_file_passes_the_tier1_check() {
        let tier1 = "--require-overload --require-coalesce --require-warm-hits --min-rps 5000";
        let args: Vec<String> = tier1.split(' ').map(String::from).collect();
        let serve = record::SERVE;
        serve.check(&serve.committed(), |rows| gate(rows, &args)).unwrap_or_else(|e| panic!("{e}"));
    }
}
