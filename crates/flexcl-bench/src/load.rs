//! Closed-loop client load against a `flexcl-serve` server, in process or
//! over sockets, shared by the `serve_bench` and `obs_bench` harnesses:
//! client threads replay frames round-robin and record client-observed
//! latencies by outcome.

use flexcl_serve::server::ServerConfig;
use flexcl_serve::Server;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A server for steady traffic: a 256-slot queue, no grid degradation,
/// a 60 s deadline and, with `cache_dir`, a persistent result cache.
pub fn steady_config(workers: usize, cache_dir: Option<std::path::PathBuf>) -> ServerConfig {
    ServerConfig {
        workers,
        queue_cap: 256,
        degrade_at: usize::MAX,
        default_deadline_ms: 60_000,
        cache_dir,
        ..ServerConfig::default()
    }
}

/// The `p` quantile of ascending `sorted` (nearest rank; 0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Client-observed latencies, split by outcome.
#[derive(Default)]
pub struct Latencies {
    /// Every request, ms.
    pub all: Vec<f64>,
    /// Requests answered `ok`, ms.
    pub completed: Vec<f64>,
    /// Requests shed as `overloaded`, ms.
    pub shed: Vec<f64>,
}

impl Latencies {
    /// Appends another client's samples.
    fn absorb(&mut self, mut other: Latencies) {
        self.all.append(&mut other.all);
        self.completed.append(&mut other.completed);
        self.shed.append(&mut other.shed);
    }

    /// Sorts every series ascending, ready for [`percentile`].
    fn sort(&mut self) {
        self.all.sort_by(|a, b| a.total_cmp(b));
        self.completed.sort_by(|a, b| a.total_cmp(b));
        self.shed.sort_by(|a, b| a.total_cmp(b));
    }
}

/// Back-off cap: the server's hint is an EWMA of full service time,
/// which against fine-grid storms would idle clients for longer than
/// the bench runs. Sleeping a bounded slice still yields the queue.
const BACKOFF_CAP_MS: u64 = 5;

/// How one request ended, as far as the latency split cares.
pub enum Reply {
    /// Answered `ok`.
    Ok,
    /// Shed as `overloaded`, with the server's retry hint.
    Overloaded(Option<u64>),
    /// Any other typed reply.
    Other,
}

/// Records one `reply` that took `ms`; with `backoff`, sleeps on an
/// `overloaded` reply as its retry hint asks (capped).
fn tally(lat: &mut Latencies, reply: Reply, ms: f64, backoff: bool) {
    lat.all.push(ms);
    match reply {
        Reply::Ok => lat.completed.push(ms),
        Reply::Overloaded(retry_hint) => {
            lat.shed.push(ms);
            if backoff {
                let hint = retry_hint.unwrap_or(1).clamp(1, BACKOFF_CAP_MS);
                std::thread::sleep(Duration::from_millis(hint));
            }
        }
        Reply::Other => {}
    }
}

/// Fires `total` requests from `clients` threads. Each thread opens its
/// own connection with `connect`, then claims request indices from a
/// shared counter and sends `frames[i % frames.len()]` through `send`.
/// Returns the sorted latencies and the wall time in seconds.
pub fn drive<C>(
    frames: &[String],
    clients: usize,
    total: usize,
    backoff: bool,
    connect: impl Fn() -> C + Sync,
    send: impl Fn(&mut C, &str) -> Reply + Sync,
) -> (Latencies, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut latencies = Latencies::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = connect();
                    let mut lat = Latencies::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            return lat;
                        }
                        let t = Instant::now();
                        let reply = send(&mut conn, &frames[i % frames.len()]);
                        tally(&mut lat, reply, t.elapsed().as_secs_f64() * 1000.0, backoff);
                    }
                })
            })
            .collect();
        for h in handles {
            latencies.absorb(h.join().expect("client thread"));
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort();
    (latencies, elapsed)
}

/// [`drive`] against the in-process service core.
pub fn fire(
    server: &Server,
    frames: &[String],
    clients: usize,
    total: usize,
    backoff: bool,
) -> (Latencies, f64) {
    let send = |_: &mut (), frame: &str| {
        let resp = server.handle_frame(frame);
        match resp.kind() {
            "ok" => Reply::Ok,
            "overloaded" => Reply::Overloaded(resp.retry_after_ms()),
            _ => Reply::Other,
        }
    };
    drive(frames, clients, total, backoff, || (), send)
}
