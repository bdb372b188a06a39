//! `served_mix`: an in-process `flexcl-serve` server behind the epoll
//! transport on loopback, driven by one closed-loop client over two
//! connections with a fixed mix of request kinds.

use crate::library::{compile, library_layers, probe_cold, sweep, Case, DseTotals};
use crate::report::{
    mean, median, nproc, peak_rss_mb, reset_peak_rss, sorted, Checks, HostProbe, KindCounts,
    Layers, Metrics, Outcome, Pct, Rng,
};
use crate::Args;
use flexcl_core::config::{ConfigSpace, SweepGrid};
use flexcl_core::dse::limits_for;
use flexcl_core::{explore_space, AnalysisCache, DseOptions, Platform};
use flexcl_serve::cache::PersistentCache;
use flexcl_serve::json::{self, Json};
use flexcl_serve::net::epoll::{EpollOptions, EpollTransport};
use flexcl_serve::protocol::{read_frame, write_frame, CacheDisposition};
use flexcl_serve::workload::{prepare, SynthesisSpec};
use flexcl_serve::{Request, Response, Server, ServerConfig, SweepSummary};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Synthesized buffers hold this many elements per work-item (the
/// `flexcl` CLI default): with buffers the size of `global`, many suite
/// kernels read out of bounds and fail profiling.
const BUF_PER_ITEM: u64 = 64;

/// Kernels of the hit set, each warmed at [`HIT_SIZES`] during set-up.
const HIT_KERNELS: [&str; 8] = [
    "cfd/memset",
    "srad/extract",
    "srad/prepare",
    "streamcluster/memset",
    "nn/nn",
    "bfs/bfs_2",
    "particlefilter/normalize",
    "cfd/time_step",
];
const HIT_SIZES: [u64; 2] = [1024, 2048];

/// Cold-miss pool: 1-D suite kernels whose cold standard-grid sweep
/// serves in about 10-160 ms. Each cold miss is one of them at one of
/// [`COLD_SIZES`] global sizes, a pair no earlier request used.
const COLD_KERNELS: [&str; 24] = [
    "bfs/bfs_1",
    "bfs/bfs_2",
    "cfd/memset",
    "cfd/initialize",
    "cfd/compute",
    "cfd/time_step",
    "dwt2d/compute",
    "dwt2d/components",
    "dwt2d/component",
    "gaussian/fan1",
    "hybridsort/count",
    "hybridsort/prefix",
    "nn/nn",
    "nw/nw1",
    "nw/nw2",
    "particlefilter/normalize",
    "particlefilter/sum",
    "particlefilter/likelihood",
    "pathfinder/dynproc",
    "srad/extract",
    "srad/prepare",
    "srad/reduce",
    "srad/compress",
    "streamcluster/memset",
];
/// Global sizes of cold misses, above the hit set's. Cold cost grows
/// with the size (the synthesized buffers are `64 x global`), so the
/// 288 kernel/size pairs are drawn in one fixed shuffled order: every
/// prefix of the supply mixes all sizes, and a run's cold cost does not
/// drift with its length. After all 288, the order repeats with
/// [`BUF_STEP`] more buffer elements per round, a new key at the same
/// cost, so the supply never runs out.
const COLD_SIZES: [u64; 12] = [
    2304, 2560, 2816, 3072, 3328, 3584, 3840, 4096, 4352, 4608, 4864, 5120,
];
/// Extra buffer elements per round of the cold-miss supply: part of the
/// cache key, 16 KiB-aligned, and never read by the kernels.
const BUF_STEP: u64 = 4096;
const COLD_ORDER_SEED: u64 = 0xC01D;

/// Kernels that fail profiling under the synthesized inputs; they stay
/// in the draw as typed `profiling` errors.
const FAILING: [&str; 2] = ["b+tree/findK", "b+tree/rangeK"];

/// Requests per block and the fixed count of each kind in it. Sorted by
/// cost, errors and cold misses (2.5%) sit above near misses and
/// coalesced pairs (2%), which sit above hits (95.5%): p50 falls deep in
/// the hits, p99 inside the cold misses.
const BLOCK: usize = 200;
const COLD_PER_BLOCK: usize = 4;
const NEAR_PER_BLOCK: usize = 2;
const PAIRS_PER_BLOCK: usize = 1;
const ERRORS_PER_BLOCK: usize = 1;

/// Fewest timed blocks: 1,200 requests leave 12 beyond the p99 however
/// slow the host.
const MIN_BLOCKS: u64 = 6;

/// Ok responses re-swept offline and compared bit for bit.
const VERIFY_SAMPLE: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Hit,
    NearMiss,
    Cold,
    Coalesce,
    Error,
}

const KINDS: [Kind; 5] = [
    Kind::Hit,
    Kind::NearMiss,
    Kind::Coalesce,
    Kind::Cold,
    Kind::Error,
];

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::NearMiss => "near_miss",
            Kind::Cold => "cold_miss",
            Kind::Coalesce => "coalesced_pair_member",
            Kind::Error => "typed_error",
        }
    }
}

/// A suite kernel's source, for request frames.
#[derive(Clone, Copy)]
struct Src {
    name: &'static str,
    src: &'static str,
    kernel: &'static str,
}

/// The inputs of one request.
#[derive(Clone)]
struct Req {
    src: Src,
    global: u64,
    prune: bool,
    /// Round of the cold-miss supply (0 for every other request).
    round: u64,
}

impl Req {
    fn buf_elems(&self) -> u64 {
        BUF_PER_ITEM * self.global + BUF_STEP * self.round
    }

    fn spec(&self) -> SynthesisSpec {
        SynthesisSpec {
            buf_elems: Some(self.buf_elems()),
            ..SynthesisSpec::default()
        }
    }

    fn frame(&self, id: u64) -> String {
        let mut s = format!(r#"{{"id":"r{id}","kernel":"{}","src":"#, self.src.kernel);
        json::push_escaped(&mut s, self.src.src);
        s.push_str(&format!(
            r#","global":[{},1],"grid":"standard","prune":{},"threads":1,"buf_elems":{}}}"#,
            self.global,
            self.prune,
            self.buf_elems()
        ));
        s
    }
}

fn suite_src(name: &str) -> Option<Src> {
    flexcl_kernels::all()
        .into_iter()
        .find(|s| s.full_name() == name)
        .map(|s| Src {
            name: Box::leak(s.full_name().into_boxed_str()),
            src: s.source,
            kernel: s.kernel,
        })
}

/// One closed-loop connection.
struct Conn(TcpStream);

impl Conn {
    fn send(&mut self, frame: &str) -> std::io::Result<()> {
        write_frame(&mut self.0, frame)
    }

    fn recv(&mut self) -> std::io::Result<String> {
        read_frame(&mut self.0)?.ok_or_else(|| std::io::Error::other("connection closed"))
    }
}

/// A decoded reply.
struct Reply {
    ok: bool,
    cache: String,
    coalesced: bool,
    kind: String,
    /// The `SweepSummary` object exactly as it crossed the wire.
    result: String,
    raw: String,
}

fn decode(raw: String) -> Option<Reply> {
    let v = json::parse(&raw).ok()?;
    let status = v.get("status")?.as_str()?;
    let result = raw
        .find(r#""result":"#)
        .and_then(|at| {
            let rest = &raw[at + 9..];
            rest.find(r#","degraded":"#)
                .map(|end| rest[..end].to_string())
        })
        .unwrap_or_default();
    Some(Reply {
        ok: status == "ok",
        cache: v
            .get("cache")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        coalesced: matches!(v.get("coalesced"), Some(Json::Bool(true))),
        kind: v
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or("ok")
            .to_string(),
        result,
        raw,
    })
}

/// One step of the stream: a request on one connection, or the same
/// request on both at once.
struct Step {
    kind: Kind,
    req: Req,
}

/// The `i`-th cold miss: a kernel/size pair of the fixed order, in the
/// round that makes its key new.
fn cold_miss(i: usize, pairs: &[(Src, u64)]) -> Req {
    let (src, global) = pairs[i % pairs.len()];
    Req {
        src,
        global,
        prune: false,
        round: (i / pairs.len()) as u64,
    }
}

/// Builds block `b`: fresh cold families, near misses and a coalesced
/// pair on some of them, one failing kernel and seeded hits.
fn block(
    b: u64,
    rng: &mut Rng,
    hits: &[Req],
    cold_pairs: &[(Src, u64)],
    failing: &[Src],
) -> Vec<Step> {
    let colds: Vec<Req> = (0..COLD_PER_BLOCK)
        .map(|c| cold_miss(b as usize * COLD_PER_BLOCK + c, cold_pairs))
        .collect();
    let mut steps: Vec<Step> = Vec::with_capacity(BLOCK);
    for c in &colds {
        steps.push(Step {
            kind: Kind::Cold,
            req: c.clone(),
        });
    }
    for e in 0..ERRORS_PER_BLOCK {
        let src = failing[(b as usize * ERRORS_PER_BLOCK + e) % failing.len()];
        steps.push(Step {
            kind: Kind::Error,
            req: Req {
                src,
                global: 1024,
                prune: false,
                round: 0,
            },
        });
    }
    while steps.len() + NEAR_PER_BLOCK + 2 * PAIRS_PER_BLOCK < BLOCK {
        steps.push(Step {
            kind: Kind::Hit,
            req: hits[rng.below(hits.len())].clone(),
        });
    }
    rng.shuffle(&mut steps);
    // A near miss or pair must follow its family's cold miss: insert each
    // at a seeded position after it.
    let dependents = (0..NEAR_PER_BLOCK)
        .map(|i| (Kind::NearMiss, i))
        .chain((0..PAIRS_PER_BLOCK).map(|i| (Kind::Coalesce, NEAR_PER_BLOCK + i)));
    for (kind, c) in dependents {
        let cold = &colds[c];
        let at = steps
            .iter()
            .position(|s| {
                s.kind == Kind::Cold
                    && s.req.global == cold.global
                    && s.req.round == cold.round
                    && s.req.src.name == cold.src.name
            })
            .unwrap_or(0);
        let pos = at + 1 + rng.below(steps.len() - at);
        steps.insert(
            pos,
            Step {
                kind,
                req: Req {
                    prune: true,
                    ..cold.clone()
                },
            },
        );
    }
    steps
}

/// Latency and outcome of one request.
struct Sample {
    kind: Kind,
    ms: f64,
    ok: bool,
    req: Req,
    result: String,
}

struct Client {
    conns: [Conn; 2],
    next: usize,
    id: u64,
    /// Replies marked as fanned out from another request's sweep.
    coalesced: u64,
}

impl Client {
    fn fire(&mut self, step: &Step, checks: &mut Checks, out: &mut Vec<Sample>) {
        self.id += 1;
        let frame = step.req.frame(self.id);
        let replies: Vec<(f64, Option<Reply>)> = if step.kind == Kind::Coalesce {
            let t = Instant::now();
            let sent = self.conns[0]
                .send(&frame)
                .and_then(|()| self.conns[1].send(&frame));
            let a = sent.as_ref().ok().and_then(|()| self.conns[0].recv().ok());
            let ta = t.elapsed().as_secs_f64() * 1e3;
            let b = sent.as_ref().ok().and_then(|()| self.conns[1].recv().ok());
            let tb = t.elapsed().as_secs_f64() * 1e3;
            vec![(ta, a.and_then(decode)), (tb, b.and_then(decode))]
        } else {
            let c = &mut self.conns[self.next];
            self.next ^= 1;
            let t = Instant::now();
            let r = c.send(&frame).and_then(|()| c.recv()).ok();
            vec![(t.elapsed().as_secs_f64() * 1e3, r.and_then(decode))]
        };
        let mut results = Vec::new();
        for (ms, reply) in replies {
            let Some(r) = reply else {
                checks.require(false, || {
                    format!("{}: no decodable reply", step.req.src.name)
                });
                out.push(Sample {
                    kind: step.kind,
                    ms,
                    ok: false,
                    req: step.req.clone(),
                    result: String::new(),
                });
                continue;
            };
            let expected = match step.kind {
                Kind::Hit => r.ok && r.cache == "hit",
                Kind::NearMiss | Kind::Cold => r.ok && r.cache == "miss",
                Kind::Coalesce => r.ok,
                Kind::Error => !r.ok && r.kind == "profiling",
            };
            checks.require(expected, || {
                format!(
                    "{:?} {}: unexpected reply {}",
                    step.kind, step.req.src.name, r.raw
                )
            });
            self.coalesced += u64::from(r.coalesced);
            results.push(r.result.clone());
            out.push(Sample {
                kind: step.kind,
                ms,
                ok: r.ok,
                req: step.req.clone(),
                result: r.result,
            });
        }
        if step.kind == Kind::Coalesce {
            checks.require(results.len() == 2 && results[0] == results[1], || {
                format!("{}: coalesced pair answered differently", step.req.src.name)
            });
        }
    }
}

/// A scratch directory inside the checkout, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Count and exact sum (us) of the server's `serve.service_us`
/// histogram, from the metrics frame.
fn service_totals(conn: &mut Conn) -> Option<(f64, f64)> {
    conn.send(r#"{"metrics":"json"}"#).ok()?;
    let v = json::parse(&conn.recv().ok()?).ok()?;
    let h = v
        .get("metrics")?
        .get("server")?
        .get("histograms")?
        .get("serve.service_us")?;
    Some((h.get("count")?.as_f64()?, h.get("sum")?.as_f64()?))
}

/// Server set-ups per run; `setup_s` is their median. The first is the
/// deployment the run uses; the others are spread over the timed window
/// (between blocks, outside their timings), so the median samples the
/// host across the run.
const SETUP_REPS: usize = 9;

/// A running server, its transport, the client, and the set-up replies.
struct Deployment {
    server: Arc<Server>,
    transport: EpollTransport,
    client: Client,
    warm: Vec<Sample>,
}

impl Deployment {
    fn stop(self) {
        drop(self.client);
        let _ = self.transport.shutdown();
        if let Some(s) = Arc::into_inner(self.server) {
            s.shutdown();
        }
    }
}

/// Starts a server with its persistent cache in `dir`, binds the epoll
/// transport on loopback, connects the client and fills the cache with
/// the hit set. One worker per core, each sweeping on one thread, keeps
/// busy threads within `nproc`.
fn deploy(dir: &Path, hits: &[Req], checks: &mut Checks) -> Result<Deployment, String> {
    let cfg = ServerConfig {
        workers: nproc(),
        max_sweep_threads: 1,
        degrade_at: 1 << 20,
        default_deadline_ms: 60_000,
        cache_dir: Some(dir.to_path_buf()),
        cache_cap_per_shard: 1024,
        ..ServerConfig::default()
    };
    let server = Arc::new(
        Server::start(cfg)
            .map_err(|e| format!("server start: {e}"))?
            .0,
    );
    let transport =
        EpollTransport::bind(Arc::clone(&server), "127.0.0.1:0", EpollOptions::default())
            .map_err(|e| format!("bind loopback: {e}"))?;
    let addr = transport.local_addr();
    let connect = || -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn(s))
    };
    let client = Client {
        conns: [connect()?, connect()?],
        next: 0,
        id: 0,
        coalesced: 0,
    };
    let mut d = Deployment {
        server,
        transport,
        client,
        warm: Vec::new(),
    };
    for req in hits {
        d.client.fire(
            &Step {
                kind: Kind::Cold,
                req: req.clone(),
            },
            checks,
            &mut d.warm,
        );
    }
    Ok(d)
}

/// The client's position in the request stream.
struct Phase<'a> {
    client: &'a mut Client,
    rng: Rng,
    hits: &'a [Req],
    cold_pairs: &'a [(Src, u64)],
    failing: &'a [Src],
    next_block: u64,
}

impl Phase<'_> {
    /// Sends whole blocks until `seconds` of request time have passed
    /// (at least `min_blocks`). With `probes`, they run after each
    /// request, outside the timings; the host probe and `between` run
    /// after each block, also outside them, `between` with the request
    /// time so far. Returns the samples, the request time and each
    /// block's peak RSS (MiB).
    fn run(
        &mut self,
        seconds: f64,
        min_blocks: u64,
        checks: &mut Checks,
        mut probes: Option<&mut Probes>,
        host: &mut HostProbe,
        between: &mut dyn FnMut(&mut Checks, f64),
    ) -> (Vec<Sample>, f64, Vec<f64>) {
        let mut samples = Vec::new();
        let first = self.next_block;
        let mut elapsed = 0.0;
        let mut block_peak_mb = Vec::new();
        while elapsed < seconds || self.next_block - first < min_blocks {
            reset_peak_rss();
            let steps = block(
                self.next_block,
                &mut self.rng,
                self.hits,
                self.cold_pairs,
                self.failing,
            );
            self.next_block += 1;
            let t = Instant::now();
            let mut outside = 0.0;
            for step in &steps {
                let from = samples.len();
                self.client.fire(step, checks, &mut samples);
                if let Some(p) = probes.as_deref_mut() {
                    let t = Instant::now();
                    p.after(step, &samples[from..], self.client.id, checks);
                    outside += t.elapsed().as_secs_f64();
                }
            }
            elapsed += t.elapsed().as_secs_f64() - outside;
            block_peak_mb.push(peak_rss_mb());
            host.tick();
            between(checks, elapsed);
        }
        (samples, elapsed, block_peak_mb)
    }
}

pub fn run(
    args: &Args,
    scratch_root: &Path,
    checks: &mut Checks,
    kinds: &mut KindCounts,
) -> Outcome {
    let mut host = HostProbe::start();
    let setup = Instant::now();
    let mut setup_layers = Layers::new(args.trace);
    let platform = Platform::virtex7_adm7v3();
    setup_layers.time("dram.microbench", || {
        flexcl_dram::microbench::profile_cached(platform.dram)
    });
    let microbench_s = setup.elapsed().as_secs_f64();
    let scratch = Scratch(scratch_root.join(format!("served-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&scratch.0);
    let names = |list: &[&str]| -> Vec<Src> { list.iter().filter_map(|n| suite_src(n)).collect() };
    let (hit_srcs, cold_srcs, failing) =
        (names(&HIT_KERNELS), names(&COLD_KERNELS), names(&FAILING));
    checks.require(
        hit_srcs.len() == HIT_KERNELS.len()
            && cold_srcs.len() == COLD_KERNELS.len()
            && failing.len() == FAILING.len(),
        || "served_mix kernels missing from the suite".into(),
    );
    let hits: Vec<Req> = hit_srcs
        .iter()
        .flat_map(|&src| {
            HIT_SIZES.iter().map(move |&global| Req {
                src,
                global,
                prune: false,
                round: 0,
            })
        })
        .collect();
    let mut cold_pairs: Vec<(Src, u64)> = COLD_SIZES
        .iter()
        .flat_map(|&global| cold_srcs.iter().map(move |&src| (src, global)))
        .collect();
    Rng::new(COLD_ORDER_SEED).shuffle(&mut cold_pairs);

    // Times set-up `rep` from scratch on a fresh cache directory.
    let set_up = |rep: usize, checks: &mut Checks| -> Option<(Deployment, f64)> {
        let t = Instant::now();
        match deploy(&scratch.0.join(format!("cache-{rep}")), &hits, checks) {
            Ok(d) => Some((d, t.elapsed().as_secs_f64() + microbench_s)),
            Err(e) => {
                checks.require(false, || e);
                None
            }
        }
    };
    let Some((
        Deployment {
            server,
            transport,
            mut client,
            warm,
        },
        first,
    )) = set_up(0, checks)
    else {
        return Outcome {
            attempted: 1,
            failed: 1,
            metrics: Metrics::default(),
            probe_ms: host.median_ms(),
        };
    };

    let mut times = vec![first];
    let mut more_setups = |checks: &mut Checks, until: usize| {
        while times.len() < until {
            match set_up(times.len(), checks) {
                Some((d, s)) => {
                    d.stop();
                    times.push(s);
                }
                None => break,
            }
        }
    };

    let before = server.counters();
    let svc0 = service_totals(&mut client.conns[0]);
    let mut phase = Phase {
        client: &mut client,
        rng: Rng::new(args.seed),
        hits: &hits,
        cold_pairs: &cold_pairs,
        failing: &failing,
        next_block: 0,
    };
    let (samples, elapsed, block_peak_mb) = phase.run(
        args.seconds,
        MIN_BLOCKS,
        checks,
        None,
        &mut host,
        &mut |checks, elapsed| {
            let due = 1 + (elapsed / args.seconds * SETUP_REPS as f64) as usize;
            more_setups(checks, due.min(SETUP_REPS));
        },
    );
    let after = server.counters();
    let svc1 = service_totals(&mut phase.client.conns[0]);
    more_setups(checks, SETUP_REPS);
    let setup_s = median(&times);
    println!(
        "setup {setup_s:.3} s (median of {times:.3?}, spread over the window; {} hit keys warmed)",
        hits.len()
    );

    let rss_mb = mean(&block_peak_mb);
    println!(
        "peak RSS per block: mean {rss_mb:.1} MiB over {} blocks, max {:.1} MiB",
        block_peak_mb.len(),
        block_peak_mb.iter().copied().fold(0.0, f64::max)
    );
    let lat = sorted(samples.iter().map(|s| s.ms).collect());
    let p50 = Pct::of(&lat, 0.5);
    let p99 = Pct::of(&lat, 0.99);
    checks.percentile("latency", &p50);
    checks.percentile("latency", &p99);
    for s in &samples {
        kinds.add(s.kind.label());
    }
    for kind in KINDS {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect();
        let s = sorted(v.clone());
        println!(
            "  {:<22} n={:<6} min {:>8.3} p50 {:>8.3} max {:>8.3} ms",
            kind.label(),
            v.len(),
            s.first().copied().unwrap_or(0.0),
            median(&v),
            s.last().copied().unwrap_or(0.0)
        );
    }
    let ok = samples.iter().filter(|s| s.ok).count();
    let attempted = samples.len() as u64;
    println!(
        "timed {elapsed:.3} s: {attempted} requests in {} blocks, {:.1} req/s ok",
        phase.next_block,
        ok as f64 / elapsed
    );
    let pairs = samples.iter().filter(|s| s.kind == Kind::Coalesce).count() / 2;
    println!(
        "coalescing: {} of {pairs} identical pairs shared one sweep (client markers; server counted {})",
        phase.client.coalesced,
        after.coalesced - before.coalesced
    );
    checks.require(
        after.shed == before.shed && after.deadline_expired == before.deadline_expired,
        || "requests were shed or hit their deadline".into(),
    );

    let mut metrics = Metrics::default();
    if !args.trace {
        // Outside the timed window: a seeded sample of ok responses and
        // the fixed hit set are re-swept offline and must match bit for
        // bit; the hit set's best points are checked against the sim.
        let mut pool: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.ok && s.kind != Kind::Hit)
            .collect();
        let mut vrng = Rng::new(args.seed ^ 0xA5A5);
        vrng.shuffle(&mut pool);
        let mut errs = Vec::new();
        let fixed = warm.iter().filter(|s| s.req.global == HIT_SIZES[0]);
        for (i, s) in fixed
            .chain(pool.into_iter().take(VERIFY_SAMPLE))
            .enumerate()
        {
            let sim = i < HIT_KERNELS.len();
            match offline(&s.req, &platform, sim) {
                Ok((summary, err)) => {
                    checks.require(summary == s.result, || {
                        format!(
                            "{} @{}: served {} != offline {summary}",
                            s.req.src.name, s.req.global, s.result
                        )
                    });
                    errs.extend(err);
                }
                Err(e) => checks.require(false, || {
                    format!("{}: offline sweep failed: {e}", s.req.src.name)
                }),
            }
        }
        checks.require(errs.len() == HIT_KERNELS.len(), || {
            "flexcl-sim failed on the hit set".into()
        });
        let err = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        println!(
            "verified {} responses offline; model_err_pct {err:.4} over {} hit-set kernels",
            HIT_KERNELS.len() + VERIFY_SAMPLE,
            errs.len()
        );
        host.print();
        let f = host.to_reference();
        metrics.put("setup_s", setup_s * f);
        metrics.put("throughput_per_s", ok as f64 / elapsed / f);
        metrics.put("latency_p50_ms", p50.value * f);
        metrics.put("ok_frac", ok as f64 / attempted.max(1) as f64);
        metrics.put("model_err_pct", err);
        metrics.put("peak_rss_mb", rss_mb);
    } else {
        // Traced phase: fresh blocks of the same mix with the probes on.
        let mut probes = Probes {
            layers: Layers::new(true),
            cache: PersistentCache::open(&scratch.0.join("probe-cache"), 1024)
                .ok()
                .map(|(c, _)| (c, Vec::new())),
            dse: DseTotals::default(),
            platform: Arc::new(platform.clone()),
        };
        let (tsamples, _, _) = phase.run(
            args.seconds / 4.0,
            1,
            checks,
            Some(&mut probes),
            &mut host,
            &mut |_, _| {},
        );
        let layers = &probes.layers;
        // Hits repeat the same keys in both phases, so their median
        // latency compares like with like.
        let hit_median = |set: &[Sample]| {
            median(
                &set.iter()
                    .filter(|s| s.kind == Kind::Hit)
                    .map(|s| s.ms)
                    .collect::<Vec<_>>(),
            )
        };
        let overhead = (hit_median(&tsamples) / hit_median(&samples) - 1.0) * 100.0;
        let d = |f: fn(&flexcl_serve::CounterSnapshot) -> u64| (f(&after) - f(&before)) as f64;
        let requests = attempted as f64;
        let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
        // Exact window totals: the server's histogram sums every
        // answer's service time, so the window's mean is a difference of
        // sums; the client's mean covers the same answers.
        let client_us: f64 = samples.iter().map(|s| s.ms * 1e3).sum();
        let client_mean_us = client_us / requests;
        let (svc_mean_us, coverage) = match (svc0, svc1) {
            (Some((n0, sum0)), Some((n1, sum1))) => {
                checks.require(n1 - n0 == requests, || {
                    format!(
                        "server answered {} requests, client sent {requests}",
                        n1 - n0
                    )
                });
                ((sum1 - sum0) / (n1 - n0), 100.0 * (sum1 - sum0) / client_us)
            }
            _ => {
                checks.require(false, || "metrics frame unreadable".into());
                (0.0, 0.0)
            }
        };
        let per_call = |name: &str, scale: f64| {
            let t = layers.get(name);
            if t.calls == 0 {
                0.0
            } else {
                t.nanos as f64 / t.calls as f64 / scale
            }
        };
        library_layers(&mut metrics, layers, &setup_layers, &probes.dse);
        metrics.put("protocol.parse_us", per_call("protocol.parse", 1e3));
        metrics.put("protocol.encode_us", per_call("protocol.encode", 1e3));
        metrics.put(
            "server.hit_ratio",
            ratio(d(|c| c.cache_hits), d(|c| c.cache_misses)),
        );
        metrics.put("server.near_miss", d(|c| c.near_miss) / requests);
        metrics.put("server.coalesced_ratio", d(|c| c.coalesced) / requests);
        metrics.put("server.shed", d(|c| c.shed));
        metrics.put("server.degraded", d(|c| c.degraded));
        metrics.put(
            "server.analysis_hit_ratio",
            ratio(d(|c| c.analysis_hits), d(|c| c.analysis_misses)),
        );
        metrics.put("server.service_mean_us", svc_mean_us);
        metrics.put("cache.get_us", per_call("cache.get", 1e3));
        metrics.put("cache.put_ms", per_call("cache.put", 1e6));
        metrics.put("net.overhead_us", client_mean_us - svc_mean_us);
        metrics.put("obs.trace_overhead_pct", overhead);
        metrics.put("trace.coverage_pct", coverage);
        metrics.put("latency.tail_ms", p99.value);
        println!(
            "server: mean service {svc_mean_us:.1} us vs client mean {client_mean_us:.1} us over the window; \
             coverage {coverage:.1}% of client latency is server service time; trace overhead {overhead:.2}% \
             (hit median, traced vs untraced)"
        );
        println!(
            "server deltas over {requests} requests: cache hits {} / misses {}, near misses {}, \
             coalesced {}, shed {}, degraded {}, analysis hits {} / misses {}",
            d(|c| c.cache_hits),
            d(|c| c.cache_misses),
            d(|c| c.near_miss),
            d(|c| c.coalesced),
            d(|c| c.shed),
            d(|c| c.degraded),
            d(|c| c.analysis_hits),
            d(|c| c.analysis_misses)
        );
    }

    Deployment {
        server,
        transport,
        client,
        warm: Vec::new(),
    }
    .stop();
    let failed = samples
        .iter()
        .filter(|s| s.ok == (s.kind == Kind::Error))
        .count() as u64;
    Outcome {
        attempted,
        failed,
        metrics,
        probe_ms: host.median_ms(),
    }
}

/// What the traced phase's probes keep between requests.
struct Probes {
    layers: Layers,
    /// A second persistent cache beside the server's, and its keys.
    cache: Option<(PersistentCache, Vec<(u64, u64)>)>,
    /// `DseStats` of the cold misses' offline sweeps.
    dse: DseTotals,
    platform: Arc<Platform>,
}

impl Probes {
    /// Times the layers' public calls on a step's inputs, outside the
    /// request's own latency: protocol and cache on every request; on a
    /// cold miss, the library layers too, on an offline rerun of the
    /// same sweep with the server's options.
    fn after(&mut self, step: &Step, answered: &[Sample], id: u64, checks: &mut Checks) {
        let layers = &mut self.layers;
        let frame = step.req.frame(id);
        let _ = std::hint::black_box(layers.time("protocol.parse", || Request::parse(&frame)));
        for s in answered.iter().filter(|s| s.ok) {
            let Ok(summary) = SweepSummary::from_json(&s.result) else {
                continue;
            };
            let resp = Response::Ok {
                id: format!("r{id}"),
                summary,
                degraded: 0,
                grid_used: "standard".into(),
                cache: CacheDisposition::Hit,
                elapsed_ms: 0,
                coalesced: false,
                request_id: String::new(),
            };
            std::hint::black_box(layers.time("protocol.encode", || resp.to_json()));
            let Some((cache, keys)) = self.cache.as_mut() else {
                continue;
            };
            if s.kind == Kind::Hit && !keys.is_empty() {
                let key = keys[(id as usize) % keys.len()];
                std::hint::black_box(layers.time("cache.get", || cache.get(key)));
            } else if s.kind != Kind::Hit {
                let key = (id, keys.len() as u64);
                let _ = layers.time("cache.put", || cache.put(key, (id, 0), s.result.as_bytes()));
                keys.push(key);
            }
        }
        if step.kind == Kind::Cold && answered.iter().any(|s| s.ok) {
            if let Err(e) = self.probe_cold(&step.req) {
                checks.require(false, || {
                    format!("{}: offline probe failed: {e}", step.req.src.name)
                });
            }
        }
    }

    fn probe_cold(&mut self, req: &Req) -> Result<(), String> {
        let p = prepare(
            req.src.src,
            Some(req.src.kernel),
            (req.global, 1),
            req.spec(),
        )
        .map_err(|e| e.to_string())?;
        let case = Case {
            name: req.src.name.to_string(),
            src: req.src.src,
            kernel: req.src.kernel,
            workload: p.workload,
        };
        let layers = &mut self.layers;
        let func = Arc::new(compile(&case, layers)?);
        let grid = SweepGrid::standard();
        let opts = DseOptions {
            threads: 1,
            prune: req.prune,
            analysis_cache_cap: 0,
            ..DseOptions::default()
        };
        let r = layers
            .time("dse.sweep", || {
                sweep(
                    &func,
                    &self.platform,
                    &case.workload,
                    &grid,
                    opts,
                    &AnalysisCache::new(),
                )
            })
            .map_err(|e| e.to_string())?;
        self.dse.add(&r, 1);
        let space = ConfigSpace::new(&limits_for(&func, &case.workload), &grid);
        probe_cold(&func, &self.platform, &case.workload, &space, layers);
        Ok(())
    }
}

/// Re-sweeps a served request offline; returns the summary JSON and,
/// when asked, the best point's model error against `flexcl-sim` (%).
fn offline(req: &Req, platform: &Platform, sim: bool) -> Result<(String, Option<f64>), String> {
    let p = prepare(
        req.src.src,
        Some(req.src.kernel),
        (req.global, 1),
        req.spec(),
    )
    .map_err(|e| e.to_string())?;
    let opts = DseOptions {
        prune: req.prune,
        ..DseOptions::default()
    };
    let r = explore_space(&p.func, platform, &p.workload, &SweepGrid::standard(), opts)
        .map_err(|e| e.to_string())?;
    let summary = SweepSummary::of(&r).to_json();
    if !sim {
        return Ok((summary, None));
    }
    let best = r.best().ok_or("no feasible point")?;
    let s = flexcl_sim::system_run(
        &p.func,
        platform,
        &p.workload,
        &best.config,
        flexcl_sim::SimOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok((
        summary,
        Some((best.estimate.cycles - s.cycles).abs() / s.cycles * 100.0),
    ))
}
