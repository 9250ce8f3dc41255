//! The traced run's layer breakdown. Requests recorded in the traced
//! window are replayed through each layer's public function with the
//! benchmark's own timers around every call, and the server's existing
//! counters and histograms are read as `stats` deltas over that window.
//! Nothing here adds a span or counter inside the program.

use crate::check::fnv1a;
use crate::verify::{optimize_stat, Sample};
use gp_checker::{analyze_program_with_cache, callgraph, parse, CheckConfig, SummaryCache};
use gp_core::frame::{encode_frame, FrameDecoder};
use gp_core::json::Json;
use gp_rewrite::egraph::{EGraph, OptimizeStats};
use gp_rewrite::{Simplifier, TermStore};
use gp_service::simplify::{handle_batch, SimplifyRequest};
use gp_service::{decode_request, encode_response, Request, Response, ResponseCache, ShardRouter};
use gp_telemetry::{HistSnapshot, Snapshot};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every per-layer metric: name, unit, and which direction is better.
pub const PER_LAYER: [(&str, &str, &str); 50] = [
    ("wire.echo_p50_us", "us", "lower"),
    ("reactor.overhead_p50_us", "us", "lower"),
    ("reactor.wakeups_per_req", "count", "lower"),
    ("reactor.pipeline_depth_mean", "count", "higher"),
    ("frame.decode_ns_per_kb", "ns/KB", "lower"),
    ("request.decode_p50_us", "us", "lower"),
    ("request.canonical_p50_us", "us", "lower"),
    ("response.encode_p50_us", "us", "lower"),
    ("request.bytes_mean", "B", "lower"),
    ("response.bytes_mean", "B", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evict_per_req", "count", "lower"),
    ("cache.get_p50_ns", "ns", "lower"),
    ("router.route_p50_ns", "ns", "lower"),
    ("router.max_shard_share", "ratio", "lower"),
    ("server.lint_p50_us", "us", "lower"),
    ("server.simplify_p50_us", "us", "lower"),
    ("server.optimize_p50_us", "us", "lower"),
    ("server.prove_p50_us", "us", "lower"),
    ("server.select_p50_us", "us", "lower"),
    ("queue.wait_p50_us", "us", "lower"),
    ("server.batch_mean", "count", "higher"),
    ("server.shed_ratio", "ratio", "lower"),
    ("checker.parse_p50_ms", "ms", "lower"),
    ("checker.discover_p50_ms", "ms", "lower"),
    ("checker.cold_p50_ms", "ms", "lower"),
    ("checker.cold_seq_p50_ms", "ms", "lower"),
    ("checker.par_speedup", "x", "higher"),
    ("checker.edit_p50_ms", "ms", "lower"),
    ("checker.cold_us_per_fn", "us", "lower"),
    ("checker.summary_hit_ratio", "ratio", "higher"),
    ("checker.fn_analyzed_per_req", "count", "lower"),
    ("rewrite.env_build_p50_us", "us", "lower"),
    ("rewrite.simplify_p50_us", "us", "lower"),
    ("rewrite.batch_p50_us", "us", "lower"),
    ("rewrite.memo_hits_per_req", "count", "higher"),
    ("rewrite.passes_per_req", "count", "lower"),
    ("rewrite.intern_hit_ratio", "ratio", "higher"),
    ("egraph.saturate_p50_us", "us", "lower"),
    ("egraph.extract_p50_us", "us", "lower"),
    ("egraph.nodes_per_req", "count", "lower"),
    ("egraph.iters_per_req", "count", "lower"),
    ("egraph.budget_hit_ratio", "ratio", "lower"),
    ("egraph.cost_ratio", "ratio", "lower"),
    ("prove.handle_p50_us", "us", "lower"),
    ("select.handle_p50_us", "us", "lower"),
    ("pool.jobs_per_req", "count", "lower"),
    ("pool.steals_per_req", "count", "lower"),
    ("attrib.unattributed_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
];

/// The request kinds a workload sends.
const KINDS: [&str; 5] = ["lint", "simplify", "optimize", "prove", "select"];

/// Median of `v` (0 when empty).
pub fn median(v: &mut [u64]) -> u64 {
    percentile(v, 0.5)
}

/// Nearest-rank `q`-quantile of `v` (0 when empty); sorts `v`.
pub fn percentile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A server registry snapshot rebuilt from a `stats` payload.
pub fn snapshot_from_stats(payload: &str) -> Result<Snapshot, String> {
    let j = Json::parse(payload).map_err(|e| format!("stats payload: {e}"))?;
    let metrics = j.get("metrics").ok_or("stats payload without metrics")?;
    let mut snap = Snapshot::default();
    if let Some(Json::Obj(fields)) = metrics.get("counters") {
        for (k, v) in fields {
            snap.counters
                .insert(k.clone(), v.as_f64().unwrap_or(0.0) as u64);
        }
    }
    if let Some(Json::Obj(fields)) = metrics.get("histograms") {
        for (k, h) in fields {
            let num = |f: &str| h.get(f).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let mut buckets = vec![0u64; gp_telemetry::metric::BUCKETS];
            for pair in h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
                if let Some([lo, c]) = pair.as_arr().map(|p| [p[0].clone(), p[1].clone()]) {
                    let lo = lo.as_f64().unwrap_or(0.0) as u64;
                    buckets[gp_telemetry::Histogram::bucket_of(lo)] +=
                        c.as_f64().unwrap_or(0.0) as u64;
                }
            }
            snap.histograms.insert(
                k.clone(),
                HistSnapshot {
                    count: num("count"),
                    sum: num("sum"),
                    min: num("min"),
                    max: num("max"),
                    buckets,
                },
            );
        }
    }
    Ok(snap)
}

/// What the traced run measured besides the replay itself.
pub struct TracedRun<'a> {
    /// Requests kept from the traced window, in send order.
    pub samples: &'a [Sample],
    /// Server registry delta over the traced window.
    pub delta: &'a Snapshot,
    /// Requests sent in the traced window.
    pub requests: u64,
    /// Every client latency of the traced window (ns).
    pub latencies_ns: Vec<u64>,
    /// Mean request and response frame sizes of the traced window.
    pub req_bytes_mean: f64,
    /// See `req_bytes_mean`.
    pub resp_bytes_mean: f64,
    /// Echo-floor p50 over loopback with the workload's frames (ns).
    pub echo_p50_ns: u64,
    /// Throughput of the traced and the untraced window (1/s).
    pub traced_rps: f64,
    /// See `traced_rps`.
    pub untraced_rps: f64,
    /// Wall-clock budget for the replay.
    pub budget: Duration,
}

fn ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let v = black_box(f());
    (v, t.elapsed().as_nanos() as u64)
}

/// Time `reps` calls of a nanosecond-scale operation; ns per call.
fn ns_each(reps: u32, mut f: impl FnMut()) -> u64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_nanos() as u64 / u64::from(reps)
}

#[derive(Default)]
struct Timings(BTreeMap<&'static str, Vec<u64>>);

impl Timings {
    fn push(&mut self, k: &'static str, v: u64) {
        self.0.entry(k).or_default().push(v);
    }
    fn p50(&mut self, k: &str) -> f64 {
        self.0.get_mut(k).map_or(0.0, |v| median(v) as f64)
    }
    fn count(&self, k: &str) -> usize {
        self.0.get(k).map_or(0, Vec::len)
    }
}

/// Replay and derive every per-layer metric.
pub fn layer_metrics(run: TracedRun<'_>, router: &ShardRouter) -> BTreeMap<&'static str, f64> {
    let start = Instant::now();
    let mut t = Timings::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Frame decoding, over the samples' frames as one byte stream.
    let mut wire = Vec::new();
    for s in run.samples {
        encode_frame(&mut wire, &s.item.frame);
    }
    if !wire.is_empty() {
        let mut spent = 0u64;
        let mut rounds = 0u64;
        while spent < 20_000_000 && rounds < 64 {
            let (_, dt) = ns(|| {
                let mut dec = FrameDecoder::new();
                let mut n = 0usize;
                for chunk in wire.chunks(64 << 10) {
                    dec.feed(chunk);
                    while let Ok(Some(f)) = dec.next_frame() {
                        n += f.len();
                    }
                }
                n
            });
            spent += dt;
            rounds += 1;
        }
        m.insert(
            "frame.decode_ns_per_kb",
            spent as f64 / rounds as f64 / (wire.len() as f64 / 1024.0),
        );
    }

    // The request path, one layer at a time: decode, canonicalize and
    // hash, route, cache lookup, handler on a miss, encode. The caches
    // are fresh instances of the deployment's (per shard: 8 stripes, 512
    // entries), fed the same stream, so hits and misses follow the
    // server's.
    let shards = router.shards();
    let caches: Vec<ResponseCache> = (0..shards)
        .map(|i| ResponseCache::with_label(8, 512, &format!("replay.shard.{i}.cache")))
        .collect();
    let mut lint = LintReplay::default();
    let mut path_ns = Vec::new();
    let mut hit_latency_ns = Vec::new();
    let mut kind_misses: HashMap<&str, (u64, u64)> = HashMap::new();
    let frame_ns_per_byte = m.get("frame.decode_ns_per_kb").copied().unwrap_or(0.0) / 1024.0;
    let path_budget = run.budget / 2;
    for s in run.samples {
        if start.elapsed() > path_budget {
            break;
        }
        let ((id, req), dec) =
            ns(|| decode_request(&s.item.frame).expect("replayed frames decode"));
        let (canonical, can) = ns(|| req.canonical());
        let (hash, hsh) = ns(|| fnv1a(canonical.as_bytes()));
        let shard = router.shard_of(&req);
        let route = ns_each(8, || {
            black_box(router.shard_of(black_box(&req)));
        });
        let (hit, get) = ns(|| caches[shard].get(hash, &canonical));
        let handler = match hit {
            Some(_) => {
                hit_latency_ns.push(s.latency_ns);
                0
            }
            None => {
                let dt = match &req {
                    Request::Lint(l) => lint.replay(l, s.item.edit, &mut t),
                    other => {
                        ns(|| {
                            other.handle().expect("handler answers");
                        })
                        .1
                    }
                };
                caches[shard].put(hash, &canonical, &s.payload);
                t.push(kind_key(req.kind()), dt);
                dt
            }
        };
        let e = kind_misses.entry(req.kind()).or_default();
        e.0 += 1;
        e.1 += u64::from(hit.is_none());
        let resp = Response::Ok {
            payload: s.payload.clone(),
        };
        let (_, enc) = ns(|| encode_response(id, &resp));
        t.push("request.decode", dec);
        t.push("request.canonical", can + hsh);
        t.push("router.route", route);
        t.push("cache.get", get);
        t.push("response.encode", enc);
        let frame = (s.item.frame.len() as f64 * frame_ns_per_byte) as u64;
        path_ns.push(frame + dec + can + hsh + route + get + handler + enc);
    }
    m.insert("request.decode_p50_us", t.p50("request.decode") / 1e3);
    m.insert("request.canonical_p50_us", t.p50("request.canonical") / 1e3);
    m.insert("response.encode_p50_us", t.p50("response.encode") / 1e3);
    m.insert("cache.get_p50_ns", t.p50("cache.get"));
    m.insert("router.route_p50_ns", t.p50("router.route"));
    m.insert("request.bytes_mean", run.req_bytes_mean);
    m.insert("response.bytes_mean", run.resp_bytes_mean);

    // Engine layers, one kind at a time, on the same requests.
    let layer_deadline = run.budget;
    let mut rewrite_batch: Vec<SimplifyRequest> = Vec::new();
    for s in run.samples {
        if start.elapsed() > layer_deadline {
            break;
        }
        let (_, req) = decode_request(&s.item.frame).expect("replayed frames decode");
        match &req {
            Request::Simplify(r) => {
                let (simp, build) = ns(|| Simplifier::with_env(r.env.build()));
                t.push("rewrite.env_build", build);
                let (_, dt) = ns(|| simp.simplify(&r.expr));
                t.push("rewrite.simplify", dt);
                if rewrite_batch
                    .first()
                    .is_some_and(|f| f.env.fingerprint() != r.env.fingerprint())
                {
                    rewrite_batch.clear();
                }
                rewrite_batch.push(r.clone());
                if rewrite_batch.len() == 8 {
                    let (_, dt) = ns(|| handle_batch(&rewrite_batch));
                    t.push("rewrite.batch", dt);
                    rewrite_batch.clear();
                }
            }
            Request::Optimize(r) => {
                let simp = Simplifier::superopt(r.env.build());
                let cost = r.cost.build();
                let mut store = TermStore::new();
                let root = store.intern_expr(&r.expr);
                let mut eg = EGraph::new(&simp, &mut store);
                let mut stats = OptimizeStats::default();
                let (_, sat) = ns(|| eg.saturate(&r.config(), &mut stats));
                let (_, ext) = ns(|| eg.extract(root, cost.as_ref()));
                t.push("egraph.saturate", sat);
                t.push("egraph.extract", ext);
            }
            Request::Prove(r) => {
                let (_, dt) = ns(|| gp_service::prove::handle(r));
                t.push("prove.handle", dt);
            }
            Request::Select(r) => {
                let (_, dt) = ns(|| gp_service::select::handle(r));
                t.push("select.handle", dt);
            }
            Request::Lint(_) | Request::Stats(_) | Request::Trace(_) => {}
        }
    }
    m.insert("rewrite.env_build_p50_us", t.p50("rewrite.env_build") / 1e3);
    m.insert("rewrite.simplify_p50_us", t.p50("rewrite.simplify") / 1e3);
    m.insert("rewrite.batch_p50_us", t.p50("rewrite.batch") / 1e3);
    m.insert("egraph.saturate_p50_us", t.p50("egraph.saturate") / 1e3);
    m.insert("egraph.extract_p50_us", t.p50("egraph.extract") / 1e3);
    m.insert("prove.handle_p50_us", t.p50("prove.handle") / 1e3);
    m.insert("select.handle_p50_us", t.p50("select.handle") / 1e3);
    m.insert("checker.parse_p50_ms", t.p50("checker.parse") / 1e6);
    m.insert("checker.discover_p50_ms", t.p50("checker.discover") / 1e6);
    let cold = t.p50("checker.cold");
    let cold_seq = t.p50("checker.cold_seq");
    m.insert("checker.cold_p50_ms", cold / 1e6);
    m.insert("checker.cold_seq_p50_ms", cold_seq / 1e6);
    m.insert(
        "checker.par_speedup",
        if cold > 0.0 { cold_seq / cold } else { 0.0 },
    );
    m.insert("checker.edit_p50_ms", t.p50("checker.edit") / 1e6);
    m.insert("checker.cold_us_per_fn", t.p50("checker.cold_per_fn") / 1e3);

    // Optimize answer quality, from the payloads.
    let opt: Vec<&Sample> = run
        .samples
        .iter()
        .filter(|s| s.item.kind == "optimize")
        .collect();
    let mean = |f: &dyn Fn(&Sample) -> Option<f64>| {
        let v: Vec<f64> = opt.iter().filter_map(|s| f(s)).collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    m.insert(
        "egraph.budget_hit_ratio",
        mean(&|s| optimize_stat(&s.payload, "budget-hit")),
    );
    m.insert(
        "egraph.cost_ratio",
        mean(&|s| {
            let before = optimize_stat(&s.payload, "cost-before")?;
            let after = optimize_stat(&s.payload, "cost-after")?;
            (before > 0.0).then(|| after / before)
        }),
    );

    server_metrics(&run, &mut t, &kind_misses, &mut m);

    // Front end and attribution against the echo floor.
    let echo = run.echo_p50_ns as f64;
    m.insert("wire.echo_p50_us", echo / 1e3);
    let hit_p50 = median(&mut hit_latency_ns) as f64;
    m.insert(
        "reactor.overhead_p50_us",
        if hit_p50 > 0.0 {
            (hit_p50 - echo) / 1e3
        } else {
            0.0
        },
    );
    let mut lat = run.latencies_ns.clone();
    let client_p50 = median(&mut lat) as f64;
    let path_p50 = median(&mut path_ns) as f64;
    m.insert(
        "attrib.unattributed_share",
        if client_p50 > 0.0 {
            (client_p50 - path_p50 - echo) / client_p50
        } else {
            0.0
        },
    );
    m.insert(
        "trace.overhead_ratio",
        if run.untraced_rps > 0.0 {
            run.traced_rps / run.untraced_rps
        } else {
            0.0
        },
    );
    m
}

fn kind_key(kind: &str) -> &'static str {
    match kind {
        "lint" => "handler.lint",
        "simplify" => "handler.simplify",
        "optimize" => "handler.optimize",
        "prove" => "handler.prove",
        _ => "handler.select",
    }
}

/// Metrics read from the server's own counters over the traced window.
fn server_metrics(
    run: &TracedRun<'_>,
    t: &mut Timings,
    kind_misses: &HashMap<&str, (u64, u64)>,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let d = run.delta;
    let reqs = run.requests.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let kind_reqs = |k: &str| d.counter(&format!("service.req.{k}"));

    m.insert(
        "reactor.wakeups_per_req",
        d.counter("service.reactor.wakeups") as f64 / reqs,
    );
    m.insert(
        "reactor.pipeline_depth_mean",
        d.histogram("service.reactor.pipeline.depth")
            .map_or(0.0, HistSnapshot::mean),
    );

    let per_shard: Vec<(u64, u64, u64)> = (0..64)
        .map(|i| {
            let c = |s: &str| d.counter(&format!("service.shard.{i}.cache.{s}"));
            (c("hit"), c("miss"), c("evict"))
        })
        .take_while(|&(h, mi, _)| h + mi > 0)
        .collect();
    let hits: u64 = per_shard.iter().map(|s| s.0).sum();
    let lookups: u64 = per_shard.iter().map(|s| s.0 + s.1).sum();
    let evicts: u64 = per_shard.iter().map(|s| s.2).sum();
    m.insert("cache.hit_ratio", ratio(hits, lookups));
    m.insert("cache.evict_per_req", evicts as f64 / reqs);
    m.insert(
        "router.max_shard_share",
        ratio(
            per_shard.iter().map(|s| s.0 + s.1).max().unwrap_or(0),
            lookups,
        ),
    );

    let mut wait_us = 0.0;
    let total: u64 = KINDS.iter().map(|k| kind_reqs(k)).sum();
    for (kind, name) in KINDS.iter().zip([
        "server.lint_p50_us",
        "server.simplify_p50_us",
        "server.optimize_p50_us",
        "server.prove_p50_us",
        "server.select_p50_us",
    ]) {
        let served = d
            .histogram(&format!("service.latency.{kind}.ns"))
            .map_or(0, |h| h.percentile(0.5)) as f64;
        m.insert(name, served / 1e3);
        if t.count(kind_key(kind)) > 0 {
            let handler = t.p50(kind_key(kind));
            wait_us += ratio(kind_reqs(kind), total) * (served - handler).max(0.0) / 1e3;
        }
    }
    m.insert("queue.wait_p50_us", wait_us);

    // Simplify jobs that reached a worker: the kind's requests less its
    // cache hits, estimated with the replayed caches' miss share.
    let (seen, missed) = kind_misses.get("simplify").copied().unwrap_or((0, 0));
    let queued = kind_reqs("simplify") as f64 * ratio(missed, seen);
    let merged = d.counter("service.batch.merged") as f64;
    m.insert(
        "server.batch_mean",
        if queued > merged {
            queued / (queued - merged)
        } else {
            0.0
        },
    );
    m.insert(
        "server.shed_ratio",
        ratio(d.counter("service.shed"), d.counter("service.accepted")),
    );

    let c = |k: &str| d.counter(k);
    m.insert(
        "checker.summary_hit_ratio",
        ratio(
            c("checker.summary.hit"),
            c("checker.summary.hit") + c("checker.summary.miss"),
        ),
    );
    let per = |n: u64, k: u64| if k == 0 { 0.0 } else { n as f64 / k as f64 };
    m.insert(
        "checker.fn_analyzed_per_req",
        per(c("checker.fn.analyzed"), kind_reqs("lint")),
    );
    let rewrites = kind_reqs("simplify") + kind_reqs("optimize");
    m.insert(
        "rewrite.memo_hits_per_req",
        per(c("rewrite.memo.hits"), rewrites),
    );
    m.insert("rewrite.passes_per_req", per(c("rewrite.passes"), rewrites));
    m.insert(
        "rewrite.intern_hit_ratio",
        ratio(
            c("rewrite.intern.hits"),
            c("rewrite.intern.hits") + c("rewrite.intern.misses"),
        ),
    );
    m.insert(
        "egraph.nodes_per_req",
        per(c("rewrite.egraph.nodes"), kind_reqs("optimize")),
    );
    m.insert(
        "egraph.iters_per_req",
        per(c("rewrite.egraph.iters"), kind_reqs("optimize")),
    );
    let jobs = d.counter_sum("pool.worker") + c("pool.help_jobs");
    m.insert("pool.jobs_per_req", jobs as f64 / reqs);
    m.insert("pool.steals_per_req", c("pool.steal_hit") as f64 / reqs);
}

/// The checker's layers for one `lint` request, against a private
/// summary cache per editor session (keyed by the request's name), so a
/// session's edits find its earlier summaries as the server's do.
#[derive(Default)]
struct LintReplay {
    sessions: HashMap<String, SummaryCache>,
}

impl LintReplay {
    /// Time each checker layer; returns what serving the request costs
    /// here (parse plus analysis against the session's cache).
    fn replay(&mut self, req: &gp_service::lint::LintRequest, edit: u32, t: &mut Timings) -> u64 {
        let cfg = CheckConfig {
            parallel: true,
            ..CheckConfig::default()
        };
        let (program, parse_ns) =
            ns(|| parse::parse(&req.name, &req.program).expect("programs parse"));
        t.push("checker.parse", parse_ns);
        let (_, dt) = ns(|| callgraph::discover(&program, cfg.max_context_depth));
        t.push("checker.discover", dt);
        let functions = program.functions.len() as u64 + 1;
        let seen = self.sessions.contains_key(&req.name);
        if edit == 0 {
            let fresh = SummaryCache::new(1 << 16);
            let (_, cold) = ns(|| analyze_program_with_cache(&program, &cfg, &fresh));
            let seq_cfg = CheckConfig {
                parallel: false,
                ..cfg.clone()
            };
            let fresh = SummaryCache::new(1 << 16);
            let (_, cold_seq) = ns(|| analyze_program_with_cache(&program, &seq_cfg, &fresh));
            t.push("checker.cold", cold);
            t.push("checker.cold_seq", cold_seq);
            t.push("checker.cold_per_fn", cold / functions);
        }
        let cache = self
            .sessions
            .entry(req.name.clone())
            .or_insert_with(|| SummaryCache::new(1 << 16));
        let (_, dt) = ns(|| analyze_program_with_cache(&program, &cfg, cache));
        // An edit counts once its session's earlier version is cached;
        // flat programs repeat whole, so a repeat is their warm path.
        if seen {
            t.push("checker.edit", dt);
        }
        parse_ns + dt
    }
}
