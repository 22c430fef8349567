//! The serve workloads: an in-process `turl serve` daemon with default
//! options, driven over kept-alive HTTP connections by an open-loop
//! generator at a light and a heavy fixed rate, then by a closed loop.
//!
//! The traced run repeats the live phases with spans around every
//! client call, then replays the same request sequence, in the order
//! the server received it, through the public calls the server makes:
//! `Session::build_job`, the cache key, `EncodeCache::get`,
//! `CompiledForward::plan_for`/`encode`, `TableBatch::build`/`extract`
//! and `Session::apply_head`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use turl_core::{CompiledForward, TableBatch};
use turl_serve::cache::{self, EncodeCache};
use turl_serve::{Client, Head, MetricsResponse, ServeOptions, ServerHandle, Session};
use turl_tensor::Tensor;

use crate::flops::{self, FwdShape};
use crate::load::{self, Plan, Sample, WallClock};
use crate::report::Report;
use crate::requests::{self, Req};
use crate::stats;
use crate::trace::{SpanId, Spans};
use crate::world::{self, DType};

/// A serve workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub name: &'static str,
    pub cold: bool,
    /// Open-loop arrival rates (requests/s).
    pub light_rps: f64,
    pub heavy_rps: f64,
    /// Latency limit a closed-loop completion must meet to count as
    /// goodput.
    pub limit_ms: f64,
}

pub const COLD: ServeSpec =
    ServeSpec { name: "serve_cold", cold: true, light_rps: 10.0, heavy_rps: 18.0, limit_ms: 250.0 };
pub const HOT: ServeSpec =
    ServeSpec { name: "serve_hot", cold: false, light_rps: 20.0, heavy_rps: 40.0, limit_ms: 50.0 };

/// Share of the run each phase gets: light, heavy, closed.
const PHASE_SHARE: [f64; 3] = [0.5, 0.15, 0.35];
/// Generator threads, each with one kept-alive connection.
const CLIENTS: usize = 2;
/// One cold request in this many is kept and verified against the
/// offline computation after the timed phases.
const COLD_VERIFY_EVERY: usize = 12;
/// Requests timed over one connection for the transport estimate.
const TRANSPORT_SAMPLES: usize = 48;
/// Minimum encode-cache hit ratio of the hot phases.
const HOT_MIN_HIT_RATIO: f64 = 0.95;

/// The request stream of a workload: global index → pool entry.
struct Stream {
    spec: ServeSpec,
    seed: u64,
    pool: Vec<Req>,
}

impl Stream {
    fn pick(&self, i: usize) -> usize {
        if self.spec.cold {
            i % self.pool.len()
        } else {
            requests::shuffled_index(self.seed, i, self.pool.len())
        }
    }

    fn req(&self, i: usize) -> &Req {
        &self.pool[self.pick(i)]
    }
}

/// Server-side counters from `/metrics.json`, differenced over the
/// timed phases.
#[derive(Debug, Clone, Copy)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    batches: u64,
    batched_tables: u64,
    rejected: u64,
}

/// Scrape over a generator connection: the default server has one
/// acceptor per connection, so a third connection would queue behind
/// the kept-alive ones.
fn scrape(client: &mut Client) -> Result<Counters, String> {
    let (status, body) = client.get("/metrics.json")?;
    if status != 200 {
        return Err(format!("/metrics.json answered {status}"));
    }
    let m: MetricsResponse =
        serde_json::from_str(&body).map_err(|e| format!("bad /metrics.json: {e}"))?;
    Ok(Counters {
        cache_hits: m.cache_hits,
        cache_misses: m.cache_misses,
        batches: m.batches,
        batched_tables: m.batched_tables,
        rejected: m.rejected_overload,
    })
}

fn delta(a: Counters, b: Counters) -> Counters {
    Counters {
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        batches: b.batches - a.batches,
        batched_tables: b.batched_tables - a.batched_tables,
        rejected: b.rejected - a.rejected,
    }
}

/// One live phase: its samples, whose indices count from `base` in the
/// stream.
struct Phase {
    name: &'static str,
    base: usize,
    samples: Vec<Sample>,
    /// Planned length; open-loop due times fall inside it.
    planned: Duration,
    elapsed: Duration,
}

/// The live phases of one server lifetime.
struct Live {
    /// Hot warm-up requests sent, and those that failed or returned a
    /// wrong body.
    warm: (u64, u64),
    phases: Vec<Phase>,
    counters: Counters,
    /// Cold responses kept for verification, by global index.
    kept: HashMap<usize, String>,
}

/// Expected bodies of the hot working set: (served fresh, served from
/// the cache).
type Expected = Vec<(String, String)>;

/// The offline bodies of `req` — decode, compiled forward, head — as
/// served fresh and as served from the cache.
fn offline_bodies(
    session: &Session,
    cf: &mut CompiledForward,
    req: &Req,
) -> Result<(String, String), String> {
    let (input, head) = session.build_job(req.path, &req.body).map_err(|e| e.to_json())?;
    let h = cf.encode(session.model(), session.store(), &input).map_err(|e| e.to_string())?;
    let body = |cached| session.apply_head(cf, &head, &h, cached).map_err(|e| e.to_json());
    Ok((body(false)?, body(true)?))
}

fn is_verified(seed: u64, i: usize) -> bool {
    requests::shuffled_index(seed, i, COLD_VERIFY_EVERY) == 0
}

/// Run the live phases against a fresh server, with spans (if enabled)
/// around every client call. Returns the server still running.
fn live(
    stream: &Stream,
    session: &Arc<Session>,
    expected: &Expected,
    seconds: f64,
    spans: &Spans,
) -> Result<(Live, ServerHandle), String> {
    let opts = ServeOptions { addr: "127.0.0.1:0".into(), ..ServeOptions::default() };
    let server = turl_serve::start(Arc::clone(session), &opts)?;
    let addr = server.addr().to_string();
    let spec = stream.spec;
    let kept = Mutex::new(HashMap::new());
    let mut clients: Vec<Client> = (0..CLIENTS).map(|_| Client::new(&addr)).collect();

    // Hot: fill the encode cache with the working set before timing.
    let mut warm = (0, 0);
    if !spec.cold {
        for (k, req) in stream.pool.iter().enumerate() {
            warm.0 += 1;
            match clients[0].post(req.path, &req.body) {
                Ok((200, body)) if body == expected[k].0 || body == expected[k].1 => {}
                _ => warm.1 += 1,
            }
        }
    }

    let mut phases = Vec::new();
    let mut base = 0usize;
    let before = scrape(&mut clients[0])?;
    let plan = [("light", Some(spec.light_rps)), ("heavy", Some(spec.heavy_rps)), ("closed", None)];
    for ((name, rate), share) in plan.into_iter().zip(PHASE_SHARE) {
        let planned = Duration::from_secs_f64(seconds * share);
        let send = |client: &mut Client, i: usize| -> bool {
            let g = base + i;
            let req = stream.req(g);
            let resp = spans.time("client.post", SpanId::NONE, || client.post(req.path, &req.body));
            let Ok((200, body)) = resp else { return false };
            if spec.cold {
                let fresh = body.ends_with("\"cached\":false}");
                if fresh && is_verified(stream.seed, g) {
                    kept.lock().expect("kept bodies poisoned").insert(g, body);
                }
                fresh
            } else {
                let (a, b) = &expected[stream.pick(g)];
                body == *a || body == *b
            }
        };
        let (samples, elapsed) = match rate {
            Some(rps) => {
                let n = (rps * planned.as_secs_f64()).round() as usize;
                let groups: Vec<usize> = (0..n).map(|i| stream.req(base + i).group).collect();
                let dues = load::open_schedule(&groups, rps);
                load::drive(&WallClock::new(), &mut clients, Plan::Open(&dues), &send)
            }
            None => load::drive(&WallClock::new(), &mut clients, Plan::Closed(planned), &send),
        };
        let n = samples.len();
        phases.push(Phase { name, base, samples, planned, elapsed });
        base += n;
    }
    let counters = delta(before, scrape(&mut clients[0])?);
    let kept = kept.into_inner().expect("kept bodies poisoned");
    Ok((Live { warm, phases, counters, kept }, server))
}

/// What the live phases measured.
struct Measured {
    light: stats::Summary,
    heavy: stats::Summary,
    goodput: f64,
    /// Tail of generator lateness over both open-loop phases.
    lateness: stats::Summary,
    totals: Counters,
}

fn measure(spec: ServeSpec, live: &Live) -> Measured {
    let latency = |p: &Phase| {
        let timed: Vec<(f64, f64)> =
            p.samples.iter().map(|s| (s.due.as_secs_f64(), s.latency_ms())).collect();
        stats::summarize_windowed(&timed, p.planned.as_secs_f64())
    };
    let closed = &live.phases[2];
    let done: Vec<(f64, f64, bool)> =
        closed.samples.iter().map(|s| (s.done.as_secs_f64(), s.latency_ms(), s.ok)).collect();
    let lateness: Vec<f64> =
        live.phases[..2].iter().flat_map(|p| p.samples.iter().map(Sample::lateness_ms)).collect();
    Measured {
        light: latency(&live.phases[0]),
        heavy: latency(&live.phases[1]),
        goodput: stats::goodput(&done, spec.limit_ms, closed.elapsed.as_secs_f64()),
        lateness: stats::summarize(&lateness),
        totals: live.counters,
    }
}

/// Count the live phases' requests and check the encode-cache gates.
fn gate(spec: ServeSpec, live: &Live, m: &Measured, report: &mut Report) {
    if !spec.cold {
        report.phase("warm-up", live.warm.0, live.warm.1);
    }
    for p in &live.phases {
        let failed = p.samples.iter().filter(|s| !s.ok).count() as u64;
        report.phase(p.name, p.samples.len() as u64, failed);
    }
    let (hits, misses) = (m.totals.cache_hits, m.totals.cache_misses);
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    crate::say(format!(
        "serve.cache.hit_ratio (server) = {ratio:.4} over {} lookups",
        hits + misses
    ));
    if spec.cold && hits != 0 {
        report.fail(format!("serve_cold: encode cache hit {hits} times; inputs must never repeat"));
    }
    if !spec.cold && ratio < HOT_MIN_HIT_RATIO {
        report.fail(format!("serve_hot: encode-cache hit ratio {ratio:.3} < {HOT_MIN_HIT_RATIO}"));
    }
}

/// Print the end-to-end figures under the names the README uses.
fn print(spec: ServeSpec, m: &Measured) {
    crate::say(format!(
        "goodput_rps = {:.4} 1/s (closed loop, 200s within {} ms)",
        m.goodput, spec.limit_ms
    ));
    for (label, s, rps) in
        [("light", &m.light, spec.light_rps), ("heavy", &m.heavy, spec.heavy_rps)]
    {
        crate::say(format!(
            "p50_ms.{label} = {:.4} ms ({} requests at {rps} rps, timed from due)",
            s.p50, s.n
        ));
        crate::say(format!("tail_ms.{label} = {:.4} ms ({})", s.tail, stats::q_name(s.tail_q)));
    }
    crate::say(format!(
        "gen.lateness_ms = {:.4} ms ({}); serve.rejected = {}",
        m.lateness.tail,
        stats::q_name(m.lateness.tail_q),
        m.totals.rejected
    ));
}

/// Check the kept cold responses byte-for-byte against the offline path.
fn verify_cold(
    stream: &Stream,
    session: &Session,
    live: &Live,
    report: &mut Report,
) -> Result<(), String> {
    let mut cf = session.model().compiled();
    let mut keys: Vec<&usize> = live.kept.keys().collect();
    keys.sort();
    let mut failed = 0;
    for &g in keys {
        let (want, _) = offline_bodies(session, &mut cf, stream.req(g))?;
        if live.kept[&g] != want {
            crate::say(format!(
                "serve_cold request {g}: served body differs from the offline body"
            ));
            failed += 1;
        }
    }
    report.phase("verify", live.kept.len() as u64, failed);
    Ok(())
}

/// Per-layer statistics gathered by the replay.
#[derive(Default)]
struct Replay {
    hits: u64,
    lookups: u64,
    compiles: u64,
    forwards: u64,
    flops: f64,
    weight_bytes: f64,
    forward_s: f64,
    response_bytes: f64,
    responses: u64,
}

/// The layers the server runs for one request, timed under `root`.
/// Returns the body and whether the encode cache hit.
fn serve_in_process(
    session: &Session,
    cf: &mut CompiledForward,
    cache: &EncodeCache,
    req: &Req,
    spans: &Spans,
    root: SpanId,
    stats: &mut Replay,
) -> Result<(String, bool), String> {
    let (input, head) = spans
        .time("serve.decode", root, || session.build_job(req.path, &req.body))
        .map_err(|e| e.to_json())?;
    let (key, hash) = spans.time("serve.cache_key", root, || {
        let key = cache::canonical_bytes(&input);
        let hash = cache::fnv1a(&key);
        (key, hash)
    });
    let hit = spans.time("serve.cache_get", root, || cache.get(hash, &key));
    let cached = hit.is_some();
    let h = match hit {
        Some(h) => h,
        None => {
            let (model, store) = (session.model(), session.store());
            let before = (cf.compiled_shapes(), cf.plan_evictions());
            let t = Instant::now();
            cf.plan_for(model, store, &input).map_err(|e| e.to_string())?;
            if (cf.compiled_shapes(), cf.plan_evictions()) != before {
                spans.record("core.plan_compile", root, t, Instant::now());
                stats.compiles += 1;
            }
            let t = Instant::now();
            let h = spans
                .time("core.forward", root, || cf.encode(model, store, &input))
                .map_err(|e| e.to_string())?;
            stats.forward_s += t.elapsed().as_secs_f64();
            stats.forwards += 1;
            let shape = FwdShape::of(&input);
            stats.flops += flops::forward_flops(&model.cfg, shape);
            stats.weight_bytes += flops::forward_weight_bytes(store, shape);
            let h = Arc::new(h);
            cache.put(hash, key, Arc::clone(&h));
            h
        }
    };
    let head_span = match head {
        Head::Encode => "serve.head.encode",
        Head::Rank { .. } => "serve.head.rank",
        Head::Pool { .. } => "serve.head.pool",
    };
    let body = spans
        .time(head_span, root, || session.apply_head(cf, &head, &h, cached))
        .map_err(|e| e.to_json())?;
    stats.response_bytes += body.len() as f64;
    stats.responses += 1;
    Ok((body, cached))
}

/// Replay the traced run's requests in the order the server received
/// them (phase by phase, by send time), through the server's layers.
fn replay(
    stream: &Stream,
    session: &Session,
    live: &Live,
    spans: &Spans,
) -> Result<Replay, String> {
    let mut cf = session.model().compiled();
    let defaults = ServeOptions::default();
    cf.set_plan_cache_cap(defaults.plan_cache_cap);
    let cache = EncodeCache::new(defaults.cache_cap);
    let mut stats = Replay::default();
    // Hot: the warm-up pass the live run made first.
    if !stream.spec.cold {
        for req in &stream.pool {
            let root = spans.open("serve.request", SpanId::NONE);
            serve_in_process(session, &mut cf, &cache, req, spans, root, &mut stats)?;
            spans.close(root);
        }
        stats.hits = 0;
        stats.lookups = 0;
    }
    for p in &live.phases {
        let mut order: Vec<&Sample> = p.samples.iter().collect();
        order.sort_by_key(|s| s.sent);
        for s in order {
            let root = spans.open("serve.request", SpanId::NONE);
            let (_, hit) = serve_in_process(
                session,
                &mut cf,
                &cache,
                stream.req(p.base + s.index),
                spans,
                root,
                &mut stats,
            )?;
            spans.close(root);
            stats.hits += u64::from(hit);
            stats.lookups += 1;
        }
    }
    // Batch assembly: what two connections can present at once — each
    // consecutive pair of one sweep, coalesced and split again.
    let n = stream.pool.len().min(live.phases.iter().map(|p| p.samples.len()).sum());
    for i in 1..n {
        let (a, b) = (stream.req(i - 1), stream.req(i));
        if a.group != b.group || a.path != b.path {
            continue;
        }
        let (ia, _) = session.build_job(a.path, &a.body).map_err(|e| e.to_json())?;
        let (ib, _) = session.build_job(b.path, &b.body).map_err(|e| e.to_json())?;
        let t = Instant::now();
        let batch = TableBatch::build(&[&ia, &ib]).map_err(|e| e.to_string())?;
        let hb = Tensor::zeros(vec![batch.input().seq_len(), session.d_model()]);
        std::hint::black_box((batch.extract(0, &hb), batch.extract(1, &hb)));
        spans.record("core.batch_build", SpanId::NONE, t, Instant::now());
    }
    Ok(stats)
}

/// Round trips over one connection minus the in-process layers of the
/// same request; also checks each served body against the offline one.
fn transport(
    stream: &Stream,
    session: &Session,
    addr: &str,
    total: usize,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let mut client = Client::new(addr);
    let mut cf = session.model().compiled();
    let hits = EncodeCache::new(ServeOptions::default().cache_cap);
    let off = Spans::new(false);
    let (mut out, mut failed) = (Vec::new(), 0);
    for k in 0..TRANSPORT_SAMPLES {
        let g = requests::shuffled_index(stream.seed ^ 0x7A, k, total.max(1));
        let req = stream.req(g);
        let t = Instant::now();
        let resp = client.post(req.path, &req.body);
        let rtt = t.elapsed().as_secs_f64();
        let Ok((200, body)) = resp else {
            crate::say(format!("transport sample {g}: request failed"));
            failed += 1;
            continue;
        };
        // Put a local cache in the server's state for this request,
        // untimed: holding the entry on a hit, empty (with the plan
        // compiled) on a miss.
        let cached = body.ends_with("\"cached\":true}");
        let empty = EncodeCache::new(1);
        if cached {
            serve_in_process(
                session,
                &mut cf,
                &hits,
                req,
                &off,
                SpanId::NONE,
                &mut Replay::default(),
            )?;
        } else {
            let (input, _) = session.build_job(req.path, &req.body).map_err(|e| e.to_json())?;
            cf.plan_for(session.model(), session.store(), &input).map_err(|e| e.to_string())?;
        }
        let local_cache = if cached { &hits } else { &empty };
        let t = Instant::now();
        let (local, _) = serve_in_process(
            session,
            &mut cf,
            local_cache,
            req,
            &off,
            SpanId::NONE,
            &mut Replay::default(),
        )?;
        let layers = t.elapsed().as_secs_f64();
        if local != body {
            crate::say(format!("transport sample {g}: served body differs from the offline body"));
            failed += 1;
        }
        out.push((rtt - layers) * 1e6);
    }
    report.phase("transport", TRANSPORT_SAMPLES as u64, failed);
    Ok(out)
}

/// Run a serve workload and fill `report`.
pub fn run(
    spec: ServeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let spans = Spans::new(trace);
    let (world, loaded, setup_s) =
        world::set_up(seed, world::paper_config(seed), DType::F32, &spans)?;
    report.metric("setup_s", setup_s);
    let session = Arc::new(Session::new(loaded.model, loaded.store, world.vocab.clone(), true));
    let pool = if spec.cold {
        requests::cold_pool(seed, &world, &session)
    } else {
        requests::hot_working_set(seed, &world, &session)
    };
    crate::say(format!(
        "{}: {} distinct requests in the pool; rates {} / {} rps; latency limit {} ms",
        spec.name,
        pool.len(),
        spec.light_rps,
        spec.heavy_rps,
        spec.limit_ms
    ));
    let stream = Stream { spec, seed, pool };
    let expected: Expected = if spec.cold {
        Vec::new()
    } else {
        let mut cf = session.model().compiled();
        stream
            .pool
            .iter()
            .map(|r| offline_bodies(&session, &mut cf, r))
            .collect::<Result<_, String>>()?
    };

    let (untraced, server) = live(&stream, &session, &expected, seconds, &Spans::new(false))?;
    server.shutdown();
    let m = measure(spec, &untraced);
    gate(spec, &untraced, &m, report);
    if spec.cold {
        verify_cold(&stream, &session, &untraced, report)?;
    }
    print(spec, &m);
    report.metric("ops_per_s", m.goodput);
    report.metric("p50_ms", m.light.p50);
    if !trace {
        return Ok(());
    }
    report.metric("e2e.tail_ms", m.light.tail);
    report.metric("e2e.heavy.p50_ms", m.heavy.p50);
    report.metric("e2e.heavy.tail_ms", m.heavy.tail);
    report.metric("gen.lateness_ms", m.lateness.tail);
    report.metric("serve.rejected", m.totals.rejected as f64);
    report.metric(
        "serve.batch.occupancy",
        m.totals.batched_tables as f64 / m.totals.batches.max(1) as f64,
    );

    // Traced run: the same inputs on a fresh server, spans on.
    let (traced, server) = live(&stream, &session, &expected, seconds, &spans)?;
    for p in &traced.phases {
        let failed = p.samples.iter().filter(|s| !s.ok).count() as u64;
        report.phase(&format!("traced {}", p.name), p.samples.len() as u64, failed);
    }
    let traced_goodput = measure(spec, &traced).goodput;
    report.metric("trace.overhead_pct", (m.goodput - traced_goodput) / m.goodput * 100.0);
    let r = replay(&stream, &session, &traced, &spans)?;
    report.metric("core.forward_ms", spans.median_ms("core.forward"));
    report.metric("core.forward_gflops", r.flops / r.forward_s.max(1e-12) / 1e9);
    report.metric("core.forward_weight_mb", r.weight_bytes / r.forwards.max(1) as f64 / 1e6);
    report.metric("core.plan_compile_ms", spans.median_ms("core.plan_compile"));
    report.metric("core.plan_cache.hit_ratio", 1.0 - r.compiles as f64 / r.forwards.max(1) as f64);
    report.metric("core.batch_build_us", spans.median_ms("core.batch_build") * 1e3);
    report.metric("serve.decode_us", spans.median_ms("serve.decode") * 1e3);
    report.metric("serve.cache_key_us", spans.median_ms("serve.cache_key") * 1e3);
    report.metric("serve.cache.hit_ratio", r.hits as f64 / r.lookups.max(1) as f64);
    report.metric("serve.head_us.encode", spans.median_ms("serve.head.encode") * 1e3);
    report.metric("serve.head_us.rank", spans.median_ms("serve.head.rank") * 1e3);
    report.metric("serve.head_us.pool", spans.median_ms("serve.head.pool") * 1e3);
    report.metric("serve.response_kb", r.response_bytes / r.responses.max(1) as f64 / 1e3);
    let self_ms = crate::trace::self_times_ms(&spans.finished(), "serve.request");
    crate::say(format!(
        "replay: serve.request self time p50 {:.4} ms (outside the timed layers)",
        stats::median(&self_ms)
    ));

    let total: usize = traced.phases.iter().map(|p| p.samples.len()).sum();
    let tr = transport(&stream, &session, &server.addr().to_string(), total, report);
    server.shutdown();
    report.metric("serve.transport_us", stats::median(&tr?));
    report.metric("kb.world_ms", spans.median_ms("kb.world"));
    report.metric("nn.artifact_load_ms", spans.median_ms("nn.artifact_load"));
    crate::write_spans(&spans, spec.name, seed);
    Ok(())
}
