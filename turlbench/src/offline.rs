//! The `offline_int8` workload: `turl infer`'s loop — one compiled
//! forward per table over every table of the corpus, in a closed loop,
//! against the block-quantized int8 artifact at the default pool width.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use turl_core::{CompiledForward, EncodedInput, TurlModel};
use turl_nn::ParamStore;

use crate::flops::{self, FwdShape};
use crate::report::Report;
use crate::stats;
use crate::trace::{SpanId, Spans};
use crate::world::{self, DType};

/// Tables checked bit-exact against dequantize-then-run.
const VERIFY_TABLES: usize = 4;

struct Loop {
    latencies_ms: Vec<f64>,
    /// Completion time of each table since the loop started.
    done_s: Vec<f64>,
    elapsed_s: f64,
    failed: u64,
    flops: f64,
    weight_bytes: f64,
    forward_s: f64,
    compiles: u64,
}

/// Encode tables round-robin for `seconds`, with spans (if enabled)
/// around plan compilation and the forward.
fn encode_loop(
    model: &TurlModel,
    store: &ParamStore,
    inputs: &[EncodedInput],
    seconds: f64,
    spans: &Spans,
) -> Loop {
    let mut cf = model.compiled();
    let mut out = Loop {
        latencies_ms: Vec::new(),
        done_s: Vec::new(),
        elapsed_s: 0.0,
        failed: 0,
        flops: 0.0,
        weight_bytes: 0.0,
        forward_s: 0.0,
        compiles: 0,
    };
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let input = &inputs[i % inputs.len()];
        i += 1;
        let t = Instant::now();
        if spans.enabled() {
            let before = (cf.compiled_shapes(), cf.plan_evictions());
            if cf.plan_for(model, store, input).is_err() {
                out.failed += 1;
                continue;
            }
            if (cf.compiled_shapes(), cf.plan_evictions()) != before {
                spans.record("core.plan_compile", SpanId::NONE, t, Instant::now());
                out.compiles += 1;
            }
        }
        let tf = Instant::now();
        let h = spans.time("core.forward", SpanId::NONE, || cf.encode(model, store, input));
        let done = Instant::now();
        match h {
            Ok(h) if h.shape() == [input.seq_len(), model.d_model()] => {
                std::hint::black_box(h);
            }
            _ => out.failed += 1,
        }
        out.latencies_ms.push((done - t).as_secs_f64() * 1e3);
        out.done_s.push((done - start).as_secs_f64());
        out.forward_s += (done - tf).as_secs_f64();
        let shape = FwdShape::of(input);
        out.flops += flops::forward_flops(&model.cfg, shape);
        out.weight_bytes += flops::forward_weight_bytes(store, shape);
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Quantized ≡ dequantize-then-run: the int8 forward of sampled tables
/// must equal, bit for bit, the f32 forward over dequantized weights.
fn verify(
    model: &TurlModel,
    store: &ParamStore,
    inputs: &[EncodedInput],
    seed: u64,
    report: &mut Report,
) {
    let mut deq = ParamStore::new();
    for id in store.ids() {
        deq.register_inference(store.name(id).to_string(), store.value(id).dequantize());
    }
    let (mut cq, mut cd) = (CompiledForward::new(), CompiledForward::new());
    let mut idx: Vec<usize> = (0..inputs.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x18));
    let mut failed = 0;
    for &i in idx.iter().take(VERIFY_TABLES) {
        let q = cq.encode(model, store, &inputs[i]);
        let d = cd.encode(model, &deq, &inputs[i]);
        let same = match (&q, &d) {
            (Ok(q), Ok(d)) => {
                q.data().iter().map(|v| v.to_bits()).eq(d.data().iter().map(|v| v.to_bits()))
            }
            _ => false,
        };
        if !same {
            crate::say(format!("table {i}: int8 forward differs from dequantize-then-run"));
            failed += 1;
        }
    }
    report.phase("verify", VERIFY_TABLES.min(inputs.len()) as u64, failed);
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<(), String> {
    let spans = Spans::new(trace);
    let (world, loaded, setup_s) =
        world::set_up(seed, world::paper_config(seed), DType::Int8, &spans)?;
    report.metric("setup_s", setup_s);
    let mut tables = world.all_tables();
    tables.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0FF));
    let inputs: Vec<EncodedInput> = tables.iter().map(|t| world.encode(t, true).1).collect();
    let quantized =
        loaded.store.ids().filter(|&id| loaded.store.value(id).quantized().is_some()).count();
    let corpus_gflop: f64 = inputs
        .iter()
        .map(|i| flops::forward_flops(&loaded.model.cfg, FwdShape::of(i)))
        .sum::<f64>()
        / 1e9;
    crate::say(format!(
        "offline_int8: {} tables, {:.4} computed GFLOP per table on average, {quantized}/{} tensors int8, pool width {}",
        inputs.len(),
        corpus_gflop / inputs.len().max(1) as f64,
        loaded.store.len(),
        turl_tensor::pool::n_threads()
    ));

    let run = encode_loop(&loaded.model, &loaded.store, &inputs, seconds, &Spans::new(false));
    report.phase("encode", run.latencies_ms.len() as u64, run.failed);
    let tables_per_s = stats::windowed_rate(&run.done_s, run.elapsed_s);
    let timed: Vec<(f64, f64)> =
        run.done_s.iter().copied().zip(run.latencies_ms.iter().copied()).collect();
    let s = stats::summarize_windowed(&timed, run.elapsed_s);
    let n = run.latencies_ms.len().max(1) as f64;
    crate::say(format!(
        "tables_per_s = {tables_per_s:.4} 1/s (closed loop, median of {} windows)",
        stats::WINDOWS
    ));
    crate::say(format!(
        "per table: p50_ms = {:.4} ms, tail_ms = {:.4} ms ({}) over {} tables; {:.4} GFLOP and {:.3} MB of weights per table (computed)",
        s.p50,
        s.tail,
        stats::q_name(s.tail_q),
        s.n,
        run.flops / n / 1e9,
        run.weight_bytes / n / 1e6
    ));
    report.metric("ops_per_s", tables_per_s);
    report.metric("p50_ms", s.p50);
    verify(&loaded.model, &loaded.store, &inputs, seed, report);
    if !trace {
        return Ok(());
    }
    report.metric("e2e.tail_ms", s.tail);

    let traced = encode_loop(&loaded.model, &loaded.store, &inputs, seconds, &spans);
    report.phase("traced encode", traced.latencies_ms.len() as u64, traced.failed);
    let traced_rate = stats::windowed_rate(&traced.done_s, traced.elapsed_s);
    let n = traced.latencies_ms.len().max(1) as f64;
    report.metric("trace.overhead_pct", (tables_per_s - traced_rate) / tables_per_s * 100.0);
    report.metric("core.forward_ms", spans.median_ms("core.forward"));
    report.metric("core.forward_gflops", traced.flops / traced.forward_s.max(1e-12) / 1e9);
    report.metric("core.forward_weight_mb", traced.weight_bytes / n / 1e6);
    report.metric("core.plan_compile_ms", spans.median_ms("core.plan_compile"));
    report.metric("core.plan_cache.hit_ratio", 1.0 - traced.compiles as f64 / n);
    report.metric("kb.world_ms", spans.median_ms("kb.world"));
    report.metric("nn.artifact_load_ms", spans.median_ms("nn.artifact_load"));
    crate::write_spans(&spans, "offline_int8", seed);
    Ok(())
}
