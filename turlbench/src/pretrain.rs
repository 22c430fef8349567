//! The `pretrain_small` workload: a fixed number of
//! `Pretrainer::train_step` calls on the experiment harness's config
//! (d=64), batches of 8 tables from the train split, starting from the
//! model's exported f32 artifact. The only workload that runs the
//! autograd tape, the backward pass and Adam.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use turl_core::{EncodedInput, Pretrainer, StepOutcome, TurlConfig};
use turl_data::TableInstance;
use turl_nn::{Forward, ParamStore};

use crate::report::Report;
use crate::stats;
use crate::trace::{SpanId, Spans};
use crate::world::{self, DType, World};

/// Optimizer steps per second of `--seconds`: the step count is fixed by
/// the run length, so the final loss is a pure function of seed and
/// length and repeats bit for bit.
const STEPS_PER_SECOND: f64 = 50.0;
/// Tables of the per-table tape forward/backward sample.
const TAPE_SAMPLE: usize = 48;

type Example = (TableInstance, EncodedInput);

struct Training {
    step_ms: Vec<f64>,
    /// Time inside `train_step` up to the end of each step, excluding
    /// the benchmark's batch copies.
    busy_s: Vec<f64>,
    failed: u64,
    final_loss: f32,
}

impl Training {
    /// The busy time the windows cut; the last step ends exactly at it,
    /// so nudge it inside.
    fn span(&self) -> f64 {
        self.busy_s.last().copied().unwrap_or(0.0) * (1.0 + 1e-9)
    }

    /// Steps per second of busy time, median over windows.
    fn rate(&self) -> f64 {
        stats::windowed_rate(&self.busy_s, self.span())
    }

    fn summary(&self) -> stats::Summary {
        let timed: Vec<(f64, f64)> =
            self.busy_s.iter().copied().zip(self.step_ms.iter().copied()).collect();
        stats::summarize_windowed(&timed, self.span())
    }
}

/// A pre-trainer whose parameters come from the loaded artifact.
fn trainer(world: &World, cfg: TurlConfig, store: &ParamStore) -> Result<Pretrainer, String> {
    let mut pt = Pretrainer::new(
        cfg,
        world.vocab.len(),
        world.kb.n_entities(),
        world.vocab.mask_id() as usize,
    );
    let copied = pt.store.load_matching(store);
    if copied != pt.store.len() {
        return Err(format!("artifact restored {copied}/{} parameters", pt.store.len()));
    }
    Ok(pt)
}

fn train(
    pt: &mut Pretrainer,
    world: &World,
    batches: &[Vec<usize>],
    data: &[Example],
    spans: &Spans,
) -> Training {
    let mut out =
        Training { step_ms: Vec::new(), busy_s: Vec::new(), failed: 0, final_loss: f32::NAN };
    let mut busy = 0.0;
    let mut batch = Vec::new();
    for idx in batches {
        batch.clear();
        batch.extend(idx.iter().map(|&i| data[i].clone()));
        let t = Instant::now();
        let outcome =
            spans.time("core.train_step", SpanId::NONE, || pt.train_step(&batch, &world.cooccur));
        let dt = t.elapsed().as_secs_f64();
        busy += dt;
        out.busy_s.push(busy);
        out.step_ms.push(dt * 1e3);
        match outcome {
            StepOutcome::Stepped(loss) if loss.is_finite() => out.final_loss = loss,
            _ => out.failed += 1,
        }
    }
    out
}

/// Time `TurlModel::encode` on a training-mode tape and `Graph::backward`
/// from an MLM loss, per table (outside the pool's data parallelism).
fn tape_sample(pt: &Pretrainer, data: &[Example], seed: u64, spans: &Spans) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A9E);
    for (_, enc) in data.iter().filter(|(_, e)| !e.token_ids.is_empty()).take(TAPE_SAMPLE) {
        let mut f = Forward::new(&pt.store);
        let h = spans.time("nn.tape_forward", SpanId::NONE, || {
            pt.model.encode(&mut f, &pt.store, &mut rng, enc)
        });
        let logits = pt.model.mlm_logits(&mut f, &pt.store, h, &[0]);
        let loss = f.graph.cross_entropy(logits, &[enc.token_ids[0]]);
        spans.time("tensor.backward", SpanId::NONE, || f.graph.backward(loss));
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<(), String> {
    let spans = Spans::new(trace);
    let cfg = TurlConfig::small(seed);
    let (world, loaded, setup_s) = world::set_up(seed, cfg, DType::F32, &spans)?;
    report.metric("setup_s", setup_s);
    let data: Vec<Example> =
        world.splits.train.iter().map(|t| world.encode(t, cfg.use_visibility)).collect();
    let bs = cfg.pretrain.batch_size;
    let n_steps = (seconds * STEPS_PER_SECOND).round().max(1.0) as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E9);
    let mut order: Vec<usize> = Vec::new();
    let batches: Vec<Vec<usize>> = (0..n_steps)
        .map(|_| {
            if order.len() < bs {
                let mut epoch: Vec<usize> = (0..data.len()).collect();
                epoch.shuffle(&mut rng);
                order.extend(epoch);
            }
            order.drain(..bs).collect()
        })
        .collect();
    crate::say(format!(
        "pretrain_small: {n_steps} steps of {bs} tables over {} train tables, d={}, pool width {}",
        data.len(),
        cfg.encoder.d_model,
        turl_tensor::pool::n_threads()
    ));

    let mut pt = trainer(&world, cfg, &loaded.store)?;
    let run = train(&mut pt, &world, &batches, &data, &Spans::new(false));
    report.phase("train_step", n_steps as u64, run.failed);
    let steps_per_s = run.rate();
    let s = run.summary();
    crate::say(format!(
        "steps_per_s = {steps_per_s:.4} 1/s (closed loop, median of {} windows)",
        stats::WINDOWS
    ));
    crate::say(format!(
        "per step: p50_ms = {:.4} ms, tail_ms = {:.4} ms ({}) over {} steps",
        s.p50,
        s.tail,
        stats::q_name(s.tail_q),
        s.n
    ));
    crate::say(format!("final loss {} bits 0x{:08x}", run.final_loss, run.final_loss.to_bits()));
    report.metric("ops_per_s", steps_per_s);
    report.metric("p50_ms", s.p50);
    if !trace {
        return Ok(());
    }
    report.metric("e2e.tail_ms", s.tail);

    let mut traced_pt = trainer(&world, cfg, &loaded.store)?;
    let traced = train(&mut traced_pt, &world, &batches, &data, &spans);
    report.phase("traced train_step", n_steps as u64, traced.failed);
    if traced.final_loss.to_bits() != run.final_loss.to_bits() {
        report.fail(format!(
            "pretrain_small: traced final loss {} differs from untraced {}",
            traced.final_loss, run.final_loss
        ));
    }
    let traced_rate = traced.rate();
    report.metric("trace.overhead_pct", (steps_per_s - traced_rate) / steps_per_s * 100.0);
    tape_sample(&traced_pt, &data, seed, &spans);
    report.metric("core.train_step_ms", spans.median_ms("core.train_step"));
    report.metric("nn.tape_forward_ms", spans.median_ms("nn.tape_forward"));
    report.metric("tensor.backward_ms", spans.median_ms("tensor.backward"));
    report.metric("kb.world_ms", spans.median_ms("kb.world"));
    report.metric("nn.artifact_load_ms", spans.median_ms("nn.artifact_load"));
    crate::write_spans(&spans, "pretrain_small", seed);
    Ok(())
}
