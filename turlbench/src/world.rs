//! Benchmark set-up: the synthetic world, the vocabulary, and a seeded
//! model round-tripped through a `turl export` artifact — built the way
//! `turl serve` builds them, from nothing but the seed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use turl_core::{EncodedInput, TurlConfig, TurlModel};
use turl_data::{LinearizeConfig, Table, TableInstance, Vocab};
use turl_kb::{
    generate_corpus, identify_relational, partition, CooccurrenceIndex, CorpusConfig, CorpusSplits,
    KnowledgeBase, PipelineConfig, WorldConfig,
};
use turl_nn::{ExportOptions, ParamStore};

use crate::trace::{SpanId, Spans};

/// World size: the defaults of `turl serve` / `turl infer`.
const N_ENTITIES: usize = 800;
/// Corpus size before the relational filter.
const N_TABLES: usize = 400;

/// The knowledge base, its corpus split, and the vocabulary built from
/// the training split.
pub struct World {
    pub kb: KnowledgeBase,
    pub splits: CorpusSplits,
    pub vocab: Vocab,
    pub cooccur: CooccurrenceIndex,
}

impl World {
    /// Generate the world for `seed`, exactly as the CLI's set-up does.
    pub fn build(seed: u64) -> World {
        let kb = KnowledgeBase::generate(&WorldConfig {
            n_entities: N_ENTITIES,
            ..WorldConfig::small(seed)
        });
        let pcfg = PipelineConfig { max_eval_tables: (N_TABLES / 8).max(10), ..Default::default() };
        let corpus = generate_corpus(
            &kb,
            &CorpusConfig { n_tables: N_TABLES, ..CorpusConfig::small(seed + 1) },
        );
        let splits = partition(identify_relational(corpus, &pcfg), &pcfg);
        let texts: Vec<String> = splits
            .train
            .iter()
            .flat_map(|t| {
                let mut v = vec![t.full_caption()];
                v.extend(t.headers.clone());
                v.extend(t.rows.iter().flatten().map(|c| c.text.clone()));
                v
            })
            .chain(kb.entities.iter().map(|e| e.description.clone()))
            .collect();
        let vocab = Vocab::build(texts.iter().map(String::as_str), 1);
        let cooccur = CooccurrenceIndex::build(&splits.train);
        World { kb, splits, vocab, cooccur }
    }

    /// Every table of the corpus: train, then validation, then test.
    pub fn all_tables(&self) -> Vec<&Table> {
        self.splits.train.iter().chain(&self.splits.validation).chain(&self.splits.test).collect()
    }

    /// Linearize and encode `table` the way the server's session does.
    pub fn encode(&self, table: &Table, use_visibility: bool) -> (TableInstance, EncodedInput) {
        let inst = TableInstance::from_table(table, &self.vocab, &LinearizeConfig::default());
        let enc = EncodedInput::from_instance(&inst, &self.vocab, use_visibility);
        (inst, enc)
    }
}

/// Parameter storage the model is served from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DType {
    F32,
    Int8,
}

/// A model loaded from its exported artifact.
pub struct Loaded {
    pub model: TurlModel,
    pub store: ParamStore,
}

/// Build a seeded, untrained model with `cfg` for `world`, export it as
/// an artifact of `dtype` under `dir`, and load it back. Forward work
/// does not depend on the weight values, so no pre-training is needed.
pub fn export_and_load(
    world: &World,
    cfg: TurlConfig,
    dtype: DType,
    dir: &Path,
    spans: &Spans,
) -> Result<Loaded, String> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(cfg.seed);
    let mut fresh = ParamStore::new();
    let model = TurlModel::new(&mut fresh, &mut rng, cfg, world.vocab.len(), world.kb.n_entities());
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path: PathBuf = dir.join(match dtype {
        DType::F32 => "model-f32.artifact",
        DType::Int8 => "model-int8.artifact",
    });
    let opts = ExportOptions { quantize: dtype == DType::Int8, ..ExportOptions::default() };
    turl_nn::export_artifact(&fresh, &path, &opts).map_err(|e| format!("export: {e}"))?;
    let t = Instant::now();
    let store = turl_nn::load_artifact(&path).map_err(|e| format!("load: {e}"));
    spans.record("nn.artifact_load", SpanId::NONE, t, Instant::now());
    let _ = std::fs::remove_file(&path);
    Ok(Loaded { model, store: store? })
}

/// The serving model: paper config, seeded by the workload seed.
pub fn paper_config(seed: u64) -> TurlConfig {
    TurlConfig { seed, ..TurlConfig::paper() }
}

/// Where the benchmark writes its artifacts and span logs, relative to
/// the directory it runs from.
pub const OUT_DIR: &str = ".bench_out";

/// The set-up runs at least this many times in one run...
const SETUP_MIN_REPS: usize = 5;
/// ...and until this much time has gone into it, so a set-up of a few
/// milliseconds still gets a median over many repetitions.
const SETUP_MIN_S: f64 = 2.0;

/// Build the world and the artifact-loaded model repeatedly (see
/// [`SETUP_MIN_REPS`], [`SETUP_MIN_S`]) and keep the last; returns it
/// with the median set-up time in seconds.
pub fn set_up(
    seed: u64,
    cfg: TurlConfig,
    dtype: DType,
    spans: &Spans,
) -> Result<(World, Loaded, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take()); // free the previous rep before building the next
        let t = Instant::now();
        let world = spans.time("kb.world", SpanId::NONE, || World::build(seed));
        let loaded = export_and_load(&world, cfg, dtype, Path::new(OUT_DIR), spans)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((world, loaded));
    }
    let (world, loaded) = last.expect("the set-up ran at least once");
    Ok((world, loaded, crate::stats::median(&times)))
}
