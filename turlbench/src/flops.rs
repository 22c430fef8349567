//! Analytic op counts for one compiled encoder forward. These are
//! **computed** from the input shape, the configuration and the stored
//! dtypes — not measured.

use turl_core::{EncodedInput, TurlConfig};
use turl_nn::ParamStore;

/// The shape facts a forward's cost depends on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FwdShape {
    pub n_tokens: usize,
    pub n_entities: usize,
    pub n_mention_tokens: usize,
}

impl FwdShape {
    pub fn of(input: &EncodedInput) -> FwdShape {
        FwdShape {
            n_tokens: input.token_ids.len(),
            n_entities: input.entities.len(),
            n_mention_tokens: input.entities.iter().map(|e| e.mention.len()).sum(),
        }
    }

    fn seq(&self) -> usize {
        self.n_tokens + self.n_entities
    }
}

/// Matmul FLOPs (2 per multiply-add) of one encoder forward: mention
/// averaging and entity fusion, then per layer the Q/K/V/O projections,
/// attention scores and context, and the two FFN matmuls. Element-wise
/// work (softmax, GELU, layer norm, gathers) is not counted.
pub fn forward_flops(cfg: &TurlConfig, s: FwdShape) -> f64 {
    let (n, d, di) =
        (s.seq() as f64, cfg.encoder.d_model as f64, cfg.encoder.d_intermediate as f64);
    let ne = s.n_entities as f64;
    let embed = 2.0 * ne * s.n_mention_tokens as f64 * d + 2.0 * ne * 2.0 * d * d;
    let layer = 4.0 * 2.0 * n * d * d + 2.0 * 2.0 * n * n * d + 2.0 * 2.0 * n * d * di;
    embed + cfg.encoder.n_layers as f64 * layer
}

/// Weight bytes one encoder forward reads at the stored dtypes: every
/// encoder matrix, bias and norm parameter once, and the gathered rows
/// of each embedding table. The MLM/MER heads are not part of encode.
pub fn forward_weight_bytes(store: &ParamStore, s: FwdShape) -> f64 {
    let mut bytes = 0.0;
    for id in store.ids() {
        let name = store.name(id);
        let value = store.value(id);
        let rows_gathered = match name {
            "turl.word_emb.weight" => Some(s.n_tokens + s.n_mention_tokens),
            "turl.token_type_emb.weight" | "turl.pos_emb.weight" => Some(s.n_tokens),
            "turl.ent_emb.weight" | "turl.ent_type_emb.weight" => Some(s.n_entities),
            _ if name.starts_with("turl.mlm_proj") || name.starts_with("turl.mer_proj") => Some(0),
            _ => None,
        };
        let total = value.byte_len() as f64;
        bytes += match rows_gathered {
            Some(r) => total / value.shape()[0] as f64 * r as f64,
            None => total,
        };
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layer_flops_match_the_hand_count() {
        let cfg = TurlConfig::paper();
        let s = FwdShape { n_tokens: 20, n_entities: 0, n_mention_tokens: 0 };
        // n = 20, d = 312, d_int = 1200, 4 layers:
        // 8·n·d² + 4·n²·d + 4·n·d·d_int per layer.
        let per_layer =
            8.0 * 20.0 * 312.0 * 312.0 + 4.0 * 400.0 * 312.0 + 4.0 * 20.0 * 312.0 * 1200.0;
        assert_eq!(forward_flops(&cfg, s), 4.0 * per_layer);
        let with_entities = FwdShape { n_tokens: 20, n_entities: 5, n_mention_tokens: 10 };
        assert!(forward_flops(&cfg, with_entities) > forward_flops(&cfg, s));
    }
}
