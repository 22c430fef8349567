//! Request streams for the serve workloads, generated from the seed.
//!
//! * **cold**: every table is used once, by one of the six TUBE task
//!   endpoints or by an entity-linking *sweep* (one request per entity
//!   cell, due together). No encoded input repeats, so the encode cache
//!   never hits.
//! * **hot**: a seeded random order over a small working set of
//!   (table, endpoint) requests, far below the encode cache's capacity.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use turl_data::Table;
use turl_serve::{cache, Session};

use crate::world::World;

/// One request the generator can send.
#[derive(Debug, Clone)]
pub struct Req {
    pub path: &'static str,
    pub body: String,
    /// Requests of one sweep share a group and are due together.
    pub group: usize,
}

/// Candidate-list length of the ranking endpoints.
const N_CANDIDATES: usize = 64;
/// Requests in one entity-linking sweep: what the two generator
/// connections can have in the batching queue at once. Longer sweeps
/// only queue behind each other on those two connections.
const SWEEP_LEN: usize = 2;
/// Working-set size of the hot workload.
pub const HOT_WORKING_SET: usize = 24;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Encode,
    Sweep,
    CellFilling,
    RowPopulation,
    ColumnType,
    Relation,
    Schema,
}

const KINDS: [Kind; 7] = [
    Kind::Encode,
    Kind::Sweep,
    Kind::CellFilling,
    Kind::RowPopulation,
    Kind::ColumnType,
    Kind::Relation,
    Kind::Schema,
];

fn table_json(t: &Table) -> String {
    serde_json::to_string(t).expect("a generated table serializes")
}

/// The gold entity of cell `cell` (if linked) plus random KB entities.
fn candidates(rng: &mut StdRng, n_entities: usize, gold: Option<usize>) -> String {
    let mut ids: Vec<usize> = gold.into_iter().collect();
    while ids.len() < N_CANDIDATES.min(n_entities) {
        let e = rng.gen_range(0..n_entities);
        if !ids.contains(&e) {
            ids.push(e);
        }
    }
    ids.shuffle(rng);
    let list: Vec<String> = ids.iter().map(|e| e.to_string()).collect();
    format!("[{}]", list.join(","))
}

/// The requests of `kind` on `table` (several for a sweep).
fn requests_for(
    rng: &mut StdRng,
    world: &World,
    session: &Session,
    table: &Table,
    kind: Kind,
    group: usize,
) -> Vec<Req> {
    let t = table_json(table);
    let n_ent = world.kb.n_entities();
    let (_, enc) = world.encode(table, true);
    let gold = |cell: usize| enc.entities.get(cell).and_then(|e| e.emb_index.checked_sub(1));
    let one = |path: &'static str, body: String| vec![Req { path, body, group }];
    match kind {
        Kind::Encode => one("/v1/encode", format!("{{\"table\":{t}}}")),
        Kind::Schema => one("/v1/schema_augmentation", format!("{{\"table\":{t}}}")),
        Kind::ColumnType => {
            let column = rng.gen_range(0..table.headers.len().max(1));
            one("/v1/column_type", format!("{{\"table\":{t},\"column\":{column}}}"))
        }
        Kind::Relation => {
            let object = rng.gen_range(0..table.headers.len().max(1));
            one("/v1/relation_extraction", format!("{{\"table\":{t},\"object_column\":{object}}}"))
        }
        Kind::RowPopulation => {
            let c = candidates(rng, n_ent, None);
            one("/v1/row_population", format!("{{\"table\":{t},\"candidates\":{c}}}"))
        }
        Kind::CellFilling => {
            let cell = rng.gen_range(0..enc.entities.len().max(1));
            let c = candidates(rng, n_ent, gold(cell));
            one("/v1/cell_filling", format!("{{\"table\":{t},\"cell\":{cell},\"candidates\":{c}}}"))
        }
        Kind::Sweep => (0..enc.entities.len().min(SWEEP_LEN))
            .map(|cell| {
                let c = candidates(rng, n_ent, gold(cell));
                let body = format!("{{\"table\":{t},\"cell\":{cell},\"candidates\":{c}}}");
                Req { path: "/v1/entity_linking", body, group }
            })
            .collect(),
    }
    .into_iter()
    .filter(|r| session.build_job(r.path, &r.body).is_ok())
    .collect()
}

/// Cache key of a request's encoded input.
fn input_key(session: &Session, r: &Req) -> Vec<u8> {
    let (input, _) = session.build_job(r.path, &r.body).expect("pool requests are valid");
    cache::canonical_bytes(&input)
}

/// Size strata of the cold stream's table order.
const STRATA: usize = 8;

/// `tables` in a seeded order in which every run of [`STRATA`]
/// consecutive tables holds one table of each size stratum (by encoded
/// sequence length), so any stretch of the stream — and so every seed's
/// timed phases — spans the corpus's table sizes alike.
fn stratified<'a>(rng: &mut StdRng, world: &World, mut tables: Vec<&'a Table>) -> Vec<&'a Table> {
    tables.sort_by_cached_key(|t| (world.encode(t, true).1.seq_len(), t.id.clone()));
    let per = tables.len().div_ceil(STRATA);
    let mut strata: Vec<Vec<&Table>> = tables.chunks(per.max(1)).map(<[&Table]>::to_vec).collect();
    for s in &mut strata {
        s.shuffle(rng);
    }
    strata.shuffle(rng);
    (0..per).flat_map(|i| strata.iter().filter_map(move |s| s.get(i).copied())).collect()
}

/// The cold stream: every table of the corpus once, in a seeded,
/// size-stratified order, its endpoint taken round-robin over the seven
/// kinds so every seed sends the same mix. Requests whose encoded input
/// repeats an earlier one are dropped, so no two requests can share a
/// cache entry.
pub fn cold_pool(seed: u64, world: &World, session: &Session) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
    let tables = stratified(&mut rng, world, world.all_tables());
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    for (group, table) in tables.into_iter().enumerate() {
        let kind = KINDS[group % KINDS.len()];
        for r in requests_for(&mut rng, world, session, table, kind, group) {
            if seen.insert(input_key(session, &r)) {
                pool.push(r);
            }
        }
    }
    pool
}

/// The hot working set: [`HOT_WORKING_SET`] requests, each on its own
/// table, endpoints round-robin over the seven kinds (a sweep
/// contributes its first entity-linking request). The tables are one
/// seeded pick from each of [`HOT_WORKING_SET`] equal strata of the
/// corpus ordered by serialized size, so every seed's working set spans
/// the corpus's table sizes the same way.
pub fn hot_working_set(seed: u64, world: &World, session: &Session) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x407);
    let mut tables = world.all_tables();
    tables.sort_by_cached_key(|t| (table_json(t).len(), t.id.clone()));
    let stratum = tables.len() / HOT_WORKING_SET;
    let mut set = Vec::new();
    for k in 0..HOT_WORKING_SET {
        let table = tables[k * stratum + rng.gen_range(0..stratum.max(1))];
        let kind = KINDS[k % KINDS.len()];
        set.extend(requests_for(&mut rng, world, session, table, kind, k).into_iter().take(1));
    }
    set
}

/// The `i`-th entry of an endless sequence of seeded shuffles of
/// `0..len`: a random order in which every index appears equally often,
/// so every seed sends the same mix. The same for every run with this
/// seed.
pub fn shuffled_index(seed: u64, i: usize, len: usize) -> usize {
    let round = (i / len) as u64;
    let mut perm: Vec<usize> = (0..len).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    perm[i % len]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_rounds_visit_every_index_once() {
        let mut seen: Vec<usize> = (24..48).map(|i| shuffled_index(7, i, 24)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..24).collect::<Vec<_>>());
        assert_eq!(shuffled_index(7, 30, 24), shuffled_index(7, 30, 24));
        let a: Vec<usize> = (0..24).map(|i| shuffled_index(1, i, 24)).collect();
        let b: Vec<usize> = (0..24).map(|i| shuffled_index(2, i, 24)).collect();
        assert_ne!(a, b);
    }
}
