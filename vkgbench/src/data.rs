//! The benchmark's dataset, engine configuration and query streams.
//!
//! There is one graph: the Freebase-like generator and the embedding run
//! with fixed seeds, so every run sets up the same data, and the sets of
//! distinct queries the workloads draw from are fixed with it. The run's
//! `--seed` draws everything else: the order of the warm queries, every
//! Zipf or uniform draw of the request streams, and every written fact.
//! The program under test receives only the generated inputs.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vkg::embed::{least_squares_embedding, LsConfig};
use vkg::prelude::*;

/// Entities in the synthetic Freebase-like graph.
pub const ENTITIES: usize = 100_000;
/// Relationship types.
pub const RELATIONS: usize = 200;
/// Entity-type clusters ("domains").
pub const CLUSTERS: usize = 25;
/// Edges generated (before de-duplication).
pub const EDGES: usize = 300_000;
/// Dimensionality of the embedding space S₁.
pub const S1_DIM: usize = 32;
/// Dimensionality of the index space S₂ (α).
pub const ALPHA: usize = 3;
/// Radius inflation ε of Algorithm 3.
pub const EPSILON: f64 = 0.5;
/// Entities asked for by every top-k query.
pub const K: usize = 10;
/// Probability threshold p_τ of every aggregate.
pub const P_TAU: f64 = 0.8;
/// The numeric attribute every non-COUNT aggregate reads.
pub const ATTRIBUTE: &str = "age";
/// Seed of the graph generator.
pub const GRAPH_SEED: u64 = 0x4652_4253;
/// Seed of the embedding's random anchors.
pub const EMBED_SEED: u64 = 0x4c53_4551;
/// Seed of the distinct query sets (cold set, warm set, serve
/// universes): like the graph, they are the same in every run.
pub const QUERY_SET_SEED: u64 = 0x5155_4552;
/// Full set-ups at the start of a run, the last one kept as the live
/// engine, and at its end, after the live engine is dropped; `setup_s`
/// is the median over all of them.
pub const SETUPS_EARLY: usize = 1;
pub const SETUPS_LATE: usize = 2;
/// Fact writes, with the WAL armed, on the fresh engine of each
/// fresh-engine probe, after its cold phase.
pub const FRESH_WRITES: usize = 4;
/// Top-k queries in the cold phase on each freshly assembled index, the
/// same ones in the same order in every run.
pub const COLD_QUERIES: usize = 128;
/// The aggregate kinds, in the order the workloads rotate through them.
pub const KINDS: [AggregateKind; 5] = [
    AggregateKind::Count,
    AggregateKind::Sum,
    AggregateKind::Avg,
    AggregateKind::Max,
    AggregateKind::Min,
];

/// Cores the process may use; also the pool width, the server's worker
/// count and the number of load connections.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine configuration every workload assembles with.
pub fn config(cache_capacity: usize) -> VkgConfig {
    VkgConfig {
        alpha: ALPHA,
        epsilon: EPSILON,
        threads: cores(),
        cache_capacity,
        ..VkgConfig::default()
    }
}

/// The aggregate spec of one query: `kind` over [`ATTRIBUTE`] (COUNT
/// reads no attribute), full access.
pub fn spec(kind: AggregateKind) -> AggregateSpec {
    match kind {
        AggregateKind::Count => AggregateSpec::count(P_TAU),
        _ => AggregateSpec::of(kind, ATTRIBUTE, P_TAU),
    }
}

/// Wall times of one set-up, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub embed_s: f64,
    pub assemble_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.embed_s + self.assemble_s
    }
}

/// Generates the graph, embeds it and assembles an engine over it: the
/// work between start and the first answerable query.
pub fn setup(cfg: VkgConfig) -> (VirtualKnowledgeGraph, SetupTimes) {
    let t = Instant::now();
    let ds = freebase_like(&FreebaseConfig {
        entities: ENTITIES,
        relation_types: RELATIONS,
        type_clusters: CLUSTERS,
        edges: EDGES,
        seed: GRAPH_SEED,
        ..FreebaseConfig::default()
    });
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let embeddings = least_squares_embedding(
        &ds.graph,
        &LsConfig {
            dim: S1_DIM,
            seed: EMBED_SEED,
            ..LsConfig::default()
        },
    );
    let embed_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let vkg = VirtualKnowledgeGraph::try_assemble(ds.graph, ds.attributes, embeddings, cfg)
        .expect("the generated dataset and its embedding agree");
    let assemble_s = t.elapsed().as_secs_f64();
    (
        vkg,
        SetupTimes {
            generate_s,
            embed_s,
            assemble_s,
        },
    )
}

/// A fresh engine over the epoch-0 stores of `base` (recovery target).
pub fn reassemble(base: &VkgSnapshot, cfg: VkgConfig) -> VirtualKnowledgeGraph {
    VirtualKnowledgeGraph::try_assemble(
        base.graph().clone(),
        base.attributes().clone(),
        base.embeddings().clone(),
        cfg,
    )
    .expect("a published snapshot reassembles")
}

/// A derived seed for one purpose (`salt`) of a run seeded with `seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    // splitmix64 finaliser
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random stream for one purpose of the run.
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, salt))
}

/// One query: an entity, a relationship and which endpoint is asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub entity: EntityId,
    pub relation: RelationId,
    pub direction: Direction,
}

impl std::hash::Hash for Query {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        (
            self.entity,
            self.relation,
            self.direction == Direction::Tails,
        )
            .hash(h);
    }
}

/// What one workload operation asks.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    TopK(Query),
    Aggregate(Query, AggregateKind),
}

/// `n` queries drawn uniformly over the graph's triples (the paper's
/// §VI-B workload): a triple's head asks for tails, or its tail for
/// heads. With `distinct`, repeats are re-drawn.
pub fn uniform_queries(
    graph: &KnowledgeGraph,
    n: usize,
    rng: &mut StdRng,
    distinct: bool,
) -> Vec<Query> {
    let triples = graph.triples();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let t = triples[rng.gen_range(0..triples.len())];
        let q = if rng.gen_bool(0.5) {
            Query {
                entity: t.head,
                relation: t.relation,
                direction: Direction::Tails,
            }
        } else {
            Query {
                entity: t.tail,
                relation: t.relation,
                direction: Direction::Heads,
            }
        };
        if !distinct || seen.insert(q) {
            out.push(q);
        }
    }
    out
}

/// A fact write's triple: the query's entity on its relation, towards
/// a seeded random partner.
pub fn fact_for(q: &Query, rng: &mut StdRng) -> (EntityId, RelationId, EntityId) {
    let mut other = EntityId(rng.gen_range(0..ENTITIES as u32));
    if other == q.entity {
        other = EntityId((other.0 + 1) % ENTITIES as u32);
    }
    match q.direction {
        Direction::Tails => (q.entity, q.relation, other),
        Direction::Heads => (other, q.relation, q.entity),
    }
}

/// Gradient steps and learning rate of every fact write.
pub const REFINE_STEPS: usize = 4;
pub const LEARNING_RATE: f64 = 0.05;

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
