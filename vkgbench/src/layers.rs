//! What every workload shares: set-up with its cold phase, and the
//! probes that time single layers from outside by calling their public
//! functions or reading the counters and spans the program exports.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use vkg::core::metrics::names as core_names;
use vkg::core::{wal, FaultPlane};
use vkg::prelude::*;
use vkg::server::server::names as server_names;
use vkg::server::{AggregateWire, Client, MetricsWire, Request, RequestOp, Response, TopKWire};

use crate::data::{self, Op, Query, COLD_QUERIES, FRESH_WRITES, K, SETUPS_EARLY, SETUPS_LATE};
use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::{Ctx, Report};

/// Spans the server keeps for export; covers every request of an
/// open-loop phase.
pub const SPAN_RING: usize = 8192;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The live engine of a run, its epoch-0 snapshot and the samples of
/// the set-ups made so far.
pub struct Prepared {
    pub vkg: Arc<VirtualKnowledgeGraph>,
    pub base: Arc<VkgSnapshot>,
    pub setups: Setups,
}

/// Times of every set-up of a run, of every cold phase and of the fact
/// writes made on fresh engines.
#[derive(Default)]
pub struct Setups {
    cache: usize,
    cold: Vec<Query>,
    total: Vec<f64>,
    generate: Vec<f64>,
    embed: Vec<f64>,
    assemble: Vec<f64>,
    cold_s: Vec<f64>,
    write_ms: Vec<f64>,
}

impl Setups {
    /// One set-up followed by the cold phase on its fresh index.
    fn once(&mut self, report: &mut Report) -> VirtualKnowledgeGraph {
        let (vkg, t) = data::setup(data::config(self.cache));
        self.total.push(t.total_s());
        self.generate.push(t.generate_s);
        self.embed.push(t.embed_s);
        self.assemble.push(t.assemble_s);
        self.cold_phase(&vkg, report);
        vkg
    }

    /// The cold phase: the cold queries, in their fixed order, on an
    /// engine whose index no query has cracked yet.
    fn cold_phase(&mut self, vkg: &VirtualKnowledgeGraph, report: &mut Report) {
        if self.cold.is_empty() {
            self.cold = data::uniform_queries(
                &vkg.graph(),
                COLD_QUERIES,
                &mut data::rng(data::QUERY_SET_SEED, 10),
                true,
            );
        }
        let start = Instant::now();
        for q in &self.cold {
            let r = vkg.top_k(q.entity, q.relation, q.direction, K);
            report.side("topk_cold", r.is_ok());
        }
        self.cold_s.push(start.elapsed().as_secs_f64());
    }

    /// A fresh-engine probe, made between the measured phases of a run:
    /// an engine assembled afresh from `base`'s stores, the cold phase on
    /// its uncracked index, then [`FRESH_WRITES`] fact writes on it with
    /// the WAL armed into `log` (removed again after). The live engine
    /// is left as it was. Probes spread over the whole run make
    /// `cold_topk_s` and `write_p50_ms` follow the machine's speed over
    /// all of it, not at one moment.
    pub fn probe(&mut self, base: &VkgSnapshot, log: &Path, seed: u64, report: &mut Report) {
        let fresh = data::reassemble(base, data::config(self.cache));
        self.cold_phase(&fresh, report);
        let _ = std::fs::remove_file(log);
        let attached = fresh.attach_wal(log, FaultPlane::none());
        report.checks.require(attached.is_ok(), || {
            format!("attaching {}: {attached:?}", log.display())
        });
        let mut rng = data::rng(seed, 50 + self.cold_s.len() as u64);
        for q in self.cold.iter().take(FRESH_WRITES) {
            let (h, r, t) = data::fact_for(q, &mut rng);
            let start = Instant::now();
            let res = fresh.add_fact_dynamic(h, r, t, data::REFINE_STEPS, data::LEARNING_RATE);
            self.write_ms.push(ms(start));
            report.side("fact_write_fresh", res.is_ok());
        }
        drop(fresh);
        let _ = std::fs::remove_file(log);
    }

    /// Makes the late set-ups, once the run's own engines are dropped,
    /// and reports the medians over all of them as `setup_s`,
    /// `cold_topk_s`, `write_p50_ms` and the per-stage set-up times.
    pub fn finish(mut self, report: &mut Report) {
        for _ in 0..SETUPS_LATE {
            drop(self.once(report));
        }
        report.info(format!(
            "set-ups: {:.3?} s (embed {:.3?}); {} cold phases, p50 {:.3} s, range {:.3}..{:.3} s; {} fresh-engine fact writes",
            self.total,
            self.embed,
            self.cold_s.len(),
            median(&self.cold_s),
            quantile(&self.cold_s, 0.0),
            quantile(&self.cold_s, 1.0),
            self.write_ms.len()
        ));
        report.set("setup_s", median(&self.total));
        report.set("cold_topk_s", median(&self.cold_s));
        report.set("write_p50_ms", median(&self.write_ms));
        report.set("kg.generate_s", median(&self.generate));
        report.set("embed.train_s", median(&self.embed));
        report.set("core.assemble_s", median(&self.assemble));
    }
}

/// Sets up [`SETUPS_EARLY`] times, running the cold phase on each fresh
/// engine, and keeps the last engine; [`Setups::finish`] makes the rest
/// at the end of the run.
pub fn prepare(cache: usize, report: &mut Report) -> Prepared {
    let mut setups = Setups {
        cache,
        ..Setups::default()
    };
    let mut live = None;
    for _ in 0..SETUPS_EARLY {
        // Only one engine is alive at a time, so peak memory is one run's.
        drop(live.take());
        live = Some(setups.once(report));
    }
    let vkg = Arc::new(live.expect("SETUPS_EARLY >= 1"));
    report.info(format!(
        "dataset: {} entities, {} relations, {} edges; S1 dim {}, alpha {}, epsilon {}, pool width {}",
        vkg.graph().num_entities(),
        vkg.graph().num_relations(),
        vkg.graph().num_edges(),
        vkg.embeddings().dim(),
        data::ALPHA,
        data::EPSILON,
        data::cores()
    ));
    report.set(
        "index.splits_cold",
        vkg.index_stats().splits_performed as f64,
    );
    let base = vkg.snapshot();
    Prepared { vkg, base, setups }
}

/// The facade's own counters at one moment.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounters {
    pool_serial: f64,
    pool_parallel: f64,
    hit: f64,
    miss: f64,
    invalidate: f64,
    prefix: f64,
}

pub fn engine_counters(vkg: &VirtualKnowledgeGraph) -> EngineCounters {
    let m = vkg.metrics_snapshot();
    let get = |name: &str| m.counter(name).or_else(|| m.gauge(name)).unwrap_or(0) as f64;
    EngineCounters {
        pool_serial: get(core_names::POOL_SERIAL_RUNS),
        pool_parallel: get(core_names::POOL_PARALLEL_RUNS),
        hit: get(core_names::CACHE_HIT),
        miss: get(core_names::CACHE_MISS),
        invalidate: get(core_names::CACHE_INVALIDATE),
        prefix: get(core_names::CACHE_PREFIX_HIT),
    }
}

/// Pool dispatch since assembly, and cache traffic between `before` and
/// `after` (the measured phases), per write published in between.
pub fn engine_layer(
    before: EngineCounters,
    after: EngineCounters,
    writes: u64,
    report: &mut Report,
) {
    let total = after.pool_serial + after.pool_parallel;
    report.set("pool.parallel_share", ratio(after.pool_parallel, total));
    let (hit, miss) = (after.hit - before.hit, after.miss - before.miss);
    report.set("cache.hit_ratio", ratio(hit, hit + miss));
    report.set("cache.lookups", hit + miss);
    report.set("cache.prefix_hits", after.prefix - before.prefix);
    report.set(
        "cache.invalidations_per_write",
        ratio(after.invalidate - before.invalidate, writes as f64),
    );
    report.info(format!(
        "cache: {hit} hits of {} lookups over the measured phases; pool: {} parallel of {total} runs",
        hit + miss,
        after.pool_parallel
    ));
}

/// Times `query_point_s1` and its JL projection on each query.
pub fn transform_probe(vkg: &VirtualKnowledgeGraph, queries: &[Query], tr: &mut Tracer) -> f64 {
    let snap = vkg.snapshot();
    let mut us = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let s = tr.open("transform.query_point", 0, i as u64);
        let t = Instant::now();
        if let Ok(p) = snap.query_point_s1(q.entity, q.relation, q.direction) {
            black_box(snap.project(&p));
        }
        us.push(ms(t) * 1e3);
        tr.close(s);
    }
    median(&us)
}

/// Median time to clone the two stores every fact write copies: the
/// published graph and embedding store.
pub fn cow_probe(vkg: &VirtualKnowledgeGraph, tr: &mut Tracer) -> f64 {
    let (_, snap) = vkg.published();
    let mut out = Vec::new();
    for i in 0..5 {
        let s = tr.open("snapshot.cow", 0, i);
        let t = Instant::now();
        let g = snap.graph().clone();
        let e = snap.embeddings().clone();
        out.push(ms(t));
        black_box((g, e));
        tr.close(s);
    }
    median(&out)
}

/// Times `wal::Writer::append` on the run's own records into a scratch
/// log; returns (median µs per append, log bytes per record, records).
pub fn wal_probe(
    logs: &[PathBuf],
    scratch: &Path,
    tr: &mut Tracer,
) -> Result<(f64, f64, usize), String> {
    let mut records = Vec::new();
    let mut bytes = 0u64;
    for log in logs {
        let (r, st) = wal::replay(log).map_err(|e| e.to_string())?;
        bytes += st.good_bytes.saturating_sub(wal::WAL_MAGIC.len() as u64);
        records.extend(r);
    }
    if records.is_empty() {
        return Err("the run logged no records".into());
    }
    let _ = std::fs::remove_file(scratch);
    let mut writer = wal::recover(scratch, FaultPlane::none())
        .map_err(|e| e.to_string())?
        .writer;
    let mut us = Vec::new();
    while us.len() < 256 {
        for r in &records {
            let s = tr.open("wal.append", 0, us.len() as u64);
            let t = Instant::now();
            writer.append(r).map_err(|e| e.to_string())?;
            us.push(ms(t) * 1e3);
            tr.close(s);
        }
    }
    drop(writer);
    let _ = std::fs::remove_file(scratch);
    Ok((
        median(&us),
        bytes as f64 / records.len() as f64,
        records.len(),
    ))
}

/// Times encoding and decoding of the workload's own request and
/// response frames; returns median µs per (request, response) pair.
pub fn wire_probe(frames: &[(Request, Response)], report: &mut Report) {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut round_trip_ok = true;
    for _ in 0..32 {
        let t = Instant::now();
        let bytes: Vec<(Vec<u8>, Vec<u8>)> = frames
            .iter()
            .map(|(q, r)| (q.encode(), r.encode()))
            .collect();
        enc.push(ms(t) * 1e3 / frames.len().max(1) as f64);
        let t = Instant::now();
        for ((q, r), (qb, rb)) in frames.iter().zip(&bytes) {
            let (dq, dr) = (Request::decode(qb), Response::decode(rb));
            round_trip_ok &= dq.as_ref() == Ok(q) && dr.as_ref() == Ok(r);
            let _ = black_box((dq, dr));
        }
        dec.push(ms(t) * 1e3 / frames.len().max(1) as f64);
    }
    report
        .checks
        .require(round_trip_ok && !frames.is_empty(), || {
            "a request or response frame did not decode to itself".into()
        });
    report.set("wire.encode_us", median(&enc));
    report.set("wire.decode_us", median(&dec));
}

/// The opcodes of the read requests (top-k and aggregate).
fn read_opcodes() -> [u8; 2] {
    let q = Query {
        entity: EntityId(0),
        relation: RelationId(0),
        direction: Direction::Tails,
    };
    [
        request(&Op::TopK(q)).op.opcode(),
        request(&Op::Aggregate(q, AggregateKind::Count)).op.opcode(),
    ]
}

/// Server phase times from the exported spans of read requests, and
/// lock rounds per answered request from the exported counters.
pub fn server_layer(export: &MetricsWire, report: &mut Report) {
    let reads = read_opcodes();
    let spans: Vec<&vkg::obs::Span> = export
        .snapshot
        .spans
        .iter()
        .filter(|s| reads.contains(&s.op))
        .collect();
    let phase = |f: fn(&vkg::obs::Span) -> u64| {
        median(&spans.iter().map(|s| f(s) as f64 / 1e3).collect::<Vec<_>>())
    };
    report.set("server.queue_us", phase(|s| s.queue_ns));
    report.set("server.batch_us", phase(|s| s.batch_ns));
    report.set("server.lock_us", phase(|s| s.lock_ns));
    report.set("server.exec_us", phase(|s| s.exec_ns));
    report.set("server.encode_us", phase(|s| s.encode_ns));
    let m = &export.snapshot;
    let get = |name: &str| m.counter(name).or_else(|| m.gauge(name)).unwrap_or(0) as f64;
    report.set(
        "server.lock_rounds_per_answer",
        ratio(get(server_names::LOCK_ROUNDS), get(server_names::ANSWERED)),
    );
    report.info(format!("server spans: {} read spans exported", spans.len()));
}

/// Checks the exported admission counters drained: every admitted
/// request was answered.
pub fn check_drained(export: &MetricsWire, report: &mut Report) {
    let m = &export.snapshot;
    let (admitted, answered) = (
        m.gauge(server_names::ADMITTED),
        m.gauge(server_names::ANSWERED),
    );
    report
        .checks
        .require(admitted.is_some() && admitted == answered, || {
            format!("server admitted {admitted:?} but answered {answered:?}")
        });
}

/// Median round trip of a `Stats` request, as `server.noop_rtt_us`.
pub fn noop_rtt(client: &mut Client, report: &mut Report) {
    let mut us = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        let ok = client.stats().is_ok();
        us.push(ms(t) * 1e3);
        report.side("stats", ok);
    }
    report.set("server.noop_rtt_us", median(&us));
}

/// The wire request for one workload operation.
pub fn request(op: &Op) -> Request {
    let op = match *op {
        Op::TopK(q) => RequestOp::TopK {
            entity: q.entity.0,
            relation: q.relation.0,
            direction: q.direction,
            k: K as u32,
        },
        Op::Aggregate(q, kind) => RequestOp::Aggregate {
            entity: q.entity.0,
            relation: q.relation.0,
            direction: q.direction,
            kind,
            attribute: (kind != AggregateKind::Count).then(|| data::ATTRIBUTE.to_owned()),
            p_tau: data::P_TAU,
            sample_size: None,
        },
    };
    Request { deadline_ms: 0, op }
}

/// The wire request of a fact write.
pub fn write_request((h, r, t): (EntityId, RelationId, EntityId)) -> Request {
    Request {
        deadline_ms: 0,
        op: RequestOp::AddFactDynamic {
            h: h.0,
            r: r.0,
            t: t.0,
            refine_steps: data::REFINE_STEPS as u32,
            learning_rate: data::LEARNING_RATE,
            token: 0,
        },
    }
}

/// Answers `op` in process with the result cache bypassed, under the
/// relation's shard lock (one pinned epoch).
pub fn recompute(vkg: &VirtualKnowledgeGraph, op: &Op) -> Result<Response, VkgError> {
    match *op {
        Op::TopK(q) => vkg.with_published_shard(q.relation, |pin, snap, state| {
            state
                .top_k(snap, q.entity, q.relation, q.direction, K)
                .map(|r| Response::TopK(TopKWire::from_result(pin.epoch, &r)))
        }),
        Op::Aggregate(q, kind) => vkg.with_published_shard(q.relation, |pin, snap, state| {
            state
                .aggregate(snap, q.entity, q.relation, q.direction, &data::spec(kind))
                .map(|r| Response::Aggregate(AggregateWire::from_result(pin.epoch, &r)))
        }),
    }
}

/// Replays sampled operations in process with the cache bypassed:
/// Algorithm 3 and the estimators timed on their own, with the index's
/// counters per top-k. Returns the top-k times in µs.
pub fn query_probe(
    vkg: &VirtualKnowledgeGraph,
    ops: &[Op],
    tr: &mut Tracer,
    report: &mut Report,
) -> Vec<f64> {
    let before = vkg.index_stats();
    let (mut topk_us, mut candidates) = (Vec::new(), Vec::new());
    for (i, op) in ops.iter().enumerate() {
        let Op::TopK(q) = *op else { continue };
        let s = tr.open("core.query.top_k", 0, i as u64);
        let t = Instant::now();
        let r = vkg.with_published_shard(q.relation, |_, snap, state| {
            state.top_k(snap, q.entity, q.relation, q.direction, K)
        });
        topk_us.push(ms(t) * 1e3);
        tr.close(s);
        report.side("topk_probe", r.is_ok());
        if let Ok(r) = r {
            candidates.push(r.candidates_examined as f64);
        }
    }
    let after = vkg.index_stats();
    index_per_topk(before, after, topk_us.len(), report);
    report.set("query.candidates_per_topk", crate::stats::mean(&candidates));
    let (mut agg_us, mut accessed) = (Vec::new(), Vec::new());
    for (i, op) in ops.iter().enumerate() {
        let Op::Aggregate(q, kind) = *op else {
            continue;
        };
        let s = tr.open("core.query.aggregate", 0, i as u64);
        let t = Instant::now();
        let r = vkg.with_published_shard(q.relation, |_, snap, state| {
            state.aggregate(snap, q.entity, q.relation, q.direction, &data::spec(kind))
        });
        agg_us.push(ms(t) * 1e3);
        tr.close(s);
        report.side("aggregate_probe", r.is_ok());
        if let Ok(r) = r {
            accessed.push(r.accessed as f64);
        }
    }
    report.set("query.topk_us", median(&topk_us));
    report.set("query.agg_us", median(&agg_us));
    report.set("query.agg_accessed", crate::stats::mean(&accessed));
    topk_us
}

/// The index's work per top-k between two counter readings.
pub fn index_per_topk(before: IndexStats, after: IndexStats, n: usize, report: &mut Report) {
    let per = |a: u64, b: u64| ratio(b.saturating_sub(a) as f64, n as f64);
    report.set(
        "index.s1_evals_per_topk",
        per(before.s1_distance_evals, after.s1_distance_evals),
    );
    report.set(
        "index.points_examined_per_topk",
        per(before.points_examined, after.points_examined),
    );
    report.set(
        "index.elements_accessed_per_topk",
        per(before.elements_accessed, after.elements_accessed),
    );
}

/// Assembles a fresh engine over `base`, replays `logs` into it in
/// order (the last one timed), and checks it against `live`: its epoch
/// equals the records replayed, its graph and embeddings equal the live
/// engine's. Returns the engine, the timed seconds and its records.
pub fn recover(
    base: &VkgSnapshot,
    cfg: VkgConfig,
    logs: &[PathBuf],
    live: &VirtualKnowledgeGraph,
    report: &mut Report,
) -> (VirtualKnowledgeGraph, f64, u64) {
    let fresh = data::reassemble(base, cfg);
    let (mut replayed, mut secs, mut last) = (0, 0.0, 0);
    for log in logs {
        let t = Instant::now();
        match fresh.attach_wal(log, FaultPlane::none()) {
            Ok(r) => {
                secs = t.elapsed().as_secs_f64();
                replayed += r.replayed;
                last = r.replayed;
            }
            Err(e) => report
                .checks
                .require(false, || format!("replaying {}: {e}", log.display())),
        }
    }
    report.checks.require(fresh.epoch() == replayed, || {
        format!(
            "replayed engine at epoch {} after {replayed} records",
            fresh.epoch()
        )
    });
    report.checks.require(
        fresh.graph().num_entities() == live.graph().num_entities()
            && fresh.graph().triples() == live.graph().triples(),
        || "the replayed graph differs from the live graph".into(),
    );
    report
        .checks
        .require(*fresh.embeddings() == *live.embeddings(), || {
            "the replayed embeddings differ from the live embeddings".into()
        });
    (fresh, secs, last)
}

/// The WAL figures of the traced run.
pub fn wal_figures(logs: &[std::path::PathBuf], ctx: &Ctx, tr: &mut Tracer, report: &mut Report) {
    match wal_probe(logs, &ctx.file("scratch.wal"), tr) {
        Ok((append_us, bytes, _)) => {
            report.set("wal.append_us", append_us);
            report.set("wal.bytes_per_write", bytes);
        }
        Err(e) => report.checks.require(false, || format!("WAL probe: {e}")),
    }
}

/// Writes the traced run's spans.
pub fn write_trace(ctx: &Ctx, tr: &Tracer, server: &[vkg::obs::Span], report: &mut Report) {
    let path = ctx.file("trace.jsonl");
    match tr.write(&path, server) {
        Ok(()) => report.info(format!("trace: spans written to {}", path.display())),
        Err(e) => report
            .checks
            .require(false, || format!("writing {}: {e}", path.display())),
    }
}
