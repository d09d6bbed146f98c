//! `paper_freebase_100k`: the paper's own evaluation in process, with no
//! server and the result cache off. A cold phase of top-k queries on
//! the uncracked index (per set-up), then measured rounds, each a
//! fresh-engine probe (a cold phase and a few WAL-armed fact writes on
//! an engine assembled afresh), a warm phase of uniformly drawn top-k
//! queries on the live engine and an aggregate phase of
//! COUNT/SUM/AVG/MAX/MIN over single relations and `aggregate_multi`.
//! The live engine is written to only after the measured phases: a short
//! fact-write probe with the WAL armed checks the writes and times
//! recovery, and in the traced run a short TCP probe over the warm
//! queries sets the `server.*` and `wire.*` figures.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use vkg::core::FaultPlane;
use vkg::prelude::*;
use vkg::server::{Client, Response, Server, ServerConfig};

use crate::check::{self, AggAnswer, Ball};
use crate::data::{self, Op, Query, K, KINDS};
use crate::layers::{self, SPAN_RING};
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Tracer;
use crate::{Ctx, Report};

/// Distinct queries the warm phase cycles through.
const WARM_QUERIES: usize = 1024;
/// Queries of each round's aggregate phase; each is asked the five
/// single-relation aggregates and one `aggregate_multi`.
const AGG_QUERIES: usize = 48;
/// Most relations of one `aggregate_multi`.
const MULTI_RELATIONS: usize = 3;
/// Warm answers checked against the exact scan.
const CHECKED_TOPK: usize = 256;
/// Fact writes of the durability probe.
const PROBE_WRITES: usize = 32;
/// Queries of the traced run's TCP probe.
const SERVER_PROBE_QUERIES: usize = 256;
/// Warm top-k queries of each measured round, before its aggregate
/// phase; about half of a round's time.
const TOPK_PER_ROUND: usize = 192;

/// A warm top-k answer kept for the checks: the query, its `(id,
/// distance)` pairs and its Theorem 2 expected misses.
type Answer = (Query, Vec<(u32, f64)>, f64);

/// One `aggregate_multi` answer: its kind, the parts and the merge.
struct MultiAnswer {
    q: Query,
    kind: AggregateKind,
    parts: Vec<(RelationId, AggAnswer)>,
    combined: f64,
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new(ctx.trace, ctx.origin, 0);
    let layers::Prepared {
        vkg: live,
        base,
        mut setups,
    } = layers::prepare(0, &mut report);
    let vkg = &live;
    report.mark(ctx, "set-up and cold phases");
    let warm = data::uniform_queries(
        &vkg.graph(),
        WARM_QUERIES,
        &mut data::rng(data::QUERY_SET_SEED, 20),
        true,
    );

    // Warm-up: one untimed pass over the warm queries cracks the index
    // where the timed passes will look.
    for q in &warm {
        report.side(
            "topk_warmup",
            vkg.top_k(q.entity, q.relation, q.direction, K).is_ok(),
        );
    }

    // The aggregate queries get an untimed pass too.
    let agg_queries = &warm[..AGG_QUERIES];
    let domain = check::attribute_range(&vkg.snapshot(), data::ATTRIBUTE);
    for (j, q) in agg_queries.iter().enumerate() {
        aggregate_round(vkg, q, j, domain, &mut report, None, &mut tr);
    }
    report.mark(ctx, "warm-up");

    // Measured rounds, whole ones until the time is up: the fresh-engine
    // probe, warm top-k and aggregates take turns, so all see the same
    // stretches of the run, and every run attempts the same operations
    // in the same proportion.
    let mut order_rng = data::rng(ctx.seed, 21);
    let mut order: Vec<usize> = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut candidates = Vec::new();
    let mut answers: Vec<Answer> = Vec::new();
    let mut rounds = Rounds::default();
    let (mut round_s, mut work) = (Vec::new(), vkg::core::IndexStats::default());
    let fresh_log = ctx.file("fresh.wal");
    // The workload's peak memory is the set-up's and the warmed live
    // engine's, before the fresh-engine probes hold a second engine.
    report.set("peak_rss_mb", data::peak_rss_mb());
    let splits_before = vkg.index_stats().splits_performed;
    let (start, mut req, mut round) = (Instant::now(), 0u64, 0usize);
    while round == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        // Every other round is traced, for the overhead against the
        // untraced ones.
        let on = tr.on() && round % 2 == 1;
        setups.probe(&base, &fresh_log, ctx.seed, &mut report);
        let before = vkg.index_stats();
        let t0 = Instant::now();
        for _ in 0..TOPK_PER_ROUND {
            if order.is_empty() {
                order = (0..warm.len()).collect();
                shuffle(&mut order, &mut order_rng);
            }
            let q = warm[order.pop().expect("refilled above")];
            let root = if on { tr.open("request", 0, req) } else { 0 };
            let span = if on {
                tr.open("core.query.top_k", root, req)
            } else {
                0
            };
            let t = Instant::now();
            let r = vkg.top_k(q.entity, q.relation, q.direction, K);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.close(span);
            tr.close(root);
            report.op("topk", r.is_ok());
            if let Ok(r) = r {
                if on { &mut traced } else { &mut plain }.push(ms);
                candidates.push(r.candidates_examined as f64);
                if answers.len() < CHECKED_TOPK {
                    let preds = r.predictions.iter().map(|p| (p.id, p.distance)).collect();
                    answers.push((q, preds, r.guarantee.expected_misses));
                }
            }
            req += 1;
        }
        round_s.push(t0.elapsed().as_secs_f64());
        let after = vkg.index_stats();
        work.elements_accessed += after.elements_accessed - before.elements_accessed;
        work.points_examined += after.points_examined - before.points_examined;
        work.s1_distance_evals += after.s1_distance_evals - before.s1_distance_evals;

        // The first round's aggregate answers are kept for the checks.
        rounds.keep = round == 0;
        for (j, q) in agg_queries.iter().enumerate() {
            aggregate_round(vkg, q, j, domain, &mut report, Some(&mut rounds), &mut tr);
        }
        round += 1;
    }
    let all: Vec<f64> = plain.iter().chain(&traced).copied().collect();
    // Throughput from the median round: a few rounds that meet the
    // machine at its slowest do not set the figure.
    report.set("qps", TOPK_PER_ROUND as f64 / median(&round_s));
    report.info(format!(
        "warm top-k: p50 {:.3} ms p90 {:.3} ms p99 {:.3} ms over {} samples",
        median(&all),
        quantile(&all, 0.9),
        quantile(&all, 0.99),
        all.len()
    ));
    report.set(
        "index.splits_warm",
        (vkg.index_stats().splits_performed - report.get("index.splits_cold") as u64) as f64,
    );
    layers::index_per_topk(
        vkg::core::IndexStats::default(),
        work,
        all.len(),
        &mut report,
    );
    report.set("query.candidates_per_topk", mean(&candidates));
    report.set(
        "query.topk_us",
        median(&tr.durations_us("core.query.top_k")),
    );
    report.set(
        "trace.overhead_pct",
        100.0 * (ratio(median(&traced), median(&plain)) - 1.0),
    );
    report.info(format!(
        "measured: {round} rounds, {} top-k in {:.3} s, {} aggregates; {} splits",
        all.len(),
        round_s.iter().sum::<f64>(),
        rounds.ms.len(),
        vkg.index_stats().splits_performed - splits_before
    ));
    report.info(format!(
        "aggregates: p50 {:.3} ms over {} operations",
        median(&rounds.ms),
        rounds.ms.len()
    ));
    report.set(
        "query.agg_us",
        median(&rounds.ms.iter().map(|m| m * 1e3).collect::<Vec<_>>()),
    );
    report.set("query.agg_accessed", mean(&rounds.accessed));
    report.set("index.nodes", vkg.index_node_count() as f64);
    report.set("index_mb", vkg.index_bytes() as f64 / (1024.0 * 1024.0));

    report.mark(ctx, "measured phases");
    check_answers(&vkg.snapshot(), &answers, &rounds, domain, &mut report);
    report.mark(ctx, "checks");

    let (mut frames, mut server_spans) = (Vec::new(), Vec::new());
    if ctx.trace {
        report.set(
            "transform.query_point_us",
            layers::transform_probe(vkg, &warm, &mut tr),
        );
        report.set("snapshot.cow_ms", layers::cow_probe(vkg, &mut tr));
        (frames, server_spans) = server_probe(vkg, &warm, &mut report);
    }

    // Durability probe: fact writes with the WAL armed, then recovery
    // into a fresh engine.
    let log = ctx.file("probe.wal");
    let _ = std::fs::remove_file(&log);
    let attached = vkg.attach_wal(&log, FaultPlane::none());
    report.checks.require(attached.is_ok(), || {
        format!("attaching the WAL: {attached:?}")
    });
    let mut wrng = data::rng(ctx.seed, 30);
    let (mut write_ms, mut acked) = (Vec::new(), Vec::new());
    for q in warm.iter().take(PROBE_WRITES) {
        let (h, r, t) = data::fact_for(q, &mut wrng);
        let start = Instant::now();
        let res = vkg.add_fact_dynamic(h, r, t, data::REFINE_STEPS, data::LEARNING_RATE);
        write_ms.push(start.elapsed().as_secs_f64() * 1e3);
        report.side("fact_write", res.is_ok());
        if res.is_ok() {
            acked.push((h, r, t));
        }
    }
    report.info(format!(
        "durability probe: {} fact writes on the live engine, p50 {:.3} ms",
        write_ms.len(),
        median(&write_ms)
    ));
    check::check_visible(vkg, &acked, &mut report);
    let (_, secs, records) = layers::recover(
        &base,
        data::config(0),
        std::slice::from_ref(&log),
        vkg,
        &mut report,
    );
    report.info(format!(
        "recovery: {records} records replayed in {secs:.3} s"
    ));
    report.set("wal.replay_records_per_s", ratio(records as f64, secs));
    let after_writes = layers::engine_counters(vkg);
    layers::engine_layer(
        layers::EngineCounters::default(),
        after_writes,
        acked.len() as u64,
        &mut report,
    );
    if ctx.trace {
        layers::wal_figures(std::slice::from_ref(&log), ctx, &mut tr, &mut report);
        layers::wire_probe(&frames, &mut report);
    }
    let _ = std::fs::remove_file(&log);
    report.mark(ctx, "durability probe");
    drop((live, base));
    setups.finish(&mut report);
    report.mark(ctx, "late set-ups");
    if ctx.trace {
        layers::write_trace(ctx, &tr, &server_spans, &mut report);
    }
    report
}

/// Timed answers of the aggregate phases.
#[derive(Default)]
struct Rounds {
    /// Whether the answers of the current round are kept for the checks.
    keep: bool,
    ms: Vec<f64>,
    accessed: Vec<f64>,
    single: Vec<(Query, AggAnswer)>,
    multi: Vec<MultiAnswer>,
}

/// The aggregates of one query `q`: the five single-relation ones, then
/// one `aggregate_multi` over `q`'s relation and the next two. In the
/// measured rounds a MAX or MIN estimate outside the attribute's
/// `domain` counts as a failed operation; no estimate of a largest or
/// smallest value may leave the values every entity holds.
fn aggregate_round(
    vkg: &VirtualKnowledgeGraph,
    q: &Query,
    j: usize,
    domain: (f64, f64),
    report: &mut Report,
    mut rounds: Option<&mut Rounds>,
    tr: &mut Tracer,
) {
    let timed = rounds.is_some();
    let count = |report: &mut Report, what: &'static str, kind: AggregateKind, r: Option<f64>| {
        if !timed {
            report.side("aggregate_warmup", r.is_some());
            return;
        }
        let extreme = matches!(kind, AggregateKind::Max | AggregateKind::Min);
        let ok = r.is_some_and(|e| !extreme || check::in_domain(e, domain));
        report.op(
            if extreme && what == "aggregate" {
                "max_min"
            } else {
                what
            },
            ok,
        );
    };
    for kind in KINDS {
        let s = tr.open("core.query.aggregate", 0, j as u64);
        let t = Instant::now();
        let r = vkg.aggregate(q.entity, q.relation, q.direction, &data::spec(kind));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.close(s);
        count(
            report,
            "aggregate",
            kind,
            r.as_ref().ok().map(|r| r.estimate),
        );
        if let (Some(rounds), Ok(r)) = (rounds.as_deref_mut(), r) {
            rounds.ms.push(ms);
            rounds.accessed.push(r.accessed as f64);
            if rounds.keep {
                rounds.single.push((*q, AggAnswer::of(kind, &r)));
            }
        }
    }
    let kind = KINDS[j % KINDS.len()];
    let relations = multi_relations(vkg, q);
    let s = tr.open("core.query.aggregate_multi", 0, j as u64);
    let t = Instant::now();
    let r = vkg.aggregate_multi(q.entity, &relations, q.direction, &data::spec(kind));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.close(s);
    count(
        report,
        "aggregate_multi",
        kind,
        r.as_ref().ok().map(|r| r.combined.estimate),
    );
    if let (Some(rounds), Ok(r)) = (rounds, r) {
        rounds.ms.push(ms);
        if rounds.keep {
            rounds.multi.push(MultiAnswer {
                q: *q,
                kind,
                parts: r
                    .parts
                    .iter()
                    .map(|p| (p.relation, AggAnswer::of(kind, &p.result)))
                    .collect(),
                combined: r.combined.estimate,
            });
        }
    }
}

/// The relations of one `aggregate_multi` on `q`: `q`'s relation and up
/// to two more the entity has edges on in the same direction.
fn multi_relations(vkg: &VirtualKnowledgeGraph, q: &Query) -> Vec<RelationId> {
    let g = vkg.graph();
    let edges = match q.direction {
        Direction::Tails => g.out_edges(q.entity),
        Direction::Heads => g.in_edges(q.entity),
    };
    let mut out = vec![q.relation];
    for (r, _) in edges {
        if out.len() < MULTI_RELATIONS && !out.contains(r) {
            out.push(*r);
        }
    }
    out
}

/// Checks warm top-k answers against the exact scan (Theorem 2 and
/// precision) and aggregate answers against the ball (Theorem 4, MAX/MIN
/// order and range, the merge of `aggregate_multi`), then runs the
/// self-test on the first of them.
fn check_answers(
    snap: &VkgSnapshot,
    answers: &[Answer],
    rounds: &Rounds,
    domain: (f64, f64),
    report: &mut Report,
) {
    let mut topk = check::TopKChecks::default();
    let mut first = None;
    for (q, preds, expected) in answers {
        let exact = check::exact_top_k(snap, q, K);
        topk.add(snap, q, preds, &exact, *expected, report);
        if first.is_none() {
            first = Some((*q, preds.clone(), exact));
        }
    }
    topk.finish(report);

    let mut balls: std::collections::HashMap<Query, Ball> = std::collections::HashMap::new();
    let mut ball = |q: &Query| {
        balls
            .entry(*q)
            .or_insert_with(|| check::ball(snap, q, data::P_TAU, data::ATTRIBUTE))
            .clone()
    };
    let mut verdicts = check::Verdicts::new(domain);
    let mut sample: Vec<(AggAnswer, Ball)> = Vec::new();
    for (q, a) in &rounds.single {
        let b = ball(q);
        verdicts.add(a, &b);
        if sample.len() < KINDS.len() {
            sample.push((*a, b));
        }
    }
    // Each round asks MAX and MIN of the same query in turn.
    for pair in rounds.single.windows(2) {
        let ((qa, a), (qb, b)) = (&pair[0], &pair[1]);
        if qa == qb && a.kind == AggregateKind::Max && b.kind == AggregateKind::Min {
            report
                .checks
                .require(check::extremes_ordered(a.estimate, b.estimate), || {
                    format!(
                        "MAX {} below MIN {} for entity {}",
                        a.estimate, b.estimate, qa.entity.0
                    )
                });
        }
    }
    for m in &rounds.multi {
        for (relation, a) in &m.parts {
            let part = Query {
                relation: *relation,
                ..m.q
            };
            verdicts.add(a, &ball(&part));
        }
        let estimates: Vec<f64> = m.parts.iter().map(|(_, a)| a.estimate).collect();
        let merged = match m.kind {
            AggregateKind::Count | AggregateKind::Sum => Some(estimates.iter().sum::<f64>()),
            _ => None,
        };
        let (lo, hi) = estimates
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), e| {
                (l.min(*e), h.max(*e))
            });
        let ok = match merged {
            Some(sum) => (m.combined - sum).abs() <= 1e-9 * sum.abs().max(1.0),
            None => {
                m.combined >= lo - 1e-9 * lo.abs().max(1.0)
                    && m.combined <= hi + 1e-9 * hi.abs().max(1.0)
            }
        };
        report.checks.require(ok, || {
            format!(
                "aggregate_multi {:?} merged {} from parts {estimates:?}",
                m.kind, m.combined
            )
        });
    }
    verdicts.finish(report);
    if let Some((q, preds, exact)) = first {
        report
            .checks
            .result(check::self_test(snap, &q, &preds, &exact, &sample, domain).map(|_| ()));
    }
}

/// The traced run's TCP probe: warm queries served one at a time over
/// one connection, then `Stats` round trips, then the exported spans
/// and counters. Returns the frames for the wire probe and the spans.
fn server_probe(
    vkg: &Arc<VirtualKnowledgeGraph>,
    warm: &[Query],
    report: &mut Report,
) -> (Vec<(vkg::server::Request, Response)>, Vec<vkg::obs::Span>) {
    let cfg = ServerConfig {
        workers: data::cores(),
        span_ring: SPAN_RING,
        ..ServerConfig::default()
    };
    let (mut client_us, mut frames, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    let handle = match Server::start(Arc::clone(vkg), "127.0.0.1:0", cfg) {
        Ok(h) => h,
        Err(e) => {
            report
                .checks
                .require(false, || format!("starting the probe server: {e}"));
            return (frames, spans);
        }
    };
    match Client::connect(handle.addr()) {
        Ok(mut client) => {
            for q in warm.iter().take(SERVER_PROBE_QUERIES) {
                let request = layers::request(&Op::TopK(*q));
                let t = Instant::now();
                let response = client.call(&request);
                let ok = matches!(response, Ok(Response::TopK(_)));
                report.side("topk_tcp_probe", ok);
                if let (true, Ok(r)) = (ok, response) {
                    client_us.push(t.elapsed().as_secs_f64() * 1e6);
                    frames.push((request, r));
                }
            }
            layers::noop_rtt(&mut client, report);
            match client.metrics(SPAN_RING as u32) {
                Ok(export) => {
                    layers::check_drained(&export, report);
                    layers::server_layer(&export, report);
                    spans = export.snapshot.spans;
                }
                Err(e) => report
                    .checks
                    .require(false, || format!("metrics export: {e}")),
            }
        }
        Err(e) => report
            .checks
            .require(false, || format!("probe client: {e}")),
    }
    handle.shutdown();
    report.set(
        "server.overhead_us",
        median(&client_us) - report.get("query.topk_us"),
    );
    (frames, spans)
}

/// A seeded Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}
