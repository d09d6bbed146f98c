//! The two workloads served over TCP by one in-process server.
//!
//! `serve_zipf_read`: read-only, result cache on (1024 entries), a
//! Zipf-skewed stream over 2048 distinct top-k and aggregate queries
//! whose hot set fits in the cache. `serve_uniform_write`: a uniform
//! stream over 1024 distinct queries, a cache of 64 entries, one fact
//! write (`AddFactDynamic`) per block of 100 requests with the WAL armed,
//! and one in-process attribute write beside every block.
//!
//! Both run a closed-loop phase (one connection per core, each sending
//! its next request when the last is answered) and an open-loop phase at
//! a fixed rate, where each request is timed from when it was due; the
//! two take turns in slices, each slice followed by a fresh-engine probe
//! (a cold phase and a few WAL-armed fact writes on an engine assembled
//! afresh, in process). Every connection works in whole blocks, so
//! each run attempts whole rounds of the same operations.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use vkg::core::FaultPlane;
use vkg::kg::zipf::Zipf;
use vkg::prelude::*;
use vkg::server::{Client, Request, Response, Server, ServerConfig};

use crate::check::{self, check_visible, AggAnswer, Ball, TopKChecks, Verdicts};
use crate::data::{self, Op, Query, ENTITIES, K, KINDS};
use crate::layers::{self, SPAN_RING};
use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::{Ctx, Report};

/// One serve workload's shape.
pub struct Spec {
    /// Result-cache capacity, in entries.
    pub cache: usize,
    /// Distinct queries the stream draws from.
    pub universe: usize,
    /// Zipf exponent of the stream over the universe's ranks; `None` is
    /// uniform.
    pub zipf: Option<f64>,
    /// One fact write per block over the wire, one attribute write in
    /// process beside each block.
    pub writes: bool,
    /// Requests per second of the open-loop phase.
    pub open_rate: f64,
}

pub const ZIPF_READ: Spec = Spec {
    cache: 1024,
    universe: 2048,
    zipf: Some(1.2),
    writes: false,
    open_rate: 500.0,
};

pub const UNIFORM_WRITE: Spec = Spec {
    cache: 64,
    universe: 1024,
    zipf: None,
    writes: true,
    open_rate: 60.0,
};

/// Share of the measured time in the closed-loop phase.
const CLOSED_SHARE: f64 = 0.6;
/// Slices the measured time is cut into; each is a closed-loop then an
/// open-loop phase.
const SLICES: usize = 8;
/// Requests one connection sends per block.
const BLOCK: usize = 100;
/// Served queries asked again at quiescence for the parity and
/// correctness checks.
const CHECKED: usize = 128;
/// In-process blocks of [`BLOCK`] reads after each slice.
const LOCAL_BLOCKS: usize = 20;
/// Fact writes of the read-only workload's durability probe.
const PROBE_WRITES: usize = 32;

/// The universe: distinct uniform queries; every fourth one is an
/// aggregate, rotating through the five kinds.
fn universe(graph: &KnowledgeGraph, spec: &Spec) -> Vec<Op> {
    data::uniform_queries(
        graph,
        spec.universe,
        &mut data::rng(data::QUERY_SET_SEED, 40),
        true,
    )
    .into_iter()
    .enumerate()
    .map(|(i, q)| {
        if i % 4 == 3 {
            Op::Aggregate(q, KINDS[(i / 4) % KINDS.len()])
        } else {
            Op::TopK(q)
        }
    })
    .collect()
}

fn query_of(op: &Op) -> Query {
    match *op {
        Op::TopK(q) | Op::Aggregate(q, _) => q,
    }
}

#[derive(Clone, Copy)]
enum Phase {
    Closed {
        until: Instant,
    },
    Open {
        start: Instant,
        rate: f64,
        blocks: u64,
    },
}

/// What the connection threads share.
struct Shared<'a> {
    vkg: &'a VirtualKnowledgeGraph,
    ops: &'a [Op],
    spec: &'a Spec,
    addr: SocketAddr,
    seed: u64,
    conns: usize,
    attr_serial: AtomicU64,
}

/// One request's outcome as the client saw it.
struct Sample {
    kind: &'static str,
    /// From when it was due (open loop) or sent (closed loop), in ms.
    latency_ms: f64,
    /// From when it was sent, in ms.
    service_ms: f64,
    /// Send time minus due time, in ms (open loop).
    late_ms: f64,
    traced: bool,
}

struct ConnOut {
    samples: Vec<Sample>,
    counts: std::collections::BTreeMap<&'static str, (u64, u64)>,
    acked: Vec<(EntityId, RelationId, EntityId)>,
    attrs: Vec<(EntityId, f64)>,
    served: Vec<usize>,
    /// Wall time of each block of [`BLOCK`] requests, in seconds.
    blocks_s: Vec<f64>,
    finish: Instant,
    tracer: Tracer,
    error: Option<String>,
}

impl ConnOut {
    fn count(&mut self, kind: &'static str, ok: bool) {
        let e = self.counts.entry(kind).or_default();
        e.0 += 1;
        e.1 += u64::from(!ok);
    }
}

/// Draws the next universe index of a connection's stream.
fn pick(zipf: Option<&Zipf>, n: usize, rng: &mut StdRng) -> usize {
    match zipf {
        Some(z) => z.sample(rng),
        None => rand::Rng::gen_range(rng, 0..n),
    }
}

fn connection(sh: &Shared<'_>, c: usize, phase: Phase, salt: u64, tracer: Tracer) -> ConnOut {
    let mut out = ConnOut {
        samples: Vec::new(),
        counts: Default::default(),
        acked: Vec::new(),
        attrs: Vec::new(),
        served: Vec::new(),
        blocks_s: Vec::new(),
        finish: Instant::now(),
        tracer,
        error: None,
    };
    let mut client = match Client::connect(sh.addr) {
        Ok(client) => client,
        Err(e) => {
            out.error = Some(format!("connection {c}: {e}"));
            return out;
        }
    };
    let zipf = sh.spec.zipf.map(|s| Zipf::new(sh.ops.len(), s));
    let mut rng = data::rng(sh.seed, salt + 2 * c as u64);
    let mut wrng = data::rng(sh.seed, salt + 2 * c as u64 + 1);
    let (mut n, mut block) = (0u64, 0u64);
    loop {
        match phase {
            Phase::Closed { until } if Instant::now() >= until => break,
            Phase::Open { blocks, .. } if block >= blocks => break,
            _ => {}
        }
        let traced = out.tracer.on() && block % 2 == 1;
        let block_start = Instant::now();
        for b in 0..BLOCK {
            let due = match phase {
                Phase::Open { start, rate, .. } => {
                    let i = n * sh.conns as u64 + c as u64;
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    Some(due)
                }
                Phase::Closed { .. } => None,
            };
            let item = pick(zipf.as_ref(), sh.ops.len(), &mut rng);
            let op = sh.ops[item];
            let write = sh.spec.writes && b == BLOCK - 1;
            let (kind, request, fact) = if write {
                let fact = data::fact_for(&query_of(&op), &mut wrng);
                ("fact_write", layers::write_request(fact), Some(fact))
            } else {
                let kind = match op {
                    Op::TopK(_) => "topk",
                    Op::Aggregate(..) => "aggregate",
                };
                (kind, layers::request(&op), None)
            };
            let req_id = ((c as u64) << 32) | n;
            let span = if traced {
                out.tracer.open(kind, 0, req_id)
            } else {
                0
            };
            let sent = Instant::now();
            let response = client.call(&request);
            let done = Instant::now();
            out.tracer.close(span);
            let ok = matches!(&response, Ok(r) if !matches!(r, Response::Error(_)));
            out.count(kind, ok);
            if let (Some(fact), true) = (fact, ok) {
                out.acked.push(fact);
            }
            if !write && ok {
                out.served.push(item);
            }
            let since = |t: Instant| done.duration_since(t).as_secs_f64() * 1e3;
            out.samples.push(Sample {
                kind,
                latency_ms: since(due.unwrap_or(sent)),
                service_ms: since(sent),
                late_ms: due.map_or(0.0, |d| {
                    sent.saturating_duration_since(d).as_secs_f64() * 1e3
                }),
                traced,
            });
            n += 1;
        }
        out.blocks_s.push(block_start.elapsed().as_secs_f64());
        if sh.spec.writes {
            // Distinct entities (7919 is coprime to the entity count),
            // values no generated attribute holds.
            let serial = sh.attr_serial.fetch_add(1, Ordering::Relaxed);
            let entity = EntityId(((serial * 7919 + 13) % ENTITIES as u64) as u32);
            let value = 1000.0 + serial as f64;
            sh.vkg.set_attribute_dynamic(data::ATTRIBUTE, entity, value);
            out.attrs.push((entity, value));
            out.count("attr_write", true);
        }
        block += 1;
    }
    out.finish = Instant::now();
    out
}

/// [`LOCAL_BLOCKS`] blocks of the workload's read stream asked in process
/// by one caller, through the facade with the result cache on and no
/// server: the read path without the wire and the server's threads.
/// Returns each block's wall time, in seconds.
fn local_blocks(sh: &Shared<'_>, salt: u64, report: &mut Report) -> Vec<f64> {
    let zipf = sh.spec.zipf.map(|s| Zipf::new(sh.ops.len(), s));
    let mut rng = data::rng(sh.seed, salt);
    let mut out = Vec::with_capacity(LOCAL_BLOCKS);
    for _ in 0..LOCAL_BLOCKS {
        let start = Instant::now();
        for _ in 0..BLOCK {
            let ok = match sh.ops[pick(zipf.as_ref(), sh.ops.len(), &mut rng)] {
                Op::TopK(q) => sh.vkg.top_k(q.entity, q.relation, q.direction, K).is_ok(),
                Op::Aggregate(q, kind) => sh
                    .vkg
                    .aggregate(q.entity, q.relation, q.direction, &data::spec(kind))
                    .is_ok(),
            };
            report.op("local_read", ok);
        }
        out.push(start.elapsed().as_secs_f64());
    }
    out
}

/// Runs one phase on every connection; returns their outputs and the
/// phase's start.
fn phase(
    sh: &Shared<'_>,
    phase: impl Fn(Instant) -> Phase,
    salt: u64,
    tr: &Tracer,
) -> (Vec<ConnOut>, Instant) {
    let start = Instant::now();
    let p = phase(start);
    let outs = std::thread::scope(|s| {
        let threads: Vec<_> = (0..sh.conns)
            .map(|c| {
                let tracer = tr.fork(c as u64 + 1 + salt);
                s.spawn(move || connection(sh, c, p, salt, tracer))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("connection thread"))
            .collect()
    });
    (outs, start)
}

pub fn run(ctx: &Ctx, spec: &Spec) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new(ctx.trace, ctx.origin, 0);
    let mut p = layers::prepare(spec.cache, &mut report);
    let vkg = Arc::clone(&p.vkg);
    report.mark(ctx, "set-up and cold phases");
    let ops = universe(&vkg.graph(), spec);
    // Warm-up: every universe query answered once in process, coldest
    // first, so the index has seen them all and the cache ends holding
    // the hottest (for a Zipf stream, the first ranks).
    for op in ops.iter().rev() {
        let ok = match *op {
            Op::TopK(q) => vkg.top_k(q.entity, q.relation, q.direction, K).is_ok(),
            Op::Aggregate(q, kind) => vkg
                .aggregate(q.entity, q.relation, q.direction, &data::spec(kind))
                .is_ok(),
        };
        report.side("warmup", ok);
    }

    report.mark(ctx, "warm-up");
    let logs: Vec<PathBuf> = ["closed.wal", "open.wal", "probe.wal", "fresh.wal"]
        .iter()
        .map(|f| ctx.file(f))
        .collect();
    for log in &logs {
        let _ = std::fs::remove_file(log);
    }
    let attach = |vkg: &VirtualKnowledgeGraph, log: &PathBuf, report: &mut Report| {
        let r = vkg.attach_wal(log, FaultPlane::none());
        report
            .checks
            .require(r.is_ok(), || format!("attaching {}: {r:?}", log.display()));
    };
    if spec.writes {
        attach(&vkg, &logs[0], &mut report);
    }
    let cfg = ServerConfig {
        workers: data::cores(),
        span_ring: SPAN_RING,
        ..ServerConfig::default()
    };
    let handle = match Server::start(Arc::clone(&vkg), "127.0.0.1:0", cfg) {
        Ok(h) => h,
        Err(e) => {
            report
                .checks
                .require(false, || format!("starting the server: {e}"));
            return report;
        }
    };
    let sh = Shared {
        vkg: &vkg,
        ops: &ops,
        spec,
        addr: handle.addr(),
        seed: ctx.seed,
        conns: data::cores(),
        attr_serial: AtomicU64::new(0),
    };
    // The workload's peak memory is the set-up's and the warmed, serving
    // engine's, before the fresh-engine probes hold a second engine.
    report.set("peak_rss_mb", data::peak_rss_mb());
    let counters_before = layers::engine_counters(&vkg);
    let epoch_before = vkg.epoch();

    // The two phases take turns in SLICES slices, so both see the same
    // stretches of the run; in-process blocks of the same stream and a
    // fresh-engine probe follow each. The
    // first open-loop slice switches the writes to a log of their own,
    // the one recovery is timed on.
    let closed_s = CLOSED_SHARE * ctx.seconds / SLICES as f64;
    let open_s = (1.0 - CLOSED_SHARE) * ctx.seconds / SLICES as f64;
    let per_block = (sh.conns * BLOCK) as f64;
    let blocks = ((spec.open_rate * open_s / per_block).round() as u64).max(1);
    let (mut closed, mut open, mut wall) = (Vec::new(), Vec::new(), 0.0);
    let mut local_s = Vec::new();
    for slice in 0..SLICES as u64 {
        let (outs, start) = phase(
            &sh,
            |s| Phase::Closed {
                until: s + Duration::from_secs_f64(closed_s),
            },
            1000 * (slice + 1),
            &tr,
        );
        wall += outs
            .iter()
            .map(|o| o.finish.duration_since(start).as_secs_f64())
            .fold(0.0, f64::max);
        closed.extend(outs);
        if spec.writes && slice == 0 {
            attach(&vkg, &logs[1], &mut report);
        }
        let (outs, _) = phase(
            &sh,
            |s| Phase::Open {
                start: s,
                rate: spec.open_rate,
                blocks,
            },
            1000 * (slice + 1) + 500,
            &tr,
        );
        open.extend(outs);
        local_s.extend(local_blocks(&sh, 1000 * (slice + 1) + 900, &mut report));
        p.setups.probe(&p.base, &logs[3], ctx.seed, &mut report);
    }
    // Throughput from the median block. `qps` is the in-process
    // caller's: over TCP every request crosses four threads on few
    // cores, and the host's pace of waking them set the closed loop's
    // throughput, which is printed beside it (README.md: why). The
    // median keeps the few blocks that hit the heaviest uncached
    // queries from setting either figure.
    report.set("qps", BLOCK as f64 / median(&local_s));
    let wire_ops: usize = closed.iter().map(|o| o.samples.len()).sum();
    let blocks_s: Vec<f64> = closed
        .iter()
        .flat_map(|o| o.blocks_s.iter().copied())
        .collect();
    report.info(format!(
        "closed loop: {wire_ops} requests on {} connections in {wall:.3} s, {:.1} per second overall, {:.1} per second from the median block; {} blocks",
        sh.conns,
        wire_ops as f64 / wall,
        (sh.conns * BLOCK) as f64 / median(&blocks_s),
        blocks_s.len()
    ));
    let counters_after = layers::engine_counters(&vkg);
    report.mark(ctx, "measured phases");
    let writes_published = vkg.epoch() - epoch_before;
    let open_requests: usize = open.iter().map(|o| o.samples.len()).sum();

    // Read latencies are printed, not gated (README.md: why): the closed
    // loop's, whose connections keep the cores busy, and the open loop's,
    // timed from when each request was due.
    let of = |outs: &[ConnOut], kind: &str, f: fn(&Sample) -> f64| -> Vec<f64> {
        outs.iter()
            .flat_map(|o| &o.samples)
            .filter(|s| s.kind == kind)
            .map(f)
            .collect()
    };
    report.info(format!(
        "closed loop: top-k p50 {:.3} ms, aggregate p50 {:.3} ms",
        median(&of(&closed, "topk", |s| s.latency_ms)),
        median(&of(&closed, "aggregate", |s| s.latency_ms))
    ));
    let topk = of(&open, "topk", |s| s.latency_ms);
    let late: Vec<f64> = open
        .iter()
        .flat_map(|o| &o.samples)
        .map(|s| s.late_ms)
        .collect();
    report.info(format!(
        "open loop: {open_requests} requests at {} /s; from due: top-k p50 {:.3} ms p90 {:.3} ms p99 {:.3} ms over {} samples, aggregate p50 {:.3} ms",
        spec.open_rate,
        median(&topk),
        quantile(&topk, 0.9),
        quantile(&topk, 0.99),
        topk.len(),
        median(&of(&open, "aggregate", |s| s.latency_ms)),
    ));
    report.info(format!(
        "open loop: generator late p50 {:.3} ms p95 {:.3} ms max {:.3} ms; {:.4} of sends over 1 ms late",
        median(&late),
        quantile(&late, 0.95),
        quantile(&late, 1.0),
        ratio(late.iter().filter(|l| **l > 1.0).count() as f64, late.len() as f64)
    ));
    if spec.writes {
        let mut writes = of(&closed, "fact_write", |s| s.latency_ms);
        writes.extend(of(&open, "fact_write", |s| s.latency_ms));
        report.info(format!(
            "fact writes over TCP: p50 {:.3} ms over {}",
            median(&writes),
            writes.len()
        ));
    }
    let service = |traced: bool| -> Vec<f64> {
        open.iter()
            .flat_map(|o| &o.samples)
            .filter(|s| s.traced == traced && s.kind != "fact_write")
            .map(|s| s.service_ms)
            .collect()
    };
    report.set(
        "trace.overhead_pct",
        100.0 * (ratio(median(&service(true)), median(&service(false))) - 1.0),
    );
    let client_topk_us = median(&of(&open, "topk", |s| s.service_ms)) * 1e3;
    report.set("index_mb", vkg.index_bytes() as f64 / (1024.0 * 1024.0));
    report.set("index.nodes", vkg.index_node_count() as f64);
    report.set(
        "index.splits_warm",
        vkg.index_stats().splits_performed as f64 - report.get("index.splits_cold"),
    );

    let mut acked = Vec::new();
    let mut attrs = Vec::new();
    let mut served = Vec::new();
    for o in closed.into_iter().chain(open) {
        if let Some(e) = &o.error {
            report.checks.require(false, || e.clone());
        }
        for (kind, (a, f)) in &o.counts {
            report.ops_n(kind, *a, *f);
        }
        acked.extend(o.acked);
        attrs.extend(o.attrs);
        served.extend(o.served);
        tr.absorb(o.tracer);
    }

    // Quiescent: exported spans and counters, then the served sample
    // asked again over the wire and recomputed with the cache bypassed.
    let mut server_spans = Vec::new();
    let mut frames = Vec::new();
    let mut write_ms = Vec::new();
    match Client::connect(sh.addr) {
        Ok(mut client) => {
            match client.metrics(open_requests.min(SPAN_RING) as u32) {
                Ok(export) => {
                    layers::check_drained(&export, &mut report);
                    if ctx.trace {
                        layers::server_layer(&export, &mut report);
                        server_spans = export.snapshot.spans;
                    }
                }
                Err(e) => report
                    .checks
                    .require(false, || format!("metrics export: {e}")),
            }
            if ctx.trace {
                layers::noop_rtt(&mut client, &mut report);
            }
            frames = check_sample(&vkg, &ops, &served, &mut client, &mut report);
            if !spec.writes {
                // Durability probe over the wire, after the measured phases.
                attach(&vkg, &logs[2], &mut report);
                let mut wrng = data::rng(ctx.seed, 30);
                for &i in served.iter().take(PROBE_WRITES) {
                    let fact = data::fact_for(&query_of(&ops[i]), &mut wrng);
                    let t = Instant::now();
                    let r = client.call(&layers::write_request(fact));
                    write_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let ok = matches!(r, Ok(Response::FactAdded { .. }));
                    report.side("fact_write_probe", ok);
                    if ok {
                        acked.push(fact);
                    }
                }
                report.info(format!(
                    "durability probe: {} fact writes over TCP, p50 {:.3} ms",
                    write_ms.len(),
                    median(&write_ms)
                ));
            }
        }
        Err(e) => report
            .checks
            .require(false, || format!("check client: {e}")),
    }
    handle.shutdown();
    report.mark(ctx, "checks");
    check_visible(&vkg, &acked, &mut report);

    // Recovery into a fresh engine; the open-loop log (or the probe's)
    // is the timed one.
    let replay: Vec<PathBuf> = if spec.writes {
        logs[..2].to_vec()
    } else {
        logs[2..3].to_vec()
    };
    let (fresh, secs, records) = layers::recover(
        &p.base,
        data::config(spec.cache),
        &replay,
        &vkg,
        &mut report,
    );
    report.info(format!(
        "recovery: {records} records of the timed log replayed in {secs:.3} s"
    ));
    report.set("wal.replay_records_per_s", ratio(records as f64, secs));
    // Attribute writes bypass the WAL: each one the replayed engine
    // cannot read back is a failed operation.
    let (live_attrs, fresh_attrs) = (vkg.attributes(), fresh.attributes());
    let value = |store: &AttributeStore, e: EntityId| store.get(data::ATTRIBUTE, e).ok().flatten();
    let unapplied = attrs
        .iter()
        .filter(|(e, v)| value(&live_attrs, *e) != Some(*v))
        .count();
    report.checks.require(unapplied == 0, || {
        format!("{unapplied} attribute writes are not in the live engine")
    });
    let lost = attrs
        .iter()
        .filter(|(e, v)| value(&fresh_attrs, *e) != Some(*v))
        .count();
    if spec.writes {
        report.ops_n("attr_write", 0, lost as u64);
    }
    drop((live_attrs, fresh_attrs, fresh));

    report.mark(ctx, "recovery");
    layers::engine_layer(
        counters_before,
        counters_after,
        writes_published,
        &mut report,
    );
    if ctx.trace {
        let probe: Vec<Op> = distinct(&served)
            .into_iter()
            .take(4 * CHECKED)
            .map(|i| ops[i])
            .collect();
        let topk_us = layers::query_probe(&vkg, &probe, &mut tr, &mut report);
        report.set("server.overhead_us", client_topk_us - median(&topk_us));
        let queries: Vec<Query> = probe.iter().map(query_of).collect();
        report.set(
            "transform.query_point_us",
            layers::transform_probe(&vkg, &queries, &mut tr),
        );
        report.set("snapshot.cow_ms", layers::cow_probe(&vkg, &mut tr));
        layers::wal_figures(&replay, ctx, &mut tr, &mut report);
        layers::wire_probe(&frames, &mut report);
    }
    for log in &logs {
        let _ = std::fs::remove_file(log);
    }
    let layers::Prepared {
        vkg: live,
        base,
        setups,
    } = p;
    drop((vkg, live, base));
    setups.finish(&mut report);
    report.mark(ctx, "late set-ups");
    if ctx.trace {
        layers::write_trace(ctx, &tr, &server_spans, &mut report);
    }
    report
}

/// Universe indices in first-served order, without repeats.
fn distinct(served: &[usize]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    served.iter().copied().filter(|i| seen.insert(*i)).collect()
}

/// Asks up to [`CHECKED`] distinct served queries again over the wire
/// and recomputes each in process with the cache bypassed at the same
/// epoch: the two must match bit for bit. The served top-k answers are
/// checked against the exact scan, the aggregates against the ball, and
/// the self-test corrupts the first of them and the first frames.
/// Returns the (request, response) frames.
fn check_sample(
    vkg: &VirtualKnowledgeGraph,
    ops: &[Op],
    served: &[usize],
    client: &mut Client,
    report: &mut Report,
) -> Vec<(Request, Response)> {
    let snap = vkg.snapshot();
    let domain = check::attribute_range(&snap, data::ATTRIBUTE);
    let mut topk = TopKChecks::default();
    let mut verdicts = Verdicts::new(domain);
    let mut frames = Vec::new();
    let mut first_topk = None;
    let mut agg_sample: Vec<(AggAnswer, Ball)> = Vec::new();
    for i in distinct(served).into_iter().take(CHECKED) {
        let op = ops[i];
        let request = layers::request(&op);
        let remote = client.call(&request);
        let local = layers::recompute(vkg, &op);
        report.side("parity", remote.is_ok() && local.is_ok());
        let (Ok(remote), Ok(local)) = (remote, local) else {
            continue;
        };
        report.checks.require(same_answer(&remote, &local), || {
            format!("served answer differs from the cache-free recomputation for {op:?}")
        });
        match (&op, &remote) {
            (Op::TopK(q), Response::TopK(t)) => {
                let preds: Vec<(u32, f64)> =
                    t.predictions.iter().map(|p| (p.id, p.distance)).collect();
                let exact = check::exact_top_k(&snap, q, K);
                topk.add(&snap, q, &preds, &exact, t.expected_misses, report);
                first_topk.get_or_insert((*q, preds, exact));
            }
            (Op::Aggregate(q, kind), Response::Aggregate(a)) => {
                let answer = AggAnswer {
                    kind: *kind,
                    estimate: a.estimate,
                    mu: a.mu,
                    mass: a.increment_mass,
                };
                let ball = check::ball(&snap, q, data::P_TAU, data::ATTRIBUTE);
                verdicts.add(&answer, &ball);
                if !agg_sample.iter().any(|(b, _)| b.kind == *kind) {
                    agg_sample.push((answer, ball));
                }
                if let Some(other) = partner(*kind) {
                    // The opposite extreme of the same query, recomputed.
                    if let Ok(Response::Aggregate(o)) =
                        layers::recompute(vkg, &Op::Aggregate(*q, other))
                    {
                        let (max, min) = if *kind == AggregateKind::Max {
                            (a.estimate, o.estimate)
                        } else {
                            (o.estimate, a.estimate)
                        };
                        report
                            .checks
                            .require(check::extremes_ordered(max, min), || {
                                format!("MAX {max} below MIN {min} for entity {}", q.entity.0)
                            });
                    }
                }
            }
            _ => report
                .checks
                .require(false, || format!("unexpected response to {op:?}")),
        }
        frames.push((request, remote));
    }
    topk.finish(report);
    verdicts.finish(report);
    match first_topk {
        Some((q, preds, exact)) => report
            .checks
            .result(check::self_test(&snap, &q, &preds, &exact, &agg_sample, domain).map(|_| ())),
        None => report
            .checks
            .require(false, || "no served top-k answer to self-test".into()),
    }
    report.checks.result(parity_self_test(&frames));
    frames
}

/// Corrupts the first top-k and the first aggregate frame by one bit of
/// a distance or an estimate; the parity comparison must reject each.
fn parity_self_test(frames: &[(Request, Response)]) -> Result<(), String> {
    let mut caught = 0;
    for (_, r) in frames {
        let mut bad = r.clone();
        match &mut bad {
            Response::TopK(t) if caught & 1 == 0 && !t.predictions.is_empty() => {
                let d = &mut t.predictions[0].distance;
                *d = f64::from_bits(d.to_bits() ^ 1);
                caught |= 1;
            }
            Response::Aggregate(a) if caught & 2 == 0 => {
                a.estimate = f64::from_bits(a.estimate.to_bits() ^ 1);
                caught |= 2;
            }
            _ => continue,
        }
        if same_answer(&bad, r) {
            return Err(format!(
                "a served answer with one bit flipped passed parity: {bad:?}"
            ));
        }
    }
    if caught == 3 {
        Ok(())
    } else {
        Err("the parity self-test found no top-k and aggregate frame to corrupt".into())
    }
}

/// The other extreme of a MAX or MIN.
fn partner(kind: AggregateKind) -> Option<AggregateKind> {
    match kind {
        AggregateKind::Max => Some(AggregateKind::Min),
        AggregateKind::Min => Some(AggregateKind::Max),
        _ => None,
    }
}

/// Bit equality of two answers: epoch, ids, distances, probabilities
/// and guarantees of a top-k; epoch, estimate, bound and ball size of
/// an aggregate.
fn same_answer(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::TopK(x), Response::TopK(y)) => {
            x.epoch == y.epoch
                && x.predictions.len() == y.predictions.len()
                && x.predictions.iter().zip(&y.predictions).all(|(p, q)| {
                    p.id == q.id
                        && p.distance.to_bits() == q.distance.to_bits()
                        && p.probability.to_bits() == q.probability.to_bits()
                })
                && x.success_probability.to_bits() == y.success_probability.to_bits()
                && x.expected_misses.to_bits() == y.expected_misses.to_bits()
        }
        (Response::Aggregate(x), Response::Aggregate(y)) => {
            x.epoch == y.epoch
                && x.estimate.to_bits() == y.estimate.to_bits()
                && x.mu.to_bits() == y.mu.to_bits()
                && x.increment_mass.to_bits() == y.increment_mass.to_bits()
                && x.ball_size == y.ball_size
        }
        _ => false,
    }
}
