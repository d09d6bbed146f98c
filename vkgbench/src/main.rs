//! End-to-end and per-layer benchmark of the vkg workspace.
//!
//! ```text
//! vkgbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! vkgbench --self-test
//! ```
//!
//! Runs one workload over a seeded synthetic Freebase-like graph of
//! 100k entities, checks the program's answers against computations
//! made apart from it, and prints every metric by name and unit, the
//! operations attempted and failed per kind, and as its last line one
//! JSON object. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! records spans around the benchmark's calls into each layer, writes
//! them to `DIR`, and reports the per-layer metrics. See README.md.

mod check;
mod data;
mod layers;
mod paper;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("cold_topk_s", "s"),
    ("qps", "1/s"),
    ("write_p50_ms", "ms"),
    ("precision_at_10", "ratio"),
    ("index_mb", "MiB"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload reports, with their units.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("kg.generate_s", "s"),
    ("embed.train_s", "s"),
    ("core.assemble_s", "s"),
    ("pool.parallel_share", "ratio"),
    ("transform.query_point_us", "us"),
    ("index.splits_cold", "count"),
    ("index.splits_warm", "count"),
    ("index.nodes", "count"),
    ("index.s1_evals_per_topk", "count"),
    ("index.points_examined_per_topk", "count"),
    ("index.elements_accessed_per_topk", "count"),
    ("query.topk_us", "us"),
    ("query.candidates_per_topk", "count"),
    ("query.agg_us", "us"),
    ("query.agg_accessed", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("cache.prefix_hits", "count"),
    ("cache.invalidations_per_write", "count"),
    ("snapshot.cow_ms", "ms"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_write", "bytes"),
    ("wal.replay_records_per_s", "1/s"),
    ("server.noop_rtt_us", "us"),
    ("server.overhead_us", "us"),
    ("server.queue_us", "us"),
    ("server.batch_us", "us"),
    ("server.lock_us", "us"),
    ("server.exec_us", "us"),
    ("server.encode_us", "us"),
    ("server.lock_rounds_per_answer", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: [&str; 3] = [
    "paper_freebase_100k",
    "serve_zipf_read",
    "serve_uniform_write",
];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub workload: String,
    pub origin: Instant,
}

impl Ctx {
    /// A file of this run inside the output directory.
    pub fn file(&self, what: &str) -> PathBuf {
        self.out
            .join(format!("{}-seed{}-{}", self.workload, self.seed, what))
    }
}

/// What one run measured, counted and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    ops: BTreeMap<&'static str, (u64, u64)>,
    side: BTreeMap<&'static str, (u64, u64)>,
    pub checks: check::Checks,
    info: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A value set earlier in the run (0 if none was).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Counts one attempted operation of `kind` in the measured rounds,
    /// failed unless `ok`.
    pub fn op(&mut self, kind: &'static str, ok: bool) {
        self.ops_n(kind, 1, u64::from(!ok));
    }

    /// Counts one operation outside the measured rounds (set-up, warm-up,
    /// checks, probes). These must all succeed; they are printed per kind
    /// but left out of the totals, so that the measured rounds alone set
    /// the share of failed operations.
    pub fn side(&mut self, kind: &'static str, ok: bool) {
        let e = self.side.entry(kind).or_default();
        e.0 += 1;
        e.1 += u64::from(!ok);
    }

    pub fn ops_n(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        let e = self.ops.entry(kind).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    /// A line printed with the results (not a metric).
    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    /// Notes how far into the run a stage ended.
    pub fn mark(&mut self, ctx: &Ctx, stage: &str) {
        self.info(format!(
            "time: {stage} done at {:.2} s",
            ctx.origin.elapsed().as_secs_f64()
        ));
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: vkgbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out DIR]\n       vkgbench --self-test",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("vkgbench/out");
    while let Some(a) = args.next() {
        if a == "--self-test" {
            return check::run_self_test();
        }
        let Some(v) = args.next() else { return usage() };
        match a.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = v.parse::<u8>().ok().filter(|t| *t <= 1),
            "--out" => out = PathBuf::from(v),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage();
    }
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("vkgbench: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace: trace == 1,
        out,
        workload,
        origin: Instant::now(),
    };
    let report = match ctx.workload.as_str() {
        "paper_freebase_100k" => paper::run(&ctx),
        "serve_zipf_read" => serve::run(&ctx, &serve::ZIPF_READ),
        _ => serve::run(&ctx, &serve::UNIFORM_WRITE),
    };
    print_report(&ctx, report);
    ExitCode::SUCCESS
}

fn print_report(ctx: &Ctx, mut report: Report) {
    let wanted: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in wanted {
        let v = report.values.get(name).copied();
        report.checks.require(v.is_some_and(f64::is_finite), || {
            format!("metric {name} was not measured")
        });
    }
    for line in &report.info {
        println!("{line}");
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (kind, (a, f)) in &report.ops {
        println!("ops {kind:<16} attempted {a:>8} failed {f:>6}  (measured rounds)");
        attempted += a;
        failed += f;
    }
    for (kind, (a, f)) in &report.side {
        println!("ops {kind:<16} attempted {a:>8} failed {f:>6}  (outside the rounds)");
    }
    let side_failed: u64 = report.side.values().map(|(_, f)| f).sum();
    report.checks.require(side_failed == 0, || {
        format!("{side_failed} operations outside the measured rounds failed")
    });
    for (name, unit) in wanted {
        println!(
            "metric {name:<34} {:>16.6} {unit}",
            report.values.get(name).copied().unwrap_or(0.0)
        );
    }
    for f in report.checks.failures() {
        eprintln!("vkgbench: CHECK FAILED: {f}");
    }
    println!(
        "checks passed {} failed {}",
        report.checks.passed(),
        report.checks.failures().len()
    );
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let v = report
                .values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.ok(),
        attempted.max(1),
        failed,
        metrics.join(", ")
    );
}
