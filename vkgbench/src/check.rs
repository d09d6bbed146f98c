//! Checks made apart from the program: an exact S₁ top-k scan, a
//! brute-force aggregate ground truth over the S₁ probability ball, the
//! Theorem 2 and Theorem 4 properties, and a self-test that shows a
//! corrupted answer fails them. Nothing here calls the program's query
//! code; it reads only the stores of a published snapshot.

use std::collections::HashSet;
use std::process::ExitCode;

use vkg::prelude::*;

use crate::data::{self, Query, K, KINDS};
use crate::stats::{self, mean, ratio};
use crate::Report;

/// Confidence at which each aggregate's Theorem 4 bound is checked.
pub const CONFIDENCE: f64 = 0.9;

/// The failed checks of one run; the run is correct when there are none.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }

    pub fn result(&mut self, r: Result<(), String>) {
        self.require(r.is_ok(), || r.err().unwrap_or_default());
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn passed(&self) -> usize {
        self.passed
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The query center h + r (tails) or t − r (heads), from the stores.
pub fn query_point(snap: &VkgSnapshot, q: &Query) -> Vec<f64> {
    let e = snap.embeddings();
    let (v, r) = (e.entity(q.entity), e.relation(q.relation));
    match q.direction {
        Direction::Tails => v.iter().zip(r).map(|(a, b)| a + b).collect(),
        Direction::Heads => v.iter().zip(r).map(|(a, b)| a - b).collect(),
    }
}

/// Entities E′ semantics excludes: the query entity and its known
/// neighbours on the relation.
fn excluded(snap: &VkgSnapshot, q: &Query) -> HashSet<u32> {
    let g = snap.graph();
    let mut out: HashSet<u32> = match q.direction {
        Direction::Tails => g.tails(q.entity, q.relation).map(|e| e.0).collect(),
        Direction::Heads => g.heads(q.entity, q.relation).map(|e| e.0).collect(),
    };
    out.insert(q.entity.0);
    out
}

/// Distances from the query center to every entity E′ admits.
fn candidates(snap: &VkgSnapshot, q: &Query) -> Vec<(u32, f64)> {
    let center = query_point(snap, q);
    let skip = excluded(snap, q);
    let e = snap.embeddings();
    (0..e.num_entities() as u32)
        .filter(|id| !skip.contains(id))
        .map(|id| (id, distance(&center, e.entity(EntityId(id)))))
        .collect()
}

/// The exact top-`k` by S₁ distance, ascending (ties by id).
pub fn exact_top_k(snap: &VkgSnapshot, q: &Query, k: usize) -> Vec<(u32, f64)> {
    let mut c = candidates(snap, q);
    let by = |a: &(u32, f64), b: &(u32, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
    if c.len() > k {
        c.select_nth_unstable_by(k, by);
        c.truncate(k);
    }
    c.sort_by(by);
    c
}

/// Checks one top-k answer (`(id, distance)` in reported order) against
/// the exact scan; returns how many exact answers it misses.
pub fn check_top_k(
    snap: &VkgSnapshot,
    q: &Query,
    answer: &[(u32, f64)],
    exact: &[(u32, f64)],
) -> Result<usize, String> {
    let tag = || {
        format!(
            "top-k of entity {} relation {} {:?}",
            q.entity.0, q.relation.0, q.direction
        )
    };
    if answer.len() != exact.len() {
        return Err(format!(
            "{}: {} answers, {} expected",
            tag(),
            answer.len(),
            exact.len()
        ));
    }
    let skip = excluded(snap, q);
    let center = query_point(snap, q);
    let e = snap.embeddings();
    let mut ids = HashSet::new();
    let mut last = f64::NEG_INFINITY;
    for &(id, d) in answer {
        if id as usize >= e.num_entities() || !ids.insert(id) {
            return Err(format!("{}: invalid or repeated id {id}", tag()));
        }
        if skip.contains(&id) {
            return Err(format!(
                "{}: id {id} is the entity or a known neighbour",
                tag()
            ));
        }
        if d < last {
            return Err(format!("{}: not ordered by distance at id {id}", tag()));
        }
        last = d;
        let own = distance(&center, e.entity(EntityId(id)));
        if (own - d).abs() > 1e-9 * own.max(1e-300) {
            return Err(format!(
                "{}: id {id} reports distance {d}, the scan finds {own}",
                tag()
            ));
        }
    }
    Ok(exact.iter().filter(|(id, _)| !ids.contains(id)).count())
}

/// Theorem 2: the mean of observed misses stays within the mean of the
/// `expected_misses` the answers report, plus three standard errors.
pub fn theorem2(misses: &[f64], expected: &[f64]) -> Result<(), String> {
    let n = misses.len() as f64;
    let m = stats::mean(misses);
    let var = misses.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n.max(1.0);
    let slack = 3.0 * (var / n.max(1.0)).sqrt();
    let promised = stats::mean(expected);
    if m <= promised + slack {
        Ok(())
    } else {
        Err(format!("mean misses {m:.4} over {n} answers exceed the Theorem 2 mean {promised:.4} + slack {slack:.4}"))
    }
}

/// The members of the S₁ probability ball of a query: every E′ entity
/// within `d_min / p_τ`, with probability `d_min / d` and its value of
/// the attribute (if it has one).
#[derive(Debug, Clone)]
pub struct Ball {
    pub members: Vec<(f64, Option<f64>)>,
}

pub fn ball(snap: &VkgSnapshot, q: &Query, p_tau: f64, attribute: &str) -> Ball {
    let attrs = snap.attributes();
    let c = candidates(snap, q);
    let d_min = c.iter().map(|m| m.1).fold(f64::INFINITY, f64::min);
    let radius = d_min / p_tau;
    let members = c
        .into_iter()
        .filter(|m| m.1 <= radius)
        .map(|(id, d)| {
            let p = if d <= 0.0 { 1.0 } else { (d_min / d).min(1.0) };
            (p, attrs.get(attribute, EntityId(id)).ok().flatten())
        })
        .collect();
    Ball { members }
}

impl Ball {
    /// The exact aggregate over the whole ball (for MAX/MIN, the extreme).
    pub fn truth(&self, kind: AggregateKind) -> f64 {
        let valued = || self.members.iter().filter_map(|&(p, v)| v.map(|v| (p, v)));
        let p: f64 = valued().map(|m| m.0).sum();
        let pv: f64 = valued().map(|m| m.0 * m.1).sum();
        match kind {
            AggregateKind::Count => self.members.iter().map(|m| m.0).sum(),
            AggregateKind::Sum => pv,
            AggregateKind::Avg => stats::ratio(pv, p),
            AggregateKind::Max => self.range().1,
            AggregateKind::Min => self.range().0,
        }
    }

    /// The smallest and largest attribute value in the ball.
    pub fn range(&self) -> (f64, f64) {
        self.members
            .iter()
            .filter_map(|m| m.1)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            })
    }
}

/// An aggregate answer as the program reports it.
#[derive(Debug, Clone, Copy)]
pub struct AggAnswer {
    pub kind: AggregateKind,
    pub estimate: f64,
    /// Theorem 4 bound: μ and the martingale increment mass.
    pub mu: f64,
    pub mass: f64,
}

impl AggAnswer {
    pub fn of(kind: AggregateKind, r: &AggregateResult) -> Self {
        AggAnswer {
            kind,
            estimate: r.estimate,
            mu: r.bound.mu,
            mass: r.bound.increment_mass,
        }
    }
}

/// The smallest and largest value of the attribute over every entity:
/// the domain no estimate of a MAX or MIN may leave, whatever ball it
/// was taken over.
pub fn attribute_range(snap: &VkgSnapshot, attribute: &str) -> (f64, f64) {
    let attrs = snap.attributes();
    (0..snap.embeddings().num_entities() as u32)
        .filter_map(|id| attrs.get(attribute, EntityId(id)).ok().flatten())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        })
}

/// Whether a MAX or MIN estimate lies within the attribute's domain.
pub fn in_domain(estimate: f64, (lo, hi): (f64, f64)) -> bool {
    let tiny = 1e-9 * hi.abs().max(lo.abs()).max(1.0);
    estimate >= lo - tiny && estimate <= hi + tiny
}

/// How an aggregate answer compares with the ball it estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggVerdict {
    /// COUNT/SUM/AVG: whether the estimate lies within its Theorem 4
    /// bound at [`CONFIDENCE`]; a share of misses is allowed.
    Bounded(bool),
    /// MAX/MIN: whether the estimate lies within the attribute's domain
    /// over all entities (judged), within the exact ball's attribute
    /// range, and within that range widened by the Eq. (4)
    /// sample-maximum correction (both printed: the program's ball rests
    /// on its approximate nearest neighbour, README.md).
    Extreme {
        in_domain: bool,
        in_range: bool,
        in_envelope: bool,
    },
}
/// δ with `Pr[|S − μ| ≥ δμ] ≤ 1 − confidence` under Theorem 4:
/// `2·exp(−2δ²μ²/mass) = 1 − confidence`.
fn theorem4_delta(mu: f64, mass: f64) -> f64 {
    if mass <= 0.0 || mu == 0.0 {
        return 0.0;
    }
    (mass * (2.0 / (1.0 - CONFIDENCE)).ln() / (2.0 * mu * mu)).sqrt()
}

pub fn judge(a: &AggAnswer, ball: &Ball, domain: (f64, f64)) -> AggVerdict {
    match a.kind {
        AggregateKind::Max | AggregateKind::Min => {
            let (lo, hi) = ball.range();
            // Eq. (4): E[M] = (E[M_S] − min v)(1 + 1/n) + min v, with
            // E[M_S] inside [min v, max v] and n = max(Σp, 1), so a MAX
            // stays within the range widened by (max − min)/n above, a
            // MIN within it widened as much below.
            let p: f64 = ball
                .members
                .iter()
                .filter(|m| m.1.is_some())
                .map(|m| m.0)
                .sum();
            let widen = (hi - lo) / p.max(1.0);
            let envelope = match a.kind {
                AggregateKind::Max => (lo, hi + widen),
                _ => (lo - widen, hi),
            };
            AggVerdict::Extreme {
                in_domain: in_domain(a.estimate, domain),
                in_range: in_domain(a.estimate, (lo, hi)),
                in_envelope: in_domain(a.estimate, envelope),
            }
        }
        _ => {
            let truth = ball.truth(a.kind);
            let delta = theorem4_delta(a.mu, a.mass);
            let err = (a.estimate - truth).abs();
            AggVerdict::Bounded(err <= delta * a.mu.abs() + 1e-9 * truth.abs().max(1.0))
        }
    }
}

/// MAX and MIN of one query over one ball: the expected maximum of the
/// members is never below their expected minimum.
pub fn extremes_ordered(max: f64, min: f64) -> bool {
    max >= min
}

/// Theorem 4 over a set of answers: the share within their bounds is at
/// least the promised [`CONFIDENCE`], less three binomial standard
/// errors for the finite sample.
pub fn theorem4(within: usize, total: usize) -> Result<(), String> {
    if total == 0 {
        return Ok(());
    }
    let n = total as f64;
    let share = within as f64 / n;
    let floor = CONFIDENCE - 3.0 * (CONFIDENCE * (1.0 - CONFIDENCE) / n).sqrt();
    if share >= floor {
        Ok(())
    } else {
        Err(format!("{within}/{total} aggregates within their Theorem 4 bound, below the promised {CONFIDENCE} (floor {floor:.3})"))
    }
}

/// Feeds the checks corrupted copies of real, checked answers and
/// returns an error unless every corruption is caught.
pub fn self_test(
    snap: &VkgSnapshot,
    q: &Query,
    answer: &[(u32, f64)],
    exact: &[(u32, f64)],
    agg: &[(AggAnswer, Ball)],
    domain: (f64, f64),
) -> Result<usize, String> {
    let mut caught = 0;
    if answer.len() >= 2 {
        // A swapped id: the first and last ids trade places, their
        // distances stay where they were.
        let mut swapped = answer.to_vec();
        let last = swapped.len() - 1;
        let (a, b) = (swapped[0].0, swapped[last].0);
        swapped[0].0 = b;
        swapped[last].0 = a;
        if swapped[0].1 != swapped[last].1 {
            if check_top_k(snap, q, &swapped, exact).is_ok() {
                return Err("a top-k answer with two ids swapped passed the check".into());
            }
            caught += 1;
        }
    }
    if let Some(first) = answer.first() {
        // The query entity itself smuggled into the answer.
        let mut with_self = answer.to_vec();
        with_self[0] = (q.entity.0, first.1);
        if check_top_k(snap, q, &with_self, exact).is_ok() {
            return Err("a top-k answer naming the query entity passed the check".into());
        }
        caught += 1;
    }
    let width = domain.1 - domain.0 + 1.0;
    for (a, ball) in agg {
        let mut bad = *a;
        let caught_here = match a.kind {
            // A MAX pushed above the attribute's domain, a MIN below it.
            AggregateKind::Max => {
                bad.estimate = domain.1 + width;
                matches!(
                    judge(&bad, ball, domain),
                    AggVerdict::Extreme {
                        in_domain: false,
                        ..
                    }
                )
            }
            AggregateKind::Min => {
                bad.estimate = domain.0 - width;
                matches!(
                    judge(&bad, ball, domain),
                    AggVerdict::Extreme {
                        in_domain: false,
                        ..
                    }
                )
            }
            _ => {
                let truth = ball.truth(a.kind);
                bad.estimate = truth + 2.0 * theorem4_delta(a.mu, a.mass) * a.mu.abs() + 1.0;
                judge(&bad, ball, domain) == AggVerdict::Bounded(false)
            }
        };
        if !caught_here {
            return Err(format!(
                "a perturbed {:?} estimate passed its check",
                a.kind
            ));
        }
        caught += 1;
    }
    let extreme = |kind| {
        agg.iter()
            .find(|(a, _)| a.kind == kind)
            .map(|(a, _)| a.estimate)
    };
    if let (Some(max), Some(min)) = (extreme(AggregateKind::Max), extreme(AggregateKind::Min)) {
        // The MAX and MIN of the same query swapped.
        if max > min {
            if extremes_ordered(min, max) {
                return Err("a MAX and MIN swapped passed the check".into());
            }
            caught += 1;
        }
    }
    if caught == 0 {
        return Err("the self-test found no answer to corrupt".into());
    }
    Ok(caught)
}

/// Top-k answers checked so far: per-answer checks, misses for Theorem 2
/// and precision.
#[derive(Default)]
pub struct TopKChecks {
    misses: Vec<f64>,
    expected: Vec<f64>,
    precision: Vec<f64>,
}

impl TopKChecks {
    pub fn add(
        &mut self,
        snap: &VkgSnapshot,
        q: &Query,
        preds: &[(u32, f64)],
        exact: &[(u32, f64)],
        expected: f64,
        report: &mut Report,
    ) {
        match check_top_k(snap, q, preds, exact) {
            Ok(m) => {
                self.misses.push(m as f64);
                self.expected.push(expected);
                self.precision
                    .push(ratio((exact.len() - m) as f64, exact.len() as f64));
            }
            Err(e) => report.checks.require(false, || e),
        }
    }

    pub fn finish(&self, report: &mut Report) {
        report.checks.require(!self.misses.is_empty(), || {
            "no top-k answer was checked".into()
        });
        report.checks.result(theorem2(&self.misses, &self.expected));
        report.set("precision_at_10", mean(&self.precision));
        report.info(format!(
            "top-k checks: {} answers, mean misses {:.4}, mean Theorem 2 expected misses {:.4}",
            self.misses.len(),
            mean(&self.misses),
            mean(&self.expected)
        ));
    }
}

/// Aggregate answers judged so far.
pub struct Verdicts {
    domain: (f64, f64),
    within: usize,
    bounded: usize,
    extremes: usize,
    in_domain: usize,
    in_range: usize,
    in_envelope: usize,
}

impl Verdicts {
    /// Judges MAX/MIN answers against `domain`, the attribute's range
    /// over all entities.
    pub fn new(domain: (f64, f64)) -> Self {
        Verdicts {
            domain,
            within: 0,
            bounded: 0,
            extremes: 0,
            in_domain: 0,
            in_range: 0,
            in_envelope: 0,
        }
    }

    pub fn add(&mut self, a: &AggAnswer, ball: &Ball) {
        match judge(a, ball, self.domain) {
            AggVerdict::Bounded(ok) => {
                self.bounded += 1;
                self.within += usize::from(ok);
            }
            AggVerdict::Extreme {
                in_domain,
                in_range,
                in_envelope,
            } => {
                self.extremes += 1;
                self.in_domain += usize::from(in_domain);
                self.in_range += usize::from(in_range);
                self.in_envelope += usize::from(in_envelope);
            }
        }
    }

    pub fn finish(&self, report: &mut Report) {
        report.checks.require(self.bounded > 0, || {
            "no COUNT/SUM/AVG answer was checked".into()
        });
        report.checks.result(theorem4(self.within, self.bounded));
        report.info(format!(
            "aggregate checks: {}/{} COUNT/SUM/AVG within their Theorem 4 bound at {}; MAX/MIN inside the attribute's domain [{}, {}] {}/{}, inside the exact ball's range {}/{}, inside its Eq. (4) envelope {}/{}",
            self.within,
            self.bounded,
            CONFIDENCE,
            self.domain.0,
            self.domain.1,
            self.in_domain,
            self.extremes,
            self.in_range,
            self.extremes,
            self.in_envelope,
            self.extremes
        ));
    }
}

/// Every acked fact write is present in the live graph.
pub fn check_visible(
    vkg: &VirtualKnowledgeGraph,
    acked: &[(EntityId, RelationId, EntityId)],
    report: &mut Report,
) {
    let g = vkg.graph();
    let missing = acked
        .iter()
        .filter(|(h, r, t)| !g.has_edge(*h, *r, *t))
        .count();
    report.checks.require(missing == 0, || {
        format!("{missing} acked fact writes are not in the live graph")
    });
}

/// `--self-test`: on a small graph, checked answers pass the checks and
/// corrupted copies of them (a swapped id, the query entity in the
/// answer, perturbed aggregate estimates, a MAX and MIN swapped) fail
/// them.
pub fn run_self_test() -> ExitCode {
    let ds = freebase_like(&FreebaseConfig {
        entities: 4000,
        edges: 12_000,
        ..FreebaseConfig::default()
    });
    let embeddings = vkg::embed::least_squares_embedding(
        &ds.graph,
        &vkg::embed::LsConfig {
            dim: 16,
            ..vkg::embed::LsConfig::default()
        },
    );
    let vkg = VirtualKnowledgeGraph::assemble(ds.graph, ds.attributes, embeddings, data::config(0));
    let queries = data::uniform_queries(&vkg.graph(), 8, &mut data::rng(0, 1), true);
    let snap = vkg.snapshot();
    let domain = attribute_range(&snap, data::ATTRIBUTE);
    let mut report = Report::default();
    for q in &queries {
        let Ok(r) = vkg.top_k(q.entity, q.relation, q.direction, K) else {
            continue;
        };
        let preds: Vec<(u32, f64)> = r.predictions.iter().map(|p| (p.id, p.distance)).collect();
        let exact = exact_top_k(&snap, q, K);
        let clean = check_top_k(&snap, q, &preds, &exact);
        let ball = ball(&snap, q, data::P_TAU, data::ATTRIBUTE);
        let agg: Vec<(AggAnswer, Ball)> = KINDS
            .iter()
            .filter_map(|&kind| {
                vkg.aggregate(q.entity, q.relation, q.direction, &data::spec(kind))
                    .ok()
                    .map(|a| (AggAnswer::of(kind, &a), ball.clone()))
            })
            .collect();
        let extreme = |kind| {
            agg.iter()
                .find(|(a, _)| a.kind == kind)
                .map(|(a, _)| a.estimate)
        };
        let ordered = match (extreme(AggregateKind::Max), extreme(AggregateKind::Min)) {
            (Some(max), Some(min)) => extremes_ordered(max, min),
            _ => true,
        };
        report.checks.require(clean.is_ok() && ordered, || {
            format!("an uncorrupted answer failed its check: {clean:?}")
        });
        match self_test(&snap, q, &preds, &exact, &agg, domain) {
            Ok(n) => println!(
                "self-test: entity {} relation {}: {n} corrupted answers rejected",
                q.entity.0, q.relation.0
            ),
            Err(e) => report.checks.require(false, || e),
        }
    }
    for f in report.checks.failures() {
        eprintln!("self-test FAILED: {f}");
    }
    if report.checks.ok() && report.checks.passed() > 0 {
        println!("self-test: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
