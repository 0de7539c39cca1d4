//! `search_cold`: in-process `Session::run`, one fresh session per
//! request so no cache is shared, over every capable (kernel, family)
//! pair on the paper's 8 KB cache.

use crate::draw::{cold_pass, ColdRequest, Family};
use crate::host;
use crate::oracle::{subject, tiles_only, SimTally};
use crate::report::{end_to_end, Report, Timing, SETUP_REPS};
use crate::stats::median_of;
use crate::trace::Tracer;
use cme_api::{ApiError, NestSource, OptimizeRequest, Outcome, Session};
use cme_core::{DisplacementKey, DisplacementProvider};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A displacement provider that stores nothing: every solve is computed
/// (requests stay cold) and counted, timed and traced.
pub struct PassThrough {
    tracer: Arc<Tracer>,
    solves: AtomicU64,
    busy_ns: AtomicU64,
    parent: AtomicU64,
    request: AtomicU64,
}

impl PassThrough {
    pub fn new(tracer: Arc<Tracer>) -> Self {
        PassThrough {
            tracer,
            solves: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            request: AtomicU64::new(0),
        }
    }

    /// Attribute the following solves to span `parent` of `request`.
    pub fn enter(&self, parent: u64, request: u64) {
        self.parent.store(parent, Ordering::Relaxed);
        self.request.store(request, Ordering::Relaxed);
    }

    pub fn solves(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

impl DisplacementProvider for PassThrough {
    fn get_or_compute(
        &self,
        _key: &DisplacementKey,
        compute: &mut dyn FnMut() -> Vec<Vec<i64>>,
    ) -> Arc<Vec<Vec<i64>>> {
        let start = Instant::now();
        let value = compute();
        let end = Instant::now();
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        self.tracer.record(
            "core.displacement.solve",
            self.parent.load(Ordering::Relaxed),
            self.request.load(Ordering::Relaxed),
            start,
            end,
        );
        Arc::new(value)
    }
}

/// One answered `search_cold` request.
pub struct ColdAnswer {
    pub ask: ColdRequest,
    pub result: Result<Outcome, ApiError>,
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

/// Run one request on a fresh session (with `provider` attached when
/// given), traced when `tracer` is enabled.
fn run_one(
    ask: &ColdRequest,
    tracer: &Tracer,
    provider: Option<&Arc<PassThrough>>,
    request: u64,
) -> ColdAnswer {
    let me = std::process::id();
    let mut builder = Session::builder();
    if let Some(p) = provider {
        builder = builder.displacement_provider(Arc::clone(p) as Arc<dyn DisplacementProvider>);
    }
    let session = builder.build();
    let cpu0 = host::cpu_ms(me).unwrap_or(0.0);
    let started = Instant::now();
    let result = tracer.span("api.session_run", 0, request, |id| {
        if let Some(p) = provider {
            p.enter(id, request);
        }
        session.run(&ask.req)
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = host::cpu_ms(me).unwrap_or(0.0) - cpu0;
    ColdAnswer { ask: ask.clone(), result, wall_ms, cpu_ms }
}

/// Run `pass` closed-loop, one request at a time.
pub fn run_pass(
    pass: &[ColdRequest],
    tracer: &Tracer,
    provider: Option<&Arc<PassThrough>>,
    first_request_id: u64,
) -> Vec<ColdAnswer> {
    pass.iter()
        .enumerate()
        .map(|(k, ask)| run_one(ask, tracer, provider, first_request_id + k as u64))
        .collect()
}

/// Host steal share at or below which a request counts as undisturbed.
/// Over seeds 2–5 and 11–16, each run once with and once without
/// re-runs, re-runs narrowed the spread of every timing metric (see
/// README.md).
const CALM_STEAL: f64 = 0.02;
/// Attempts per request when the host stole CPU time while it ran.
const MAX_ATTEMPTS: usize = 3;
/// Requests shorter than this span too few host ticks to judge steal.
const JUDGED_MS: f64 = 100.0;
/// Wall time a pass may spend on re-runs.
const RERUN_BUDGET_S: f64 = 10.0;

/// Run `pass` untraced; a request during which the hypervisor stole
/// more than [`CALM_STEAL`] of the host's CPU time is run again (its
/// answer must not change), and the calmest attempt is kept. Returns the
/// answers and the number of re-runs.
fn run_calm(pass: &[ColdRequest], report: &mut Report) -> (Vec<ColdAnswer>, usize) {
    let tracer = Tracer::new(false);
    let (mut reruns, mut rerun_s) = (0, 0.0);
    let answers = pass
        .iter()
        .enumerate()
        .map(|(k, ask)| {
            let mut best: Option<(f64, ColdAnswer)> = None;
            for attempt in 0..MAX_ATTEMPTS {
                if attempt > 0 {
                    reruns += 1;
                }
                let ticks = host::cpu_ticks();
                let answer = run_one(ask, &tracer, None, k as u64 + 1);
                let steal = host::steal_share(ticks, host::cpu_ticks()).unwrap_or(0.0);
                if attempt > 0 {
                    rerun_s += answer.wall_ms / 1e3;
                }
                if let Some((_, prev)) = &best {
                    let same = match (&prev.result, &answer.result) {
                        (Ok(a), Ok(b)) => a.without_timing() == b.without_timing(),
                        _ => false,
                    };
                    if !same {
                        report.problem(format!(
                            "{} × {}: a re-run answered differently",
                            ask.kernel,
                            ask.family.label()
                        ));
                    }
                }
                let calm_enough = steal <= CALM_STEAL || answer.wall_ms < JUDGED_MS;
                if best.as_ref().is_none_or(|(s, _)| steal < *s) {
                    best = Some((steal, answer));
                }
                if calm_enough || rerun_s >= RERUN_BUDGET_S {
                    break;
                }
            }
            best.expect("at least one attempt").1
        })
        .collect();
    (answers, reruns)
}

/// The hard checks on answered requests (every request answered; every
/// family of one kernel, round and estimator reports a byte-identical
/// `before`) and the simulator's verdicts. Returns the failed count.
pub fn check(
    answers: &[ColdAnswer],
    report: &mut Report,
    sims: &mut SimTally,
    tracer: &Tracer,
) -> u64 {
    let mut failed = vec![false; answers.len()];
    let mut groups: BTreeMap<(&str, usize, &str), Vec<usize>> = BTreeMap::new();
    for (k, a) in answers.iter().enumerate() {
        match &a.result {
            Err(e) => {
                failed[k] = true;
                report.problem(format!("{} × {}: {e}", a.ask.kernel, a.ask.family.label()));
            }
            Ok(_) => groups
                .entry((a.ask.kernel, a.ask.round, a.ask.req.estimator().name()))
                .or_default()
                .push(k),
        }
    }
    for ((kernel, round, estimator), members) in &groups {
        let before = |k: usize| match &answers[k].result {
            Ok(out) => serde_json::to_string(&out.before).expect("estimates serialise"),
            Err(_) => unreachable!("only answered requests are grouped"),
        };
        let reference = before(members[0]);
        if members.iter().any(|&k| before(k) != reference) {
            report.problem(format!(
                "{kernel} round {round} ({estimator}): families disagree on `before`"
            ));
            for &k in members {
                failed[k] = true;
            }
        }
    }
    tracer.span("check.cachesim", 0, 0, |_| {
        for (k, a) in answers.iter().enumerate() {
            if let Ok(out) = &a.result {
                if tiles_only(out) {
                    let nest = a.ask.req.nest.resolve().expect("answered requests resolve");
                    let pair = (subject(&a.ask.req, out), a.ask.family.label());
                    let label = format!("round {}", a.ask.round);
                    if !sims.judge((&pair.0, pair.1), &label, &nest, &a.ask.req.cache, out) {
                        failed[k] = true;
                        report.problem(format!(
                            "{} × {} round {}: the simulator finds the answer worse than untiled",
                            pair.0, pair.1, a.ask.round
                        ));
                    }
                }
            }
        }
    });
    failed.iter().filter(|&&f| f).count() as u64
}

/// The deliberate set-up unit: a warm-up request per family on a small
/// transpose (code, allocator and page cache warm), timed.
fn warm_up() -> f64 {
    let started = Instant::now();
    for family in Family::ALL {
        let mut req = OptimizeRequest::new(NestSource::kernel_sized("T2D", 48), family.strategy())
            .with_seed(1);
        req.estimator = family.estimator();
        let out = Session::default().run(&req);
        std::hint::black_box(out.expect("the warm-up request is valid"));
    }
    started.elapsed().as_secs_f64()
}

pub fn setup() -> f64 {
    median_of(&(0..SETUP_REPS).map(|_| warm_up()).collect::<Vec<_>>())
}

/// The untraced workload: one pass over every capable pair. Timing sums
/// the kept attempts, so `rps` is requests per second of calm work.
pub fn run(seed: u64, report: &mut Report) {
    let setup_s = setup();
    let pass = cold_pass(seed);
    let me = std::process::id();
    let (answers, reruns) = run_calm(&pass, report);
    let peak = host::peak_rss_mb(me).unwrap_or(0.0);
    let wall_s = answers.iter().map(|a| a.wall_ms).sum::<f64>() / 1e3;
    let cpu_ms = answers.iter().map(|a| a.cpu_ms).sum::<f64>();
    report.note(format!(
        "search_cold: {} requests, {wall_s:.2} s of kept attempts; {reruns} re-runs after host steal above {:.0}%",
        answers.len(),
        CALM_STEAL * 100.0
    ));

    let mut sims = SimTally::default();
    let failed = check(&answers, report, &mut sims, &Tracer::new(false));
    report.attempted += answers.len() as u64;
    report.failed += failed;
    let lat: Vec<f64> = answers.iter().map(|a| a.wall_ms).collect();
    end_to_end(report, setup_s, &Timing::over(&lat, wall_s, cpu_ms), peak, &sims);
    family_notes(&answers, report);
}

/// Per-family latency lines and every request by latency, for reading a
/// run by eye.
pub fn family_notes(answers: &[ColdAnswer], report: &mut Report) {
    let mut by_latency: Vec<&ColdAnswer> = answers.iter().collect();
    by_latency.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
    let listed: Vec<String> = by_latency
        .iter()
        .map(|a| format!("{}/{} {:.0}", a.ask.kernel, a.ask.family.label(), a.wall_ms))
        .collect();
    report.note(format!("requests by latency (ms): {}", listed.join(", ")));
    for family in Family::ALL {
        let lat: Vec<f64> =
            answers.iter().filter(|a| a.ask.family == family).map(|a| a.wall_ms).collect();
        if !lat.is_empty() {
            report.note(format!(
                "  {:<12} n={:<3} median {:>9.2} ms  max {:>9.2} ms",
                family.label(),
                lat.len(),
                median_of(&lat),
                lat.iter().cloned().fold(0.0, f64::max)
            ));
        }
    }
}
