//! The layer panel of a traced run: a fixed, seeded set of calls into
//! each layer's public functions, timed from outside, giving the
//! per-layer metrics. It is the same for every workload, so a per-layer
//! figure means the same thing whichever workload's traced run shows it.

use crate::cold::{run_pass, ColdAnswer, PassThrough};
use crate::draw::{
    cold_pass, hot_pool, near_miss_draw, near_miss_geometries, Family, HotDraw, Rng, COLD_KERNELS,
};
use crate::report::Report;
use crate::serve::counter;
use crate::stats::percentile;
use crate::trace::Tracer;
use cme_api::{CacheHierarchy, NestSource};
use cme_cachesim::simulate_nest_hierarchy;
use cme_core::{EvalEngine, LatticeEstimator, SamplingConfig};
use cme_loopnest::{LoopNest, MemoryLayout, TileSizes};
use cme_serve::{App, HttpClient, HttpRequest, ServeConfig};
use std::sync::Arc;
use std::time::Instant;

/// Seeded candidate tilings per kernel for the estimator probes.
const TILINGS: usize = 12;
/// Repetitions of the sub-millisecond probes.
const REPS: usize = 200;
/// Hot requests through `App::handle` and over the wire.
const HOT_REQUESTS: usize = 4000;
/// Measured near-miss requests through `App::handle`.
const NEAR_MISS_REQUESTS: usize = 12;

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn panel_nests() -> Vec<(&'static str, LoopNest)> {
    COLD_KERNELS
        .iter()
        .map(|&(name, size)| {
            (name, NestSource::kernel_sized(name, size).resolve().expect("registry kernel"))
        })
        .collect()
}

/// The search panel: round 0 of the `search_cold` pass, each request on
/// a fresh session whose displacement provider stores nothing, so every
/// solve is counted and traced. Returns the answers for checking.
pub fn search(seed: u64, tracer: &Arc<Tracer>, report: &mut Report) -> Vec<ColdAnswer> {
    let pass: Vec<_> = cold_pass(seed).into_iter().filter(|c| c.round == 0).collect();
    let provider = Arc::new(PassThrough::new(Arc::clone(tracer)));
    let answers = run_pass(&pass, tracer, Some(&provider), 1);
    for family in Family::ALL {
        let lat: Vec<f64> =
            answers.iter().filter(|a| a.ask.family == family).map(|a| a.wall_ms).collect();
        report.layer(
            format!("tileopt.{}.ms", family.label()),
            lat.iter().sum::<f64>() / lat.len() as f64,
            "ms",
        );
    }
    let (mut evaluations, mut generations, mut probes, mut explored) = (0u64, 0u64, 0u64, 0u64);
    let (mut ga_cpu, mut ga_wall) = (0.0, 0.0);
    for a in &answers {
        let Ok(out) = &a.result else { continue };
        if let Some(ga) = &out.ga {
            evaluations += ga.evaluations;
            generations += u64::from(ga.generations);
        }
        match a.ask.family {
            Family::Latency => probes += out.explored.unwrap_or(0),
            Family::Interchange => explored += out.explored.unwrap_or(0),
            _ => {}
        }
        if a.ask.family.runs_ga() {
            ga_cpu += a.cpu_ms;
            ga_wall += a.wall_ms;
        }
    }
    report.layer("core.displacement.solves", provider.solves() as f64, "count");
    report.layer("core.displacement.busy_ms", provider.busy_ms(), "ms");
    report.layer("ga.evaluations", evaluations as f64, "count");
    report.layer("ga.generations", generations as f64, "count");
    report.layer("ga.cpu_per_wall", ga_cpu / ga_wall, "ratio");
    report.layer("tileopt.latency.probes", probes as f64, "count");
    report.layer("tileopt.interchange.explored", explored as f64, "count");
    answers
}

/// Engine build, the two estimators on shared seeded tilings, dependence
/// analysis, the frontend and the simulator.
pub fn core(seed: u64, tracer: &Tracer, report: &mut Report) {
    let nests = panel_nests();
    let cache = CacheHierarchy::single(cme_core::CacheSpec::paper_8k());
    let mut rng = Rng::stream(seed, 7);

    let mut build_ms = Vec::new();
    let mut engines = Vec::new();
    for (name, nest) in &nests {
        let layout = MemoryLayout::contiguous(nest);
        for rep in 0..3 {
            let t = Instant::now();
            let engine = tracer.span("core.engine_build", 0, 0, |_| {
                EvalEngine::new_hierarchy_shared(
                    &cache,
                    nest,
                    &layout,
                    SamplingConfig::paper(),
                    seed,
                    None,
                )
            });
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if rep == 0 {
                engines.push((*name, nest, engine));
            }
        }
    }
    report.layer(
        "core.engine_build_ms",
        build_ms.iter().sum::<f64>() / build_ms.len() as f64,
        "ms",
    );

    // Both estimators score the same tilings; the lattice backend takes
    // rectangular nests only, so both skip the affine one.
    let (mut cme_us, mut lattice_us, mut evals) = (0.0, 0.0, 0usize);
    let (mut queries, mut fallbacks) = (0u64, 0u64);
    for (_, nest, engine) in engines.iter().filter(|(_, n, _)| n.is_rectangular()) {
        let lattice = LatticeEstimator::new(engine);
        for _ in 0..TILINGS {
            let tiles =
                TileSizes(nest.spans().iter().map(|&s| 1 + rng.below(s as usize) as i64).collect());
            let sample_seed = rng.next_u64();
            let t = Instant::now();
            let sampled = tracer.span("core.estimate_cme", 0, 0, |_| {
                engine.estimate_seeded(None, Some(&tiles), sample_seed, None)
            });
            cme_us += us(t);
            let t = Instant::now();
            let exact = tracer
                .span("core.estimate_lattice", 0, 0, |_| lattice.estimate(None, Some(&tiles)));
            lattice_us += us(t);
            evals += 1;
            for est in [&sampled, &exact] {
                queries += est.solver.queries;
                fallbacks += est.solver.fallbacks;
            }
        }
    }
    report.layer("core.estimate_cme.us_per_eval", cme_us / evals as f64, "us");
    report.layer("core.estimate_lattice.us_per_eval", lattice_us / evals as f64, "us");
    report.layer("core.formhit.queries", queries as f64, "count");
    report.layer("core.formhit.fallbacks", fallbacks as f64, "count");

    let t = Instant::now();
    tracer.span("analysis.legality", 0, 0, |_| {
        for _ in 0..REPS {
            for (_, nest) in &nests {
                std::hint::black_box(cme_analysis::legality_summary(nest));
            }
        }
    });
    report.layer("analysis.legality_us", us(t) / (REPS * nests.len()) as f64, "us");

    let sources: Vec<String> =
        nests.iter().filter_map(|(_, nest)| cme_frontend::render(nest).ok()).collect();
    report.note(format!(
        "frontend: {} of {} panel nests render to source",
        sources.len(),
        nests.len()
    ));
    let t = Instant::now();
    tracer.span("frontend.parse", 0, 0, |_| {
        for _ in 0..REPS {
            for src in &sources {
                std::hint::black_box(cme_frontend::parse(src).expect("rendered source parses"));
            }
        }
    });
    report.layer("frontend.parse_us", us(t) / (REPS * sources.len().max(1)) as f64, "us");

    let (mut accesses, mut secs) = (0u64, 0.0);
    for (_, nest) in &nests {
        let layout = MemoryLayout::contiguous(nest);
        let t = Instant::now();
        let rep = tracer.span("cachesim.simulate", 0, 0, |_| {
            simulate_nest_hierarchy(nest, &layout, None, &crate::oracle::levels_of(&cache))
        });
        secs += t.elapsed().as_secs_f64();
        accesses += rep.l1().totals().accesses;
    }
    report.layer("cachesim.maccesses_per_s", accesses as f64 / 1e6 / secs, "Macc/s");
}

fn post(path: &str, body: &str) -> HttpRequest {
    HttpRequest {
        method: "POST".into(),
        path: path.into(),
        http11: true,
        headers: vec![("content-length".into(), body.len().to_string())],
        body: body.as_bytes().to_vec(),
    }
}

fn get(path: &str) -> HttpRequest {
    HttpRequest {
        method: "GET".into(),
        path: path.into(),
        http11: true,
        headers: Vec::new(),
        body: Vec::new(),
    }
}

/// The service layers in-process (`App::handle`, no socket) and over
/// one loopback connection to an in-process server with the same pool.
pub fn service(seed: u64, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let config = ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, ..ServeConfig::default() };
    let app = App::with_runtime(1, &config.runtime_config());
    let pool = hot_pool();
    for key in &pool {
        let resp = app.handle(&post(key.path, &key.body));
        if resp.status != 200 {
            return Err(format!("panel warm fill: {} answered {}", key.path, resp.status));
        }
    }

    // Request-side layers over the pool's /optimize bodies.
    let bodies: Vec<&str> =
        pool.iter().filter(|k| k.path == "/optimize").map(|k| k.body.as_str()).collect();
    let raw: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| {
            format!(
                "POST /optimize HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            )
            .into_bytes()
        })
        .collect();
    let t = Instant::now();
    tracer.span("serve.frame_request", 0, 0, |_| {
        for _ in 0..REPS {
            for r in &raw {
                std::hint::black_box(cme_serve::frame_request(r, config.max_body_bytes));
            }
        }
    });
    report.layer("serve.frame_request_us", us(t) / (REPS * raw.len()) as f64, "us");
    let t = Instant::now();
    let reqs = tracer.span("serve.parse_request", 0, 0, |_| {
        let mut last = Vec::new();
        for _ in 0..REPS {
            last = bodies
                .iter()
                .map(|b| {
                    cme_serve::router::parse_optimize_request(b.as_bytes())
                        .expect("pool bodies parse")
                })
                .collect();
        }
        last
    });
    report.layer("serve.parse_request_us", us(t) / (REPS * bodies.len()) as f64, "us");
    let t = Instant::now();
    let keys = tracer.span("runtime.canonical_key", 0, 0, |_| {
        let mut last = Vec::new();
        for _ in 0..REPS {
            last = reqs.iter().map(cme_runtime::canonical_key).collect::<Vec<_>>();
        }
        last
    });
    report.layer("runtime.canonical_key_us", us(t) / (REPS * reqs.len()) as f64, "us");
    let t = Instant::now();
    tracer.span("runtime.outcome_get", 0, 0, |_| {
        for _ in 0..REPS {
            for key in &keys {
                std::hint::black_box(app.runtime.outcomes().get(key).expect("warm key"));
            }
        }
    });
    report.layer("runtime.outcome_get_us", us(t) / (REPS * keys.len()) as f64, "us");

    // Whole requests in-process, then the same draw over the wire.
    let outcome_hits0 = app.runtime.outcomes().hits();
    let outcome_misses0 = app.runtime.outcomes().misses();
    let mut draw = HotDraw::new(seed, &pool);
    let order: Vec<usize> = (0..HOT_REQUESTS).map(|_| draw.next_index()).collect();
    let mut handle_us = Vec::with_capacity(order.len());
    let mut bytes = 0usize;
    for (k, &i) in order.iter().enumerate() {
        let req = post(pool[i].path, &pool[i].body);
        let t = Instant::now();
        let resp = tracer.span("serve.app_handle", 0, k as u64 + 1, |_| app.handle(&req));
        handle_us.push(us(t));
        bytes += resp.body.len();
    }
    let hits = app.runtime.outcomes().hits() - outcome_hits0;
    let misses = app.runtime.outcomes().misses() - outcome_misses0;
    report.layer("runtime.outcome.hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    report.layer("serve.response_bytes", bytes as f64 / order.len() as f64, "B");
    handle_us.sort_by(f64::total_cmp);
    let handle_p50 = percentile(&handle_us, 50.0);
    report.layer("serve.app_handle_us", handle_p50, "us");

    let handle = cme_serve::start(&config).map_err(|e| format!("panel server: {e}"))?;
    let wire = (|| -> Result<Vec<f64>, String> {
        let mut client = HttpClient::connect(handle.addr()).map_err(|e| e.to_string())?;
        for key in &pool {
            client.post(key.path, &key.body).map_err(|e| e.to_string())?;
        }
        let mut wire_us = Vec::with_capacity(order.len());
        for &i in &order {
            let t = Instant::now();
            let (status, _) =
                client.post(pool[i].path, &pool[i].body).map_err(|e| e.to_string())?;
            wire_us.push(us(t));
            if status != 200 {
                return Err(format!("panel wire request answered {status}"));
            }
        }
        Ok(wire_us)
    })();
    handle.shutdown_and_join();
    let mut wire_us = wire?;
    wire_us.sort_by(f64::total_cmp);
    report.layer("serve.transport_us", percentile(&wire_us, 50.0) - handle_p50, "us");

    // Near-miss requests share the Diophantine half through the
    // process-wide displacement cache: its hit ratio from /metrics.
    let geometries = near_miss_geometries();
    for geo in &geometries {
        let warm = crate::draw::near_miss_request(geo, crate::draw::FILL_SEED_BIT | 99);
        app.handle(&post("/optimize", &serde_json::to_string(&warm).expect("requests serialise")));
    }
    let doc = |app: &App| -> Result<serde::Value, String> {
        serde_json::from_str(&app.handle(&get("/metrics")).body).map_err(|e| e.to_string())
    };
    let before = doc(&app)?;
    let mut rng = Rng::stream(seed, 8);
    for _ in 0..NEAR_MISS_REQUESTS {
        let (_, req) = near_miss_draw(seed, 1_000_000 + rng.below(1_000_000), &geometries);
        let resp = tracer.span("serve.app_handle.near_miss", 0, 0, |_| {
            app.handle(&post(
                "/optimize",
                &serde_json::to_string(&req).expect("requests serialise"),
            ))
        });
        if resp.status != 200 {
            return Err(format!("panel near-miss request answered {}", resp.status));
        }
    }
    let after = doc(&app)?;
    let d = |field| {
        counter(&after, "displacement_cache", field) - counter(&before, "displacement_cache", field)
    };
    let (dh, dm) = (d("hits"), d("misses"));
    report.layer("runtime.displacement.hit_ratio", dh as f64 / (dh + dm).max(1) as f64, "ratio");
    Ok(())
}
