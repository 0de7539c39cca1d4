//! The serve workloads: `cme serve` as a child process on loopback, one
//! client connection, closed loop (one request in flight).

use crate::draw::{
    hot_pool, near_miss_draw, near_miss_geometries, near_miss_request, HotDraw, Rng, FILL_SEED_BIT,
};
use crate::host;
use crate::oracle::{strip_wall_ms, subject, tiles_only, SimTally};
use crate::report::{end_to_end, Mark, Report, Timing, SETUP_REPS};
use crate::stats::median_of;
use crate::trace::Tracer;
use cme_api::{CompareOutcome, OptimizeRequest, Outcome, Session};
use cme_serve::HttpClient;
use serde::Value;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Server workers; with the one client thread this fits two CPUs.
pub const WORKERS: usize = 1;
/// Load-generator threads (one connection, one request in flight).
pub const CLIENTS: usize = 1;
/// Near-miss answers re-run in-process and compared.
const SESSION_SAMPLE: usize = 4;
/// Near-miss answers judged by the simulator, per geometry.
const SIM_PER_GEOMETRY: usize = 24;
/// Window length of the measured phases (see [`Timing::calm`]).
const WINDOW_S: f64 = 0.5;
/// Near-miss warm-fill requests per geometry.
const FILL_PER_GEOMETRY: u64 = 6;

/// A `cme serve` child process.
pub struct Server {
    child: Option<Child>,
    stderr: Option<BufReader<ChildStderr>>,
    pub addr: SocketAddr,
    pub pid: u32,
}

impl Server {
    pub fn start(cme: &Path) -> Result<Server, String> {
        let mut child = Command::new(cme)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .args(["--queue", "64", "--cache-entries", "1024", "--displacement-entries", "4096"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cme.display()))?;
        let pid = child.id();
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let mut server = Server {
            child: Some(child),
            stderr: Some(stderr),
            addr: ([127, 0, 0, 1], 0).into(),
            pid,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("`cme serve` did not report its address: {line:?}")),
        }
    }

    pub fn client(&self) -> Result<HttpClient, String> {
        HttpClient::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Ask the server to shut down and wait for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .client()
            .and_then(|mut c| c.post("/shutdown", "").map_err(|e| format!("POST /shutdown: {e}")));
        let mut child = self.child.take().expect("a running server has its child");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(mut err) = self.stderr.take() {
                        let mut rest = String::new();
                        let _ = err.read_to_string(&mut rest);
                    }
                    asked?;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("`cme serve` exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("`cme serve` did not stop within 20 s of /shutdown".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn post(client: &mut HttpClient, path: &str, body: &str) -> Result<String, String> {
    match client.post(path, body) {
        Ok((200, resp)) => Ok(resp),
        Ok((status, resp)) => Err(format!("{path} answered {status}: {resp}")),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// `GET /metrics` as a JSON tree.
pub fn metrics(client: &mut HttpClient) -> Result<Value, String> {
    match client.get("/metrics") {
        Ok((200, body)) => serde_json::from_str(&body).map_err(|e| format!("/metrics: {e}")),
        Ok((status, _)) => Err(format!("/metrics answered {status}")),
        Err(e) => Err(format!("/metrics: {e}")),
    }
}

pub fn counter(doc: &Value, section: &str, field: &str) -> u64 {
    match doc.get(section).and_then(|s| s.get(field)) {
        Some(Value::UInt(v)) => *v,
        Some(Value::Int(v)) => *v as u64,
        _ => 0,
    }
}

/// Per-iteration timings of a closed loop: request latency, window
/// boundaries with the server's CPU time and the host's CPU ticks, and
/// the wall of each whole iteration (request plus client-side check)
/// split by whether it was traced.
#[derive(Default)]
struct Loop {
    latencies_ms: Vec<f64>,
    marks: Vec<Mark>,
    traced_iter_ms: Vec<f64>,
    plain_iter_ms: Vec<f64>,
    wall_s: f64,
}

/// Send requests closed-loop for `seconds`, marking a window every
/// [`WINDOW_S`]. With an enabled tracer every other iteration is traced,
/// so traced and untraced iterations share one request mix and
/// `trace.overhead` compares like with like.
fn closed_loop(
    client: &mut HttpClient,
    server: &Server,
    seconds: u64,
    tracer: &Tracer,
    mut next: impl FnMut(usize) -> (&'static str, String),
    mut on_reply: impl FnMut(usize, Result<String, String>),
) -> Loop {
    let mut lp = Loop::default();
    let windows = (seconds as f64 / WINDOW_S).round().max(1.0) as usize;
    let started = Instant::now();
    let mark = |requests: usize| Mark {
        requests,
        t_s: started.elapsed().as_secs_f64(),
        cpu_ms: host::cpu_ms(server.pid).unwrap_or(0.0),
        ticks: host::cpu_ticks(),
    };
    lp.marks.push(mark(0));
    let mut k = 0;
    loop {
        if started.elapsed().as_secs_f64() >= WINDOW_S * lp.marks.len() as f64 {
            lp.marks.push(mark(k));
            if lp.marks.len() > windows {
                break;
            }
        }
        let (path, body) = next(k);
        let traced = tracer.enabled() && k % 2 == 1;
        let iter_start = Instant::now();
        let request = k as u64 + 1;
        if traced {
            tracer.span("client.request", 0, request, |id| {
                let t = Instant::now();
                let reply = tracer.span("serve.wire", id, request, |_| post(client, path, &body));
                lp.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                tracer.span("check.response", id, request, |_| on_reply(k, reply));
            });
            lp.traced_iter_ms.push(iter_start.elapsed().as_secs_f64() * 1e3);
        } else {
            let reply = post(client, path, &body);
            lp.latencies_ms.push(iter_start.elapsed().as_secs_f64() * 1e3);
            on_reply(k, reply);
            lp.plain_iter_ms.push(iter_start.elapsed().as_secs_f64() * 1e3);
        }
        k += 1;
    }
    lp.wall_s = started.elapsed().as_secs_f64();
    lp
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Start a server and warm it with `fill`, `SETUP_REPS` times; keep the
/// last server. Returns it, the set-up time (the median) and the
/// last fill's responses. Every repetition must give the same
/// (wall-stripped) fill.
fn set_up(
    cme: &Path,
    fill: &[(&'static str, String)],
    report: &mut Report,
) -> Result<(Server, f64, Vec<String>), String> {
    let mut times = Vec::new();
    let mut last: Option<(Server, Vec<String>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, _)) = last.take() {
            server.stop()?;
        }
        let started = Instant::now();
        let server = Server::start(cme)?;
        let mut client = server.client()?;
        let mut replies = Vec::with_capacity(fill.len());
        for (path, body) in fill {
            replies.push(strip_wall_ms(&post(&mut client, path, body)?));
        }
        times.push(started.elapsed().as_secs_f64());
        if let Some(prev) = last.as_ref().map(|(_, r)| r) {
            if *prev != replies {
                report.problem("warm fill answered differently after a server restart");
            }
        }
        last = Some((server, replies));
    }
    let (server, replies) = last.expect("at least one set-up");
    Ok((server, median_of(&times), replies))
}

/// Record the measured phase: timing over its calm windows with the
/// server's CPU, the server's peak memory, the client's CPU for
/// comparison, and (traced runs) the overhead of tracing.
fn finish_phase(
    report: &mut Report,
    lp: &Loop,
    server: &Server,
    cpu_client0: f64,
) -> (Timing, f64) {
    let client_cpu = host::cpu_ms(std::process::id()).unwrap_or(0.0) - cpu_client0;
    report.note(format!(
        "{} requests in {:.2} s; client cpu per request {:.4} ms (the server's is cpu_ms_per_req)",
        lp.latencies_ms.len(),
        lp.wall_s,
        client_cpu / lp.latencies_ms.len().max(1) as f64
    ));
    if !lp.traced_iter_ms.is_empty() {
        report.layer("trace.overhead", mean(&lp.traced_iter_ms) / mean(&lp.plain_iter_ms), "ratio");
    }
    let (timing, note) = Timing::calm(&lp.latencies_ms, &lp.marks);
    report.note(note);
    (timing, host::peak_rss_mb(server.pid).unwrap_or(0.0))
}

/// `serve_near_miss`: fresh GA seeds on a few fixed geometries, so every
/// request misses the outcome cache while the displacement cache answers
/// the repeated Diophantine solves.
pub fn near_miss(
    cme: &Path,
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    host::check_fits(CLIENTS, WORKERS)?;
    let geometries = near_miss_geometries();
    let fill: Vec<(&'static str, String)> = geometries
        .iter()
        .enumerate()
        .flat_map(|(g, geo)| {
            (0..FILL_PER_GEOMETRY).map(move |j| {
                let req = near_miss_request(geo, FILL_SEED_BIT | (g as u64 * 16 + j));
                ("/optimize", serde_json::to_string(&req).expect("requests serialise"))
            })
        })
        .collect();
    let (server, setup_s, _) = set_up(cme, &fill, report)?;
    let mut client = server.client()?;
    let before = metrics(&mut client)?;

    let mut asked: Vec<(usize, OptimizeRequest)> = Vec::new();
    let mut answers: Vec<Option<Outcome>> = Vec::new();
    let mut failures = 0u64;
    let mut first_failure: Option<String> = None;
    let cpu_client0 = host::cpu_ms(std::process::id()).unwrap_or(0.0);
    let lp = closed_loop(
        &mut client,
        &server,
        seconds,
        tracer,
        |k| {
            let (g, req) = near_miss_draw(seed, k, &geometries);
            let body = serde_json::to_string(&req).expect("requests serialise");
            asked.push((g, req));
            ("/optimize", body)
        },
        |k, reply| {
            let parsed =
                reply.and_then(|b| serde_json::from_str::<Outcome>(&b).map_err(|e| e.to_string()));
            match parsed {
                Ok(out) => answers.push(Some(out)),
                Err(e) => {
                    failures += 1;
                    first_failure.get_or_insert(format!("near-miss request {k}: {e}"));
                    answers.push(None);
                }
            }
        },
    );
    let (timing, peak) = finish_phase(report, &lp, &server, cpu_client0);
    let after = metrics(&mut client)?;
    drop(client);
    server.stop()?;

    let hits = counter(&after, "displacement_cache", "hits")
        - counter(&before, "displacement_cache", "hits");
    let misses = counter(&after, "displacement_cache", "misses")
        - counter(&before, "displacement_cache", "misses");
    let outcome_hits = counter(&after, "cache", "hits") - counter(&before, "cache", "hits");
    report.note(format!(
        "displacement cache over the phase: {hits} hits, {misses} misses; outcome-cache hits {outcome_hits}"
    ));
    for (g, geo) in geometries.iter().enumerate() {
        let lat: Vec<f64> = (0..lp.latencies_ms.len())
            .filter(|&k| asked[k].0 == g)
            .map(|k| lp.latencies_ms[k])
            .collect();
        if !lat.is_empty() {
            report.note(format!(
                "  {} {} on {} levels: n={} median {:.2} ms",
                geo.kernel,
                geo.size,
                geo.cache.depth(),
                lat.len(),
                median_of(&lat)
            ));
        }
    }
    if outcome_hits > 0 {
        report.problem(format!("{outcome_hits} near-miss requests hit the outcome cache"));
    }
    if let Some(f) = first_failure {
        report.problem(format!("{failures} near-miss requests failed; first: {f}"));
    }

    // A seeded sample must equal an in-process run, timing stripped.
    let mut rng = Rng::stream(seed, 6);
    let answered: Vec<usize> = (0..answers.len()).filter(|&k| answers[k].is_some()).collect();
    let mut bad = std::collections::BTreeSet::new();
    tracer.span("check.session_run", 0, 0, |_| {
        for _ in 0..SESSION_SAMPLE.min(answered.len()) {
            let k = answered[rng.below(answered.len())];
            let served = answers[k].as_ref().expect("answered");
            match Session::default().run(&asked[k].1) {
                Ok(direct) if direct.without_timing() == served.without_timing() => {}
                Ok(_) => {
                    bad.insert(k);
                    report.problem(format!(
                        "near-miss request {k}: served outcome differs from Session::run"
                    ));
                }
                Err(e) => {
                    bad.insert(k);
                    report.problem(format!("near-miss request {k}: Session::run failed: {e}"));
                }
            }
        }
    });

    // The simulator judges a seeded sample stratified by geometry, so
    // each geometry weighs the same in every run.
    let mut sims = SimTally::default();
    tracer.span("check.cachesim", 0, 0, |_| {
        let mut order = answered.clone();
        rng.shuffle(&mut order);
        for g in 0..geometries.len() {
            for &k in order.iter().filter(|&&k| asked[k].0 == g).take(SIM_PER_GEOMETRY) {
                let (_, req) = &asked[k];
                let out = answers[k].as_ref().expect("answered");
                if tiles_only(out) {
                    let nest = req.nest.resolve().expect("served requests resolve");
                    let pair = (subject(req, out), format!("lean {}", out.strategy));
                    let label = format!("near-miss {k}");
                    if !sims.judge((&pair.0, &pair.1), &label, &nest, &req.cache, out) {
                        bad.insert(k);
                        report.problem(format!(
                            "near-miss request {k} ({} × {}): the simulator finds the answer worse than untiled",
                            pair.0, pair.1
                        ));
                    }
                }
            }
        }
    });
    report.attempted += answers.len() as u64;
    report.failed += failures + bad.len() as u64;
    report.verify_s += sims.secs;
    end_to_end(report, setup_s, &timing, peak, &sims);
    Ok(())
}

/// `serve_hot`: a seeded skewed draw over a warm key pool smaller than
/// the caches, so every request is a hit.
pub fn hot(
    cme: &Path,
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    host::check_fits(CLIENTS, WORKERS)?;
    let pool = hot_pool();
    let fill: Vec<(&'static str, String)> = pool.iter().map(|k| (k.path, k.body.clone())).collect();
    let (server, setup_s, expected) = set_up(cme, &fill, report)?;
    let mut client = server.client()?;
    let before = metrics(&mut client)?;

    let mut draw = HotDraw::new(seed, &pool);
    let chosen = std::cell::RefCell::new(Vec::new());
    let mut failures = 0u64;
    let mut first_failure: Option<String> = None;
    let cpu_client0 = host::cpu_ms(std::process::id()).unwrap_or(0.0);
    let lp = closed_loop(
        &mut client,
        &server,
        seconds,
        tracer,
        |_| {
            let i = draw.next_index();
            chosen.borrow_mut().push(i);
            (pool[i].path, pool[i].body.clone())
        },
        |k, reply| {
            let i = chosen.borrow()[k];
            let ok = match &reply {
                Ok(body) => strip_wall_ms(body) == expected[i],
                Err(_) => false,
            };
            if !ok {
                failures += 1;
                first_failure.get_or_insert_with(|| match reply {
                    Ok(_) => format!("hot key {i}: response differs from its warm-fill response"),
                    Err(e) => format!("hot key {i}: {e}"),
                });
            }
        },
    );
    let (timing, peak) = finish_phase(report, &lp, &server, cpu_client0);
    let after = metrics(&mut client)?;
    drop(client);
    server.stop()?;

    if let Some(f) = first_failure {
        report.problem(format!("{failures} hot responses failed; first: {f}"));
    }
    for section in ["cache", "lint_cache", "compare_cache"] {
        let missed = counter(&after, section, "misses") - counter(&before, section, "misses");
        if missed > 0 {
            report.problem(format!("hot phase missed `{section}` {missed} times"));
        }
    }
    let hits: u64 = ["cache", "lint_cache", "compare_cache"]
        .iter()
        .map(|s| counter(&after, s, "hits") - counter(&before, s, "hits"))
        .sum();
    report
        .note(format!("cache hits over the phase: {hits} (of {} requests)", lp.latencies_ms.len()));

    // The oracle judges the answers being served: every tiles-only
    // outcome in the pool, including each tournament entrant.
    let mut sims = SimTally::default();
    let mut bad_keys = Vec::new();
    tracer.span("check.cachesim", 0, 0, |_| {
        for (i, (key, body)) in pool.iter().zip(&expected).enumerate() {
            let outcomes: Vec<(OptimizeRequest, Outcome)> = match key.path {
                "/optimize" => {
                    let req: OptimizeRequest =
                        serde_json::from_str(&key.body).expect("pool bodies parse");
                    let out: Outcome = serde_json::from_str(body).expect("fill responses parse");
                    vec![(req, out)]
                }
                "/compare" => {
                    let req: cme_api::CompareRequest =
                        serde_json::from_str(&key.body).expect("pool bodies parse");
                    let out: CompareOutcome =
                        serde_json::from_str(body).expect("fill responses parse");
                    out.entries.into_iter().map(|e| (req.base.clone(), e.outcome)).collect()
                }
                _ => Vec::new(),
            };
            for (req, out) in outcomes {
                if tiles_only(&out) {
                    let nest = req.nest.resolve().expect("pool requests resolve");
                    let pair = (subject(&req, &out), format!("lean {}", out.strategy));
                    let label = format!("hot key {i}");
                    if !sims.judge((&pair.0, &pair.1), &label, &nest, &req.cache, &out) {
                        bad_keys.push(i);
                        report.problem(format!(
                            "hot key {i} ({} × {}): the simulator finds the answer worse than untiled",
                            pair.0, pair.1
                        ));
                    }
                }
            }
        }
    });
    // Every request served a key the simulator refused was answered wrongly.
    let wrong = chosen.borrow().iter().filter(|i| bad_keys.contains(i)).count() as u64;
    report.attempted += lp.latencies_ms.len() as u64;
    report.failed += failures + wrong;
    report.verify_s += sims.secs;
    end_to_end(report, setup_s, &timing, peak, &sims);
    Ok(())
}
