//! `perfbench`: the cme suite's benchmark. One seeded workload per run,
//! every answer checked against an independent oracle, every metric
//! printed by name and unit; the last stdout line is one JSON object.
//!
//! ```text
//! perfbench --workload search_cold|serve_near_miss|serve_hot --seed N
//!           --seconds S --trace 0|1 --cme PATH/TO/cme [--out DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload with spans and the layer panel, and reports the per-layer
//! metrics. Exit status 1 when any correctness check failed, 2 on bad
//! arguments or when the run could not be carried out.

mod cold;
mod draw;
mod host;
mod layers;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    cme: PathBuf,
    out: PathBuf,
}

const WORKLOADS: [&str; 3] = ["search_cold", "serve_near_miss", "serve_hot"];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut cme) = (None, None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--cme" => cme = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (expected one of {WORKLOADS:?})"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        cme: cme.ok_or("--cme is required")?,
        out,
    })
}

/// A traced `search_cold` run: after the usual warm-up, round 0 of the
/// pass untraced, then the same requests traced (the layer panel's
/// search phase), so `trace.overhead` compares identical work.
fn traced_search_cold(
    seed: u64,
    tracer: &Arc<Tracer>,
    report: &mut Report,
) -> Vec<cold::ColdAnswer> {
    cold::setup();
    let pass: Vec<_> = draw::cold_pass(seed).into_iter().filter(|c| c.round == 0).collect();
    let t = Instant::now();
    let plain = cold::run_pass(&pass, &Tracer::new(false), None, 1);
    let plain_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let traced = layers::search(seed, tracer, report);
    let traced_s = t.elapsed().as_secs_f64();
    report.layer("trace.overhead", traced_s / plain_s, "ratio");
    for (p, q) in plain.iter().zip(&traced) {
        let same = match (&p.result, &q.result) {
            (Ok(a), Ok(b)) => a.without_timing() == b.without_timing(),
            _ => false,
        };
        if !same {
            report.problem(format!(
                "{} × {}: traced and untraced runs answered differently",
                p.ask.kernel,
                p.ask.family.label()
            ));
        }
    }
    traced
}

fn run(args: &Args, tracer: &Arc<Tracer>, report: &mut Report) -> Result<(), String> {
    let mut search_answers = Vec::new();
    match (args.workload.as_str(), args.trace) {
        ("search_cold", false) => cold::run(args.seed, report),
        ("search_cold", true) => search_answers = traced_search_cold(args.seed, tracer, report),
        ("serve_near_miss", _) => {
            serve::near_miss(&args.cme, args.seed, args.seconds, tracer, report)?
        }
        ("serve_hot", _) => serve::hot(&args.cme, args.seed, args.seconds, tracer, report)?,
        _ => unreachable!("workload names are validated"),
    }
    if !args.trace {
        return Ok(());
    }
    if search_answers.is_empty() {
        search_answers = layers::search(args.seed, tracer, report);
    }
    let mut sims = oracle::SimTally::default();
    let failed = cold::check(&search_answers, report, &mut sims, tracer);
    report.attempted += search_answers.len() as u64;
    report.failed += failed;
    report.verify_s += sims.secs;
    layers::core(args.seed, tracer, report);
    layers::service(args.seed, tracer, report)?;
    report.layer("cachesim.verify_s", report.verify_s, "s");
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2)
    });
    let fingerprint = host::fingerprint();
    println!("host: {}", serde_json::to_string(&fingerprint).expect("values serialise"));
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let tracer = Arc::new(Tracer::new(args.trace));
    let mut report = Report::default();
    let ticks = host::cpu_ticks();
    if let Err(e) = run(&args, &tracer, &mut report) {
        eprintln!("perfbench: {e}");
        exit(2);
    }
    if let Some(steal) = host::steal_share(ticks, host::cpu_ticks()) {
        report.note(format!(
            "host CPU time stolen by the hypervisor during the run: {:.1}%",
            steal * 100.0
        ));
    }
    if args.trace {
        let path = args.out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(n) => println!("wrote {n} spans to {}", path.display()),
            Err(e) => report.problem(format!("writing {}: {e}", path.display())),
        }
        println!("self time by span (count, total ms, self ms):");
        for (name, t) in trace::self_times(&tracer.spans()) {
            println!("  {name:<28} {:>7} {:>12.3} {:>12.3}", t.count, t.total_ms, t.self_ms);
        }
    }
    for line in &report.notes {
        println!("{line}");
    }
    let shown = if args.trace { &report.layers } else { &report.metrics };
    for m in shown {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", report.json_line(args.trace));
    if !report.correct() {
        exit(1);
    }
}
