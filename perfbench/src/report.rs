//! What one run found: counts, failed checks, notes for a reader, and
//! the metrics of the final JSON line.

use crate::oracle::SimTally;
use crate::stats::{percentile, tail};
use serde::Value;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any makes the run incorrect.
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Seconds the simulator spent checking answers, outside any timed
    /// region.
    pub verify_s: f64,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push(Metric { name: name.into(), value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn problem(&mut self, line: impl Into<String>) {
        self.problems.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The final line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (the per-layer ones when `traced`), every value with all
    /// its digits.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics = if traced { &self.layers } else { &self.metrics }
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let doc = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).expect("values serialise")
    }
}

/// A window boundary of a measured phase: requests completed so far,
/// seconds since the phase began, CPU milliseconds of the working
/// process, and the host's CPU ticks (all, stolen) from
/// [`crate::host::cpu_ticks`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub requests: usize,
    pub t_s: f64,
    pub cpu_ms: f64,
    pub ticks: Option<(u64, u64)>,
}

/// Throughput, latency and CPU cost of a measured phase.
#[derive(Debug, Clone)]
pub struct Timing {
    pub rps: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub cpu_ms_per_req: f64,
    /// States the tail percentile and its sample count.
    pub note: String,
}

impl Timing {
    /// Over one stretch of requests.
    pub fn over(latencies_ms: &[f64], wall_s: f64, cpu_ms: f64) -> Timing {
        let mut sorted = latencies_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        let t = tail(&sorted);
        Timing {
            rps: n / wall_s,
            p50_ms: percentile(&sorted, 50.0),
            tail_ms: t.value,
            cpu_ms_per_req: cpu_ms / n,
            note: format!(
                "latency_tail_ms is p{} of {} samples ({} beyond it)",
                t.percentile, t.samples, t.beyond
            ),
        }
    }

    /// Pooled over the windows between `marks` during which the
    /// hypervisor stole at most [`CALM_WINDOW_STEAL`] of the host's CPU time,
    /// or over the third with the least steal when fewer are that calm.
    /// Windows are chosen by the host's steal account alone, never by
    /// the server's own throughput, so whatever the program does to slow
    /// a window counts in full. Returns the timing and a note comparing
    /// it with the figures over all windows.
    pub fn calm(latencies_ms: &[f64], marks: &[Mark]) -> (Timing, String) {
        let steal = |w: &[Mark]| crate::host::steal_share(w[0].ticks, w[1].ticks).unwrap_or(0.0);
        let mut windows: Vec<&[Mark]> = marks.windows(2).collect();
        let total = windows.len();
        let calm = windows.iter().filter(|w| steal(w) <= CALM_WINDOW_STEAL).count();
        windows.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
        windows.truncate(calm.max(total.div_ceil(3)));
        let pooled = |windows: &[&[Mark]]| {
            let (mut lat, mut wall_s, mut cpu_ms) = (Vec::new(), 0.0, 0.0);
            for w in windows {
                lat.extend_from_slice(&latencies_ms[w[0].requests..w[1].requests]);
                wall_s += w[1].t_s - w[0].t_s;
                cpu_ms += w[1].cpu_ms - w[0].cpu_ms;
            }
            (Timing::over(&lat, wall_s, cpu_ms), wall_s)
        };
        let (kept, wall_s) = pooled(&windows);
        let (all, _) = pooled(&marks.windows(2).collect::<Vec<_>>());
        let note = format!(
            "figures over {} of {total} windows ({wall_s:.1} s; {calm} with host steal <= {:.1}%); \
             over all windows: rps {:.2}, p50 {:.4} ms, tail {:.4} ms, cpu {:.4} ms/req",
            windows.len(),
            CALM_WINDOW_STEAL * 100.0,
            all.rps,
            all.p50_ms,
            all.tail_ms,
            all.cpu_ms_per_req
        );
        (kept, note)
    }
}

/// Host steal share above which a window of a serve workload counts as
/// disturbed: one 10 ms tick in a 0.5 s window on two CPUs is 1 %. Over
/// 0.5 s windows on a two-vCPU host, window throughput tracked steal
/// with a correlation of -0.89 and -0.94, and p99 latency with 0.91 and
/// 0.96.
pub const CALM_WINDOW_STEAL: f64 = 0.015;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The end-to-end metrics every workload reports: set-up time, the
/// measured phase's timing, the peak RSS of the process doing the work,
/// the share of verified answers and the simulator's verdicts.
pub fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    timing: &Timing,
    peak_rss_mb: f64,
    sims: &SimTally,
) {
    let ok = report.attempted.saturating_sub(report.failed) as f64 / report.attempted.max(1) as f64;
    report.metric("setup_s", setup_s, "s");
    report.metric("rps", timing.rps, "1/s");
    report.metric("latency_p50_ms", timing.p50_ms, "ms");
    report.metric("latency_tail_ms", timing.tail_ms, "ms");
    report.metric("cpu_ms_per_req", timing.cpu_ms_per_req, "ms");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric("ok_share", ok, "ratio");
    report.metric("sim_agreement", sims.agreement(), "ratio");
    report.metric("cost_ratio", sims.cost_ratio(), "ratio");
    report.note(timing.note.clone());
    report.note(format!(
        "simulator judged {} tiles-only answers: {} agree that after <= before",
        sims.judged, sims.agree
    ));
    for d in &sims.disagreements {
        report.note(format!("  simulator disagrees: {d}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six 1 s windows of ten 1 ms requests, except that the windows
    /// listed in `stolen` had half the host's ticks stolen and took 5 ms
    /// per request.
    fn phase(stolen: &[usize]) -> (Vec<f64>, Vec<Mark>) {
        let (mut lat, mut marks) = (Vec::new(), Vec::new());
        let (mut all, mut steal) = (0, 0);
        for w in 0..=6 {
            marks.push(Mark {
                requests: lat.len(),
                t_s: w as f64,
                cpu_ms: 0.0,
                ticks: Some((all, steal)),
            });
            if w == 6 {
                break;
            }
            let slow = stolen.contains(&w);
            lat.extend(std::iter::repeat_n(if slow { 5.0 } else { 1.0 }, 10));
            all += 200;
            steal += if slow { 100 } else { 0 };
        }
        (lat, marks)
    }

    #[test]
    fn calm_keeps_every_window_without_steal() {
        let (lat, marks) = phase(&[2, 5]);
        let (t, note) = Timing::calm(&lat, &marks);
        assert_eq!(t.rps, 10.0);
        assert_eq!(t.p50_ms, 1.0);
        assert!(note.starts_with("figures over 4 of 6 windows"), "{note}");
    }

    #[test]
    fn calm_keeps_a_third_when_the_host_is_never_calm() {
        let (lat, marks) = phase(&[0, 1, 2, 3, 4, 5]);
        let (t, note) = Timing::calm(&lat, &marks);
        assert_eq!(t.p50_ms, 5.0);
        assert!(note.starts_with("figures over 2 of 6 windows"), "{note}");
    }
}
