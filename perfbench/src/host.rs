//! The host a result was measured on, and per-process CPU and memory
//! read from Linux `/proc`.

use serde::Value;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Host fingerprint recorded with every result: CPU count and model, the
/// load average when the run started, and the build profile.
pub fn fingerprint() -> Value {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load: Vec<Value> = std::fs::read_to_string("/proc/loadavg")
        .unwrap_or_default()
        .split_whitespace()
        .take(3)
        .filter_map(|v| v.parse::<f64>().ok())
        .map(Value::Float)
        .collect();
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc() as u64)),
        ("cpu_model".into(), Value::Str(model)),
        ("loadavg_at_start".into(), Value::Array(load)),
        ("build_profile".into(), Value::Str(profile.into())),
    ])
}

/// Refuse a configuration whose busy threads outnumber the CPUs: the
/// closed-loop load generator plus the server's workers must fit.
pub fn check_fits(clients: usize, workers: usize) -> Result<(), String> {
    let n = nproc();
    if clients + workers > n {
        return Err(format!(
            "{clients} load-generator thread(s) + {workers} server worker(s) exceed nproc = {n}"
        ));
    }
    Ok(())
}

/// User + system CPU time of process `pid` (all its threads, live and
/// exited) in milliseconds; `None` when it cannot be read.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S * 1e3)
}

/// Peak resident set size (`VmHWM`) of process `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host CPU ticks so far: all of them, and those stolen by the
/// hypervisor (the first line of `/proc/stat`).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    let ((t0, s0), (t1, s1)) = (from?, to?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}
