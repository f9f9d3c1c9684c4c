//! Host identity and process memory, recorded with every result.

use std::path::Path;
use std::process::Command;

use serde::Value;

/// Core count, CPU model, compiler and commit of the run.
pub fn fingerprint() -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::Map(vec![
        ("cores".into(), Value::U(cores as u128)),
        ("cpu_model".into(), Value::Str(cpu)),
        (
            "rustc".into(),
            Value::Str(env!("REOBENCH_RUSTC").to_string()),
        ),
        ("commit".into(), Value::Str(commit())),
        (
            "os".into(),
            Value::Str(format!(
                "{}-{}",
                std::env::consts::OS,
                std::env::consts::ARCH
            )),
        ),
    ])
}

/// The checked-out commit when the working directory is a git checkout
/// root, else `"unknown"` (an exported source tree has no history).
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, MiB (0 where the
/// platform does not report it).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
