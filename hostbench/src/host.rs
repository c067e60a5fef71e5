//! What the numbers were measured on: host, pools, commit and input
//! sizes, printed as a JSON record ahead of the result line.

use std::fs;
use std::path::Path;

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU 0's caches as the kernel reports them: (level, type, size text).
pub fn caches() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for index in 0.. {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        match (read("level"), read("type"), read("size")) {
            (Ok(level), Ok(kind), Ok(size)) => out.push((level, kind, size)),
            _ => break,
        }
    }
    out
}

/// Parse a sysfs cache size such as `32K` or `300M` into bytes.
pub fn cache_bytes(size: &str) -> u64 {
    let (digits, unit) = size.split_at(
        size.find(|c: char| !c.is_ascii_digit())
            .unwrap_or(size.len()),
    );
    let n: u64 = digits.parse().unwrap_or(0);
    match unit.trim() {
        "K" => n << 10,
        "M" => n << 20,
        "G" => n << 30,
        _ => n,
    }
}

/// (steal, total) jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The largest reported cache, in bytes (0 when none is reported).
pub fn last_level_cache_bytes(caches: &[(String, String, String)]) -> u64 {
    caches
        .iter()
        .map(|(_, _, size)| cache_bytes(size))
        .max()
        .unwrap_or(0)
}

/// The commit being measured, read from `.git` when the run happens in a
/// git checkout.
pub fn commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(cache_bytes("32K"), 32 << 10);
        assert_eq!(cache_bytes("300M"), 300 << 20);
        assert_eq!(cache_bytes("512"), 512);
    }
}
