//! The benchmark's own ruler: one monotonic clock, exact order-statistic
//! quantiles over raw samples, and per-thread CPU accounting from
//! `/proc/self/task`.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (every stamp the
/// benchmark takes, in any thread, is on this one clock).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The `q`-quantile of `samples` by nearest rank: the smallest sample
/// with at least `q · n` samples at or below it. Sorts in place; 0 when
/// empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The median of floating-point samples (mean of the middle pair for an
/// even count); 0 when empty.
pub fn median_f64(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Clock ticks per second of `/proc/.../stat` times (`USER_HZ`, fixed at
/// 100 by the Linux ABI on every architecture this runs on).
const USER_HZ: f64 = 100.0;

/// The calling thread's kernel thread id.
pub fn current_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.parse().ok())
        })
        .expect("/proc/thread-self names the calling thread")
}

/// User + system CPU ticks of every live thread of this process.
pub fn thread_ticks() -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // The command name may hold spaces or parentheses: fields are
        // counted from the last ')'. utime and stime are fields 14 and
        // 15 of the line, i.e. the 12th and 13th after the name.
        let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
            continue;
        };
        let f: Vec<&str> = rest.split_whitespace().collect();
        if let (Some(u), Some(s)) = (f.get(11), f.get(12)) {
            if let (Ok(u), Ok(s)) = (u.parse::<u64>(), s.parse::<u64>()) {
                out.insert(tid, u + s);
            }
        }
    }
    out
}

/// CPU milliseconds the program's threads (every thread except the
/// benchmark's own, `mine`) used between two [`thread_ticks`] samples.
pub fn program_cpu_ms(
    before: &HashMap<u64, u64>,
    after: &HashMap<u64, u64>,
    mine: &HashSet<u64>,
) -> f64 {
    let ticks: u64 = after
        .iter()
        .filter(|(tid, _)| !mine.contains(tid))
        .map(|(tid, t)| t.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum();
    ticks as f64 * 1000.0 / USER_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_order_statistics() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.95), 95);
        assert_eq!(quantile(&mut v, 0.999), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn own_thread_is_visible() {
        let tid = current_tid();
        assert!(thread_ticks().contains_key(&tid));
    }
}
