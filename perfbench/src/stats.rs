//! Order statistics, registry reads and the small bits of host
//! introspection a result carries.

use gridauthz_telemetry::{HistogramSnapshot, RegistrySnapshot, Stage};

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median over the windows in `counted` of each window's
/// `q`-quantile, using windows with at least `min` samples; also returns
/// how many windows counted. `windows[i]` is the window of `values[i]`.
pub fn windowed_quantile(
    values: &[f64],
    windows: &[u32],
    counted: &[usize],
    q: f64,
    min: usize,
) -> (f64, usize) {
    let mut by_window: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
    for (value, window) in values.iter().zip(windows) {
        by_window.entry(*window).or_default().push(*value);
    }
    let per_window: Vec<f64> = by_window
        .iter()
        .filter(|(w, v)| counted.contains(&(**w as usize)) && v.len() >= min)
        .map(|(_, v)| quantile(v, q))
        .collect();
    (median(&per_window), per_window.len())
}

/// Sum of a stage's counters over every label in `snapshot`.
pub fn stage_total(snapshot: &RegistrySnapshot, stage: Stage) -> u64 {
    snapshot.counters.iter().filter(|(s, _, _)| *s == stage).map(|(_, _, n)| n).sum()
}

/// One stage/label counter in `snapshot` (0 when absent).
pub fn counter(snapshot: &RegistrySnapshot, stage: Stage, label: &str) -> u64 {
    snapshot.counters.iter().find(|(s, l, _)| *s == stage && *l == label).map_or(0, |(_, _, n)| *n)
}

/// A stage's latency histogram in `after` minus the one in `before`.
pub fn histogram_delta(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    stage: Stage,
) -> Option<HistogramSnapshot> {
    let find = |s: &RegistrySnapshot| s.histograms.iter().find(|h| h.stage == stage).cloned();
    let mut delta = find(after)?;
    if let Some(old) = find(before) {
        delta.count -= old.count;
        delta.sum_nanos -= old.sum_nanos;
        for (bucket, old) in delta.buckets.iter_mut().zip(&old.buckets) {
            *bucket -= old;
        }
    }
    (delta.count > 0).then_some(delta)
}

/// The `q`-quantile of a power-of-two histogram in nanoseconds, linear
/// within the bucket that holds it (bucket `i` spans `[2^i, 2^(i+1))`).
pub fn histogram_quantile_ns(histogram: &HistogramSnapshot, q: f64) -> f64 {
    let rank = q * histogram.count as f64;
    let mut seen = 0.0;
    for (i, &count) in histogram.buckets.iter().enumerate() {
        let count = count as f64;
        if count > 0.0 && seen + count >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u64 << (i + 1).min(63)) as f64;
            return lo + (hi - lo) * ((rank - seen) / count).clamp(0.0, 1.0);
        }
        seen += count;
    }
    f64::NAN
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// The host-wide `cpu` line of `/proc/stat` (ticks per state).
pub fn cpu_times() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines().next().map(|line| {
                line.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect()
            })
        })
        .unwrap_or_default()
}

/// Share of CPU time the hypervisor stole between two [`cpu_times`]
/// readings; `NaN` when unavailable.
pub fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a.saturating_sub(*b)).collect();
    let total: u64 = delta.iter().sum();
    // Fields: user nice system idle iowait irq softirq steal guest guest_nice
    match delta.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => f64::NAN,
    }
}

/// Filesystem type and mount options of the mount holding `path`.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    // Fields: id parent major:minor root mount-point options ... - fstype source super-options
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(dash), Some(mount_point), Some(options)) =
            (fields.iter().position(|f| *f == "-"), fields.get(4), fields.get(5))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else { continue };
        if path.starts_with(mount_point)
            && best.as_ref().is_none_or(|(len, _)| mount_point.len() > *len)
        {
            best = Some((mount_point.len(), format!("{fstype} ({options})")));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// First line of `program args...`'s standard output, or "unknown".
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`.
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}
