//! What the harness reads about its host and its own process: the
//! fingerprint embedded in every result, and `/proc` counters.

use std::fs;

/// Where the results were measured, printed with every result.
pub fn fingerprint(seed: u64, scale: f64, generators: usize, in_flight: usize) -> String {
    format!(
        "{{\"nproc\": {}, \"available_parallelism\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"seed\": {seed}, \"scale\": {scale}, \"generator_threads\": {generators}, \
         \"in_flight_per_thread\": {in_flight}}}",
        online_cpus(),
        parallelism(),
        env!("WAZI_PERF_RUSTC"),
        git_commit(),
    )
}

/// Threads the host lets this process run at once.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPUs the kernel reports online, whatever this process may use of them.
fn online_cpus() -> usize {
    let Ok(text) = fs::read_to_string("/sys/devices/system/cpu/online") else {
        return parallelism();
    };
    text.trim()
        .split(',')
        .filter_map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            Some(hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1)
        })
        .sum::<usize>()
        .max(1)
}

/// The checked-out commit, read from `.git` without running git; a plain
/// copy of the files has none.
fn git_commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.len() >= 12 && commit.bytes().all(|b| b.is_ascii_hexdigit()) {
        commit[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

/// A `key:` line of `/proc/self/status`, as a number.
fn status_field(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Threads alive in this process right now.
pub fn threads_now() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "Threads:").unwrap_or(0.0) as u64
}

fn switches_in(status: &str) -> Option<u64> {
    let switches = status_field(status, "voluntary_ctxt_switches:")?
        + status_field(status, "nonvoluntary_ctxt_switches:")?;
    Some(switches as u64)
}

/// Context switches of the calling thread since it started.
pub fn own_context_switches() -> u64 {
    let status = fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    switches_in(&status).unwrap_or(0)
}

/// Context switches (voluntary + involuntary) of the threads alive right
/// now, by thread id. Two readings taken while the same threads live give
/// the switches in between.
pub fn context_switches() -> Vec<(u64, u64)> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| {
            let task = task.ok()?;
            let tid = task.file_name().to_str()?.parse().ok()?;
            let status = fs::read_to_string(task.path().join("status")).ok()?;
            Some((tid, switches_in(&status)?))
        })
        .collect()
}

/// Switches between two [`context_switches`] readings, over the threads
/// alive at the second.
pub fn switches_between(before: &[(u64, u64)], after: &[(u64, u64)]) -> u64 {
    after
        .iter()
        .map(|&(tid, now)| {
            let then = before
                .iter()
                .find(|&&(t, _)| t == tid)
                .map_or(0, |&(_, n)| n);
            now.saturating_sub(then)
        })
        .sum()
}
