//! Process and machine facts: CPU time, peak memory and the environment
//! stamp every output carries. Linux `/proc` is the source; elsewhere the
//! readings are absent.

use std::path::Path;

/// Clock ticks per second of `/proc/self/stat` CPU times.
const CLK_TCK: f64 = 100.0;

/// User + system CPU time of the whole process, in seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / CLK_TCK
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type holding `dir`, from the longest matching mount.
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else { return "unknown".into() };
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let _device = parts.next()?;
            let mount = parts.next()?.replace("\\040", " ");
            let fstype = parts.next()?;
            path.starts_with(&mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference).map(|commit| commit.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The environment stamp as one JSON object.
pub fn stamp(seed: u64, wal_dir: Option<&Path>, flush_policy: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let wal_fs = wal_dir.map_or_else(|| "none".into(), filesystem_of);
    format!(
        "{{\"nproc\": {nproc}, \"kernel_kind\": {:?}, \"os_kernel\": {kernel:?}, \
         \"git_commit\": {:?}, \"seed\": {seed}, \"rustc\": {:?}, \"wal_fs\": {wal_fs:?}, \
         \"flush_policy\": {flush_policy:?}}}",
        pcor::data::kernel::selected().name(),
        git_commit(),
        env!("PERFBENCH_RUSTC_VERSION"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn process_readings_are_positive() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert_ne!(filesystem_of(Path::new(".")), "unknown");
    }

    #[test]
    fn stamp_is_one_json_object() {
        let text = stamp(9, None, "none");
        let value = serde_json::from_str_value(&text).expect("valid json");
        assert!(value.get_field("nproc").is_some());
        assert!(value.get_field("kernel_kind").is_some());
        assert!(value.get_field("rustc").is_some());
    }
}
