//! What the benchmark reads about its own process and host: CPU time and
//! peak memory from `/proc/self`, and the host facts every output records.

use std::path::Path;

use crate::json::Json;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. Linux fixes `USER_HZ` at 100 on every
/// architecture this runs on; there is no libc here to ask `sysconf`.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // The command name sits in parentheses and may itself hold spaces;
    // fields are counted from after the closing one. utime and stime are
    // fields 14 and 15 of the line, so 12th and 13th after the name.
    let after = &stat[stat.rfind(')').expect("stat names the command") + 1..];
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime fields")
    };
    (tick() + tick()) / CLK_TCK
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// The filesystem type mounted under `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fstype)) = (
            left.split_ascii_whitespace().nth(4),
            right.split_ascii_whitespace().next(),
        ) else {
            continue;
        };
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The commit of the checkout the benchmark sits in, read from `.git`
/// without running git (the acceptance checkout is not a repository, so
/// "none" is an expected answer).
fn commit_of(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Host facts recorded with every result: a number measured on two cores
/// of a sandbox must never be read as a number from anything else.
pub fn facts(repo_root: &Path, tmp_dir: &Path, seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::str(kernel)),
        ("commit", Json::str(commit_of(repo_root))),
        ("seed", Json::Num(seed as f64)),
        ("tmpdir_fs", Json::str(filesystem_of(tmp_dir))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_numbers() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
        assert!(rss_peak_mb() > 0.5);
        assert_ne!(filesystem_of(Path::new("/proc")), "unknown");
    }
}
