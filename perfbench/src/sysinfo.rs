//! Machine and build facts stated with every result, and process-level
//! resource readings from `/proc`.

use crate::{Args, JOBS};
use std::path::Path;

/// What every run prints before its results.
pub struct Facts {
    nproc: usize,
    profile: &'static str,
    revision: String,
    source_digest: String,
    workload: &'static str,
    seed: u64,
}

impl Facts {
    pub fn gather(args: &Args) -> Facts {
        Facts {
            nproc: nproc(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            revision: git_revision(),
            source_digest: source_digest(),
            workload: args.workload.name(),
            seed: args.seed,
        }
    }

    pub fn render(&self) -> String {
        format!(
            "perfbench: workload {} seed {}\n\
             machine: nproc {} (std::thread::available_parallelism); {} sweep worker(s); \
             serve client and server share this box over loopback (127.0.0.1)\n\
             build: {} profile; git revision {}; source digest {}",
            self.workload,
            self.seed,
            self.nproc,
            JOBS,
            self.profile,
            self.revision,
            self.source_digest
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git rev-parse HEAD` when the checkout is a git work tree. Only the
/// checkout's own `.git` is consulted, never an enclosing repository.
fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unavailable (not a git work tree)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unavailable (not a git work tree)".into())
}

/// FNV-1a over the repository's Rust sources and manifests, in path
/// order: identifies the measured code when no git metadata is present.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs") | Some("toml")
            ) {
                out.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = crate::stats::Fnv::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write(f.to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    format!("{:016x} over {} file(s)", h.finish(), files.len())
}

/// User plus system CPU time of this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (100 Hz on
    // Linux). The command name (field 2) may contain spaces, so split
    // after its closing parenthesis.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3, so fields 14/15 sit at indices 11/12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on (its affinity mask), lowest first;
/// empty when the mask cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u8; CPU_SET_BYTES];
        // SAFETY: the kernel writes at most `CPU_SET_BYTES` into `mask`.
        if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..CPU_SET_BYTES * 8)
            .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
            .collect()
    }
    #[cfg(not(target_os = "linux"))]
    Vec::new()
}

/// Pins the calling thread to `cpu`; false when the kernel refused.
pub fn pin_current_thread(cpu: usize) -> bool {
    pin_thread(0, &[cpu])
}

/// Restricts thread `tid` of this process (0: the calling thread) to
/// `cpus`; false when the kernel refused.
pub fn pin_thread(tid: i32, cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u8; CPU_SET_BYTES];
        for &cpu in cpus {
            if cpu >= CPU_SET_BYTES * 8 {
                return false;
            }
            mask[cpu / 8] |= 1 << (cpu % 8);
        }
        // SAFETY: `mask` is a whole `cpu_set_t`.
        unsafe { sched_setaffinity(tid, CPU_SET_BYTES, mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (tid, cpus);
        false
    }
}

/// The threads of this process whose name is `name`, each with the CPU
/// time it has used so far in ns (`/proc/self/task/*/schedstat`).
pub fn threads_named(name: &str) -> Vec<(i32, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let tid = t.file_name().to_str()?.parse().ok()?;
            let comm = std::fs::read_to_string(t.path().join("comm")).ok()?;
            if comm.trim_end() != name {
                return None;
            }
            let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            Some((tid, stat.split_whitespace().next()?.parse().ok()?))
        })
        .collect()
}

/// `sizeof(cpu_set_t)` in glibc and musl: 1024 CPUs.
#[cfg(target_os = "linux")]
const CPU_SET_BYTES: usize = 128;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}
