//! What the benchmark reads from the host: memory, CPUs, the commit it
//! measures, and confining itself to one CPU.

use std::io;
use std::process::Command;

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// CPUs this process may run on (`Cpus_allowed_list`), in order.
pub fn allowed_cpus() -> Vec<usize> {
    let list = status_field("Cpus_allowed_list:").unwrap_or_default();
    list.split(',')
        .filter_map(|part| {
            let mut ends = part.trim().splitn(2, '-').map(|x| x.parse::<usize>().ok());
            let lo = ends.next().flatten()?;
            let hi = ends.next().map_or(Some(lo), |x| x)?;
            Some(lo..=hi)
        })
        .flatten()
        .collect()
}

/// Worker count the program sizes its thread fan-out by.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit being measured: `git rev-parse HEAD` when the checkout is
/// a repository, else `GIT_COMMIT` from the environment, else "unknown".
pub fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .or_else(|| std::env::var("GIT_COMMIT").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine this process to the first CPU it may use, and return that
/// CPU. Call before any thread starts: threads inherit the mask of the
/// thread that spawns them, and `available_parallelism` then reports 1.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let cpu = *allowed_cpus()
        .first()
        .ok_or_else(|| io::Error::other("no CPU listed in Cpus_allowed_list"))?;
    // glibc's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::other(format!("CPU {cpu} beyond a 1024-bit mask")))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, aligned buffer of exactly the size
    // passed; the call only reads it, and pid 0 names the calling
    // thread, which is the only thread of the process at this point.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(io::Error::last_os_error())
    }
}

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix(key)).map(|v| v.trim().to_string())
}

/// 64-bit FNV-1a, used to fingerprint outputs across iterations and
/// processes.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_status() {
        assert!(peak_rss_bytes() > 0);
        assert!(!allowed_cpus().is_empty());
    }
}
