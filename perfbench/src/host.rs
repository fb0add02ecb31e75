//! What the host is and what the process used: recorded beside every
//! result, because host-time numbers do not carry across machines.

use std::fs;

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`; `None` where procfs is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Extracts the `VmHWM` value (kB) from a `/proc/<pid>/status` text.
#[must_use]
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut fields = rest.split_whitespace();
        let value = fields.next()?.parse().ok()?;
        (fields.next() == Some("kB")).then_some(value)
    })
}

/// Worker threads the host offers (`nproc`).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
#[must_use]
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built this binary (captured by `build.rs`).
#[must_use]
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_is_parsed_from_a_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(5120));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 4000 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn vmhwm_reader_sees_this_process() {
        if std::path::Path::new("/proc/self/status").exists() {
            let mb = peak_rss_mb().expect("procfs exposes VmHWM");
            assert!(mb > 0.0 && mb < 1.0e6, "implausible peak RSS {mb} MiB");
        }
    }
}
