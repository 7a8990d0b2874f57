//! Process and host facts read from `/proc` and the checkout: CPU time,
//! peak resident memory, CPU model, thread counts and commit.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// reports these in `USER_HZ`, which is 100 on every mainstream target.
const USER_HZ: f64 = 100.0;

/// Process-wide user + system CPU time in milliseconds, every thread
/// included (exited ones too), from `/proc/self/stat`.
///
/// # Errors
///
/// Fails when the file cannot be read or parsed.
pub fn process_cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    parse_stat_cpu_ms(&stat)
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// milliseconds. Fields are counted after the parenthesised command
/// name, which may itself hold spaces and parentheses.
///
/// # Errors
///
/// Fails on a line without the command name or with too few fields.
pub fn parse_stat_cpu_ms(stat: &str) -> Result<f64, String> {
    let after_comm = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("stat line has no command name")?;
    // After the command name come field 3 (state) onward.
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |field: usize| -> Result<f64, String> {
        fields
            .get(field - 3)
            .ok_or_else(|| format!("stat line has no field {field}"))?
            .parse::<u64>()
            .map(|t| t as f64)
            .map_err(|e| format!("stat field {field}: {e}"))
    };
    Ok((tick(14)? + tick(15)?) * 1000.0 / USER_HZ)
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` cannot be read or has no `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    parse_vm_hwm_mb(&status)
}

/// The `VmHWM:` line of a `/proc/<pid>/status` document, in MiB.
///
/// # Errors
///
/// Fails when the line is missing or not in kB.
pub fn parse_vm_hwm_mb(status: &str) -> Result<f64, String> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("status has no VmHWM line")?;
    let kb = line
        .trim()
        .strip_suffix("kB")
        .ok_or_else(|| format!("VmHWM not in kB: {line:?}"))?
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kb as f64 / 1024.0)
}

/// The first `model name` of a `/proc/cpuinfo` document.
#[must_use]
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|l| {
        let (key, value) = l.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_owned())
    })
}

/// Facts that decide whether two results are comparable at all.
#[derive(Debug)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// The worker count the engines' `Threads::Auto` resolves to.
    pub engine_threads: usize,
    /// CPU model string, or `unknown`.
    pub cpu_model: String,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl HostFacts {
    /// Reads the facts of this process and the checkout at `root`.
    #[must_use]
    pub fn collect(root: &Path) -> Self {
        Self {
            available_parallelism: dmra_par::available_threads(),
            engine_threads: dmra_par::Threads::Auto.resolve(),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| parse_cpu_model(&s))
                .unwrap_or_else(|| "unknown".into()),
            commit: git_commit(root).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Resolves `HEAD` by reading `.git` directly (no subprocess): a
/// detached hash, a loose ref, or an entry of `packed-refs`.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_sums_user_and_system_ticks() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let line = "4242 (perf bench) R 1 2 3 4 5 6 7 8 9 10 250 30 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu_ms(line), Ok(2800.0));
    }

    #[test]
    fn stat_cpu_survives_parentheses_in_the_command_name() {
        let line = "7 (a) b) S 1 2 3 4 5 6 7 8 9 10 1 2 0 0";
        assert_eq!(parse_stat_cpu_ms(line), Ok(30.0));
    }

    #[test]
    fn stat_cpu_rejects_truncated_lines() {
        assert!(parse_stat_cpu_ms("1 (x) R 1 2 3").is_err());
        assert!(parse_stat_cpu_ms("no command").is_err());
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Ok(2.0));
        assert!(parse_vm_hwm_mb("VmRSS:\t 1000 kB\n").is_err());
        assert!(parse_vm_hwm_mb("VmHWM:\t 1000 MB\n").is_err());
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(process_cpu_ms().expect("own stat") >= 0.0);
        assert!(peak_rss_mb().expect("own status") > 0.0);
    }

    #[test]
    fn cpu_model_takes_the_first_processor() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\n\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
        assert_eq!(parse_cpu_model("flags: x"), None);
    }
}
