//! What the machine and the process say about themselves: `/proc`
//! readers for CPU time, memory and thread count, and the environment
//! block every results file carries.

use std::fs;

/// Linux reports process times in `USER_HZ` ticks, fixed at 100 on every
/// supported architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// Process CPU time so far, user + system, all threads, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // The command name may hold spaces; fields count from after its ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|s| s.parse().ok()).expect("utime");
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).expect("stime");
    (utime + stime) / TICKS_PER_SEC
}

/// A numeric field of `/proc/self/status` (`VmHWM` in kB, `Threads`).
pub fn status_field(name: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no numeric {name}"))
}

/// Peak resident set of this process, in MB.
pub fn rss_peak_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

fn cpuinfo(field: &str) -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_default()
}

/// `HEAD` of the checkout the benchmark runs from, when it is a git
/// repository (the driver's checkout is not).
fn git_commit() -> String {
    let head = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git/HEAD"))
        .unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!(
            concat!(env!("CARGO_MANIFEST_DIR"), "/../.git/{}"),
            reference
        ))
        .map(|s| s.trim().to_string())
        .unwrap_or_default(),
        None => head.to_string(),
    }
}

/// Escapes a string for a JSON document.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The environment block: numbers from a 2-core container are never to be
/// compared with a runner's.
pub fn environment_json(seed: u64, seconds: f64) -> String {
    let flags = cpuinfo("flags");
    let has = |flag: &str| flags.split_ascii_whitespace().any(|f| f == flag);
    let commit = git_commit();
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"ssse3\": {}, \"avx2\": {}, \"avx512bw\": {}, \
         \"gfni\": {}, \"gf256_kernel\": {}, \"rustc\": {}, \"git_commit\": {}, \"seed\": {seed}, \
         \"seconds\": {seconds}}}",
        std::thread::available_parallelism().map_or(0, usize::from),
        json_str(&cpuinfo("model name")),
        has("ssse3"),
        has("avx2"),
        has("avx512bw"),
        has("gfni"),
        json_str(rsb_coding::gf256::active_kernel().name()),
        json_str(env!("RSB_PERF_RUSTC")),
        json_str(if commit.is_empty() {
            "unknown"
        } else {
            &commit
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(status_field("Threads") >= 1);
        assert!(rss_peak_mb() > 0.5);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
