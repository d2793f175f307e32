//! What the benchmark reads from the host: process memory from
//! `/proc/self/status`, and the stamp (commit, compiler, cores, CPU,
//! target features) that keeps numbers from different hosts apart.

use std::process::Command;

/// A `kB` field of `/proc/self/status` in bytes; 0 where `/proc` is missing.
fn status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set size of this process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

/// First line of a command's standard output, or "unknown" if it cannot
/// be run (the driver's checkout is not a git repository, for one).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Target features this binary was compiled with (the root
/// `.cargo/config.toml` sets `target-cpu=native`, so they follow the
/// build host), restricted to the ones the dense kernels care about.
fn target_features() -> Vec<&'static str> {
    let mut v = Vec::new();
    macro_rules! feature {
        ($($name:tt),*) => {$(
            if cfg!(target_feature = $name) {
                v.push($name);
            }
        )*};
    }
    feature!("sse4.2", "avx", "avx2", "fma", "avx512f", "neon");
    v
}

/// The provenance stamp as a JSON object.
pub fn stamp_json(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let features: Vec<String> =
        target_features().iter().map(|f| crate::report::json_string(f)).collect();
    format!(
        "{{\"git_commit\": {}, \"rustc\": {}, \"nproc\": {}, \"cpu_model\": {}, \
         \"target_features\": [{}], \"seed\": {}}}",
        crate::report::json_string(&first_line_of("git", &["rev-parse", "HEAD"])),
        crate::report::json_string(&first_line_of("rustc", &["-V"])),
        nproc,
        crate::report::json_string(&cpu_model()),
        features.join(", "),
        seed
    )
}
