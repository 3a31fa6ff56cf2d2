//! What the operating system knows about this process and its files.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture this builds for.
const CLK_TCK: f64 = 100.0;

/// User + system CPU milliseconds this process (all threads, exited
/// ones included) has consumed so far.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis: state is field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next().expect("utime").parse().expect("utime ticks");
    let stime: f64 = fields.next().expect("stime").parse().expect("stime ticks");
    (utime + stime) * 1000.0 / CLK_TCK
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Total bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Removes `dir` if present and recreates it empty.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(dir)
}
