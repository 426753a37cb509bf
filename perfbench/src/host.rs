//! Host facts stamped on every result, and process memory readings.

use std::path::Path;

/// Worker count the campaigns pin to and the serve generator's connection
/// cap: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{}/status", p),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Identifies the measured source: the git commit when the tree is a
/// checkout, otherwise an FNV-1a digest over the workspace manifest, lock
/// file and every file under `crates/`, so two runs can tell whether they
/// measured the same code.
pub fn source_id(root: &Path) -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .env_clear()
        .stderr(std::process::Stdio::null())
        .output()
    {
        let head = String::from_utf8_lossy(&out.stdout).trim().to_string();
        if out.status.success() && !head.is_empty() {
            return format!("git:{}", head);
        }
    }
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a:{:016x}", h)
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}
