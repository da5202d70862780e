//! Host facts: process memory and CPU time, provenance, and the
//! benchmark-owned scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim_start_matches(':').trim().to_string())
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of the whole process (all threads).
pub fn cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// User + system CPU seconds of the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

fn stat_cpu_seconds(path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the name.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // Linux reports both in USER_HZ, which is 100 on every supported ABI.
    (ticks(11) + ticks(12)) / 100.0
}

/// Compile-time target features relevant to the replay kernels.
fn target_features() -> Vec<&'static str> {
    let mut v = Vec::new();
    macro_rules! feat {
        ($($f:literal),*) => {$(
            if cfg!(target_feature = $f) {
                v.push($f);
            }
        )*};
    }
    feat!("sse4.2", "popcnt", "avx", "avx2", "bmi2", "avx512f", "neon");
    v
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every Rust source and manifest under `crates/` plus the
/// lock file: identifies the code measured even where the checkout is
/// not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

/// The provenance record printed with every result.
pub fn provenance(root: &Path, workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    let git_rev = command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
        .unwrap_or_else(|| "none".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<String> = target_features().iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"traced\":{traced},\
         \"scale\":\"medium\",\"git_rev\":{},\"source_digest\":{},\"available_parallelism\":{cores},\
         \"cpus_allowed_list\":{},\"rustc\":{},\"target_features\":[{}]}}}}",
        json_str(workload),
        json_str(&git_rev),
        json_str(&source_digest(root)),
        json_str(&status_field("Cpus_allowed_list").unwrap_or_default()),
        json_str(&command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())),
        features.join(","),
    )
}

/// Makes `dir` exist and be empty, removing whatever an earlier run left
/// there. Fails rather than hand back a directory that still has entries.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(dir)?;
    if std::fs::read_dir(dir)?.next().is_some() {
        return Err(std::io::Error::other(format!(
            "scratch directory {} is not empty",
            dir.display()
        )));
    }
    Ok(())
}

/// The benchmark-owned scratch directory of one run, removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// A fresh, empty directory under `<root>/.benchrun/`.
    pub fn new(root: &Path, workload: &str) -> std::io::Result<Scratch> {
        let dir = root
            .join(".benchrun")
            .join(format!("{workload}-{}", std::process::id()));
        fresh_dir(&dir)?;
        Ok(Scratch { dir })
    }

    /// A fresh, empty subdirectory for one unit of work.
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.dir.join(name);
        fresh_dir(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_live() {
        assert!(peak_rss_mb() > 0.0);
        // Busy work must show up in the thread's and the process's CPU
        // time within a few clock ticks.
        let (thread0, process0) = (thread_cpu_seconds(), cpu_seconds());
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while thread_cpu_seconds() <= thread0 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            assert!(
                start.elapsed().as_secs() < 5,
                "thread CPU time never advanced"
            );
        }
        assert!(cpu_seconds() > process0);
    }
}
