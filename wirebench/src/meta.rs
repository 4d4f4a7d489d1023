//! Run metadata printed with every result.

use std::path::Path;

/// Where and on what a run was measured.
#[derive(Debug)]
pub struct Meta {
    git_rev: String,
    source_hash: String,
    nproc: usize,
    cpu: String,
    journal_fs: String,
    tacc_threads: String,
}

/// FNV-1a, enough to tell two source trees apart.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Hash of every file under `crates/` plus the lock file: identifies
/// the measured source where the checkout carries no git metadata.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        fnv(&mut hash, f.to_string_lossy().as_bytes());
        fnv(&mut hash, &std::fs::read(&f).unwrap_or_default());
    }
    format!("{hash:016x}")
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none (not a git checkout)".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else { return "unknown".to_owned() };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

impl Meta {
    /// Collects the metadata; `journal_dir` is where journals live.
    pub fn collect(journal_dir: &Path) -> Meta {
        Meta {
            git_rev: git_rev(),
            source_hash: source_hash(),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu: cpu_model(),
            journal_fs: filesystem_of(journal_dir),
            tacc_threads: std::env::var("TACC_THREADS").unwrap_or_else(|_| "unset".to_owned()),
        }
    }

    /// One report line.
    pub fn line(&self) -> String {
        format!(
            "meta git_rev={} source_hash={} nproc={} cpu=\"{}\" journal_fs={} TACC_THREADS={}",
            self.git_rev,
            self.source_hash,
            self.nproc,
            self.cpu,
            self.journal_fs,
            self.tacc_threads
        )
    }
}
