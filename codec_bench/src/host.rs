//! Host and run facts printed with every result: core counts, the pool
//! override, CPU model, compiler, code identity and the workload seed.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::stats::Digest;

/// Facts about the host and this run.
#[derive(Debug, Clone)]
pub struct Facts {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// The `TEPICS_POOL_THREADS` override, if set.
    pub pool_threads_env: Option<String>,
    /// CPU model name.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, when the tree is a git checkout.
    pub git_commit: Option<String>,
    /// FNV-1a digest of the sources the benchmark builds against.
    pub source_digest: u64,
}

impl Facts {
    /// Gathers the facts (runs `rustc -V` and `git rev-parse HEAD` and
    /// waits for both).
    pub fn gather() -> Facts {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let nproc = fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("Cpus_allowed_list:"))?;
                cpu_list_len(line.split(':').nth(1)?)
            })
            .unwrap_or(available_parallelism);
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split(':').nth(1)?.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Facts {
            nproc,
            available_parallelism,
            pool_threads_env: std::env::var("TEPICS_POOL_THREADS").ok(),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            source_digest: source_digest(&repo_root()),
        }
    }

    /// The facts as a JSON object, for a run asking for `threads`
    /// threads (the pool override can only lower that count).
    pub fn to_json(&self, workload: &str, seed: u64, threads: usize) -> String {
        let over = threads > self.nproc;
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {}, \
             \"available_parallelism\": {}, \"tepics_pool_threads\": {}, \"threads\": {threads}, \
             \"threads_exceed_nproc\": {over}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \
             \"git_commit\": {}, \"source_digest\": \"{:016x}\"}}",
            self.nproc,
            self.available_parallelism,
            json_opt(self.pool_threads_env.as_deref()),
            escape(&self.cpu_model),
            escape(&self.rustc),
            json_opt(self.git_commit.as_deref()),
            self.source_digest,
        )
    }
}

/// Number of CPUs in a list such as `0-3,6,8-9`.
pub fn cpu_list_len(list: &str) -> Option<usize> {
    let mut n = 0;
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        n += match part.split_once('-') {
            Some((a, b)) => b.trim().parse::<usize>().ok()? + 1 - a.trim().parse::<usize>().ok()?,
            None => {
                part.trim().parse::<usize>().ok()?;
                1
            }
        };
    }
    (n > 0).then_some(n)
}

/// The repository root: the benchmark package's parent directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Digest of the codec's sources and manifests (`crates/`, the root
/// `Cargo.toml` and `Cargo.lock`), visited in sorted order: the code
/// identity when the tree is not a git checkout.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut digest = Digest::default();
    for file in files {
        if let Ok(bytes) = fs::read(&file) {
            let rel = file.strip_prefix(root).unwrap_or(&file);
            digest.bytes(rel.to_string_lossy().as_bytes()).bytes(&bytes);
        }
    }
    digest.value()
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.is_file() {
            out.push(path);
        }
    }
}

/// First stdout line of a command that succeeded, run in the
/// repository root. Git may not search above that root for a
/// repository, so a tree that is not a checkout reports no commit.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let root = repo_root();
    let mut cmd = Command::new(program);
    cmd.args(args).current_dir(&root);
    if let Some(parent) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn json_opt(value: Option<&str>) -> String {
    value.map_or_else(|| "null".into(), |v| format!("\"{}\"", escape(v)))
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count_ranges_and_singles() {
        assert_eq!(cpu_list_len("0-1"), Some(2));
        assert_eq!(cpu_list_len(" 0-3,6,8-9\n"), Some(7));
        assert_eq!(cpu_list_len("5"), Some(1));
        assert_eq!(cpu_list_len(""), None);
        assert_eq!(cpu_list_len("x"), None);
    }

    #[test]
    fn facts_flag_threads_beyond_nproc() {
        let facts = Facts {
            nproc: 2,
            available_parallelism: 2,
            pool_threads_env: None,
            cpu_model: "cpu \"x\"".into(),
            rustc: "rustc 1".into(),
            git_commit: None,
            source_digest: 7,
        };
        assert!(facts
            .to_json("w", 1, 2)
            .contains("\"threads_exceed_nproc\": false"));
        assert!(facts
            .to_json("w", 1, 3)
            .contains("\"threads_exceed_nproc\": true"));
        assert!(facts.to_json("w", 1, 2).contains("cpu \\\"x\\\""));
    }
}
