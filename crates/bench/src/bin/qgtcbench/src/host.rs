//! Host fingerprint and memory readings printed with every result.

use qgtc_core::kernels::backend::{staged_body_name, BackendChoice};
use qgtc_core::kernels::tiling::tune_file_path;

/// The repository root, fixed at build time (the benchmark package lives
/// five directories below it).
pub const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../..");

/// What a result depends on besides the code: core and pool sizes, the
/// popcount body the kernels resolved to, the tune table and the revision.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub rayon_threads: usize,
    pub popcount_body: &'static str,
    pub tune_hash: String,
    pub revision: String,
}

impl Fingerprint {
    pub fn detect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rayon_threads: rayon::current_num_threads(),
            popcount_body: staged_body_name(BackendChoice::Auto),
            tune_hash: std::fs::read(tune_file_path())
                .map_or_else(|_| "missing".to_string(), |b| format!("{:016x}", fnv1a(&b))),
            revision: git_revision().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("rayon_threads", self.rayon_threads.to_string()),
            ("popcount_body", self.popcount_body.to_string()),
            ("tune_hash", self.tune_hash.clone()),
            ("revision", self.revision.clone()),
        ]
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The checked-out commit, read from `.git` without running git (a
/// benchmark checkout that is not a repository has none).
fn git_revision() -> Option<String> {
    let git = std::path::Path::new(REPO_ROOT).join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far, in MB.
pub fn rss_peak_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}
