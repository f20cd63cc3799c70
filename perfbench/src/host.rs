//! Facts about the host a result was measured on, printed next to every
//! result so a comparison across hosts is flagged rather than read as a
//! regression.

use std::path::Path;

/// The host and code identity of one run.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub pool_threads: usize,
    pub cpu_model: String,
    pub avx512f: bool,
    pub avx2_fma: bool,
    /// Which GEMM micro-kernel the runtime dispatch picks on this CPU.
    pub gemm_kernel: &'static str,
    /// `HEAD` of the enclosing git checkout, or `unknown` outside one.
    pub commit: String,
    pub seed: u64,
}

impl HostFacts {
    pub fn collect(seed: u64) -> HostFacts {
        let (avx512f, avx2_fma) = cpu_features();
        HostFacts {
            nproc: nproc(),
            pool_threads: pelta_tensor::pool::global().threads(),
            cpu_model: cpu_model(),
            avx512f,
            avx2_fma,
            gemm_kernel: if avx512f {
                "avx512f"
            } else if avx2_fma {
                "avx2+fma"
            } else {
                "portable"
            },
            commit: git_head(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
            seed,
        }
    }

    /// One `key=value` line.
    pub fn render(&self) -> String {
        format!(
            "host: nproc={} pool_threads={} cpu=\"{}\" avx512f={} avx2+fma={} gemm_kernel={} commit={} seed={}",
            self.nproc,
            self.pool_threads,
            self.cpu_model,
            self.avx512f,
            self.avx2_fma,
            self.gemm_kernel,
            self.commit,
            self.seed
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> (bool, bool) {
    (
        std::arch::is_x86_feature_detected!("avx512f"),
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma"),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> (bool, bool) {
    (false, false)
}

/// Resolves `HEAD` by reading `.git` directly (no subprocess): a detached
/// hash, a loose ref, or a packed ref.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|line| {
            let (hash, name) = line.split_once(' ')?;
            (name == reference).then(|| hash.to_string())
        })
}

/// Caps the compute pool at `nproc` threads (a larger `PELTA_THREADS` would
/// oversubscribe the host and measure the scheduler, not the program).
pub fn cap_pool_threads() {
    let threads = pelta_tensor::pool::env_threads().min(nproc());
    if pelta_tensor::pool::global().threads() != threads {
        pelta_tensor::pool::set_global_threads(threads);
    }
}
