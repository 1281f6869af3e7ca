//! The provenance manifest stamped on every output: what was built, on
//! what machine, and exactly which configuration, weights and trace ran.

use std::process::Command;

use safex_trace::json::Json;

/// Provenance of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Which CRC-32 path the build takes: the PCLMULQDQ fold or the
    /// table fallback.
    pub crc_path: &'static str,
    /// `rustc -V`, or `unknown` when rustc is not on PATH.
    pub rustc: String,
    /// The workload name.
    pub workload: &'static str,
    /// `Server::config_digest()`.
    pub config_digest: u64,
    /// `Model::digest()` of the deployed model.
    pub model_digest: u64,
    /// `trace_digest` of the replayed arrival trace.
    pub trace_digest: u64,
}

impl Manifest {
    /// Collects the host half of the manifest around the run's digests.
    pub fn collect(
        workload: &'static str,
        seed: u64,
        config_digest: u64,
        model_digest: u64,
        trace_digest: u64,
    ) -> Manifest {
        Manifest {
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            seed,
            parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            crc_path: if pclmul_fold() { "pclmulqdq" } else { "table" },
            rustc: Command::new("rustc")
                .arg("-V")
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .map_or_else(|| "unknown".into(), |v| v.trim().to_string()),
            workload,
            config_digest,
            model_digest,
            trace_digest,
        }
    }

    /// The manifest as a JSON object.
    pub fn to_json(&self) -> Json {
        let hex = |v: u64| Json::Str(format!("{v:016x}"));
        let mut obj = Json::object();
        obj.set("commit", Json::from(self.commit.as_str()))
            .set("seed", Json::from(self.seed))
            .set("available_parallelism", Json::from(self.parallelism))
            .set("crc_path", Json::from(self.crc_path))
            .set("rustc", Json::from(self.rustc.as_str()))
            .set("workload", Json::from(self.workload))
            .set("config_digest", hex(self.config_digest))
            .set("model_digest", hex(self.model_digest))
            .set("trace_digest", hex(self.trace_digest));
        obj
    }
}

/// The same test `safex-tensor` uses to pick its CRC fold.
fn pclmul_fold() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `HEAD` of the git checkout in the working directory, read from
/// `.git` directly so nothing outside the checkout is consulted.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}
