//! The host and configuration record every run carries, and the refusals
//! that keep a run honest: no leaked `HFTA_*` knob, never more kernel
//! threads than CPUs, no multi-thread number from a one-CPU host.

use serde_json::Value;

/// Where and how a run was taken.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRecord {
    /// CPUs available to this process.
    pub host_cpus: usize,
    /// CPU model string (`/proc/cpuinfo`), or `unknown`.
    pub cpu_model: String,
    /// Kernel threads of the multi-thread leg: `min(host_cpus, 4)`.
    pub threads_mt: usize,
    /// GEMM backend the program resolved to (its default is `auto`).
    pub gemm_backend: &'static str,
    /// Whether this CPU could run the SIMD micro-kernel.
    pub simd_available: bool,
    /// Whether `auto` may pick it (off by default).
    pub auto_simd: bool,
    /// Whether the recycling memory pool is on (on by default).
    pub mem_pool: bool,
    /// Whether a GEMM find-db is configured (none by default).
    pub tune_db: bool,
}

/// Names of `HFTA_*` variables present in `vars`. Any such variable would
/// silently move the program off its default configuration.
pub fn leaked_knobs(vars: impl Iterator<Item = String>) -> Vec<String> {
    let mut leaked: Vec<String> = vars.filter(|k| k.starts_with("HFTA_")).collect();
    leaked.sort();
    leaked
}

/// Refuses a kernel thread count the host cannot run in parallel.
pub fn check_threads(threads: usize, host_cpus: usize) -> Result<(), String> {
    if threads == 0 || threads > host_cpus {
        Err(format!(
            "refusing {threads} kernel threads on a host with {host_cpus} CPUs"
        ))
    } else {
        Ok(())
    }
}

/// Kernel threads for the multi-thread leg on a host with `host_cpus` CPUs,
/// or `None` when the host cannot run one (fewer than two CPUs).
pub fn threads_mt(host_cpus: usize) -> Option<usize> {
    (host_cpus >= 2).then(|| host_cpus.min(4))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

impl HostRecord {
    /// Reads the host and the program's resolved configuration.
    ///
    /// # Errors
    ///
    /// Fails when an `HFTA_*` variable is set: the program under test must
    /// run in its default configuration.
    pub fn probe() -> Result<HostRecord, String> {
        let leaked = leaked_knobs(std::env::vars().map(|(k, _)| k));
        if !leaked.is_empty() {
            return Err(format!(
                "HFTA_* variables leak into the run: {}",
                leaked.join(", ")
            ));
        }
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(HostRecord {
            host_cpus,
            cpu_model: cpu_model(),
            threads_mt: threads_mt(host_cpus).unwrap_or(1),
            gemm_backend: hfta_kernels::gemm::backend().name(),
            simd_available: hfta_kernels::simd_available(),
            auto_simd: hfta_kernels::gemm::auto_simd(),
            mem_pool: hfta_mem::pool_enabled(),
            tune_db: hfta_kernels::tune::enabled(),
        })
    }

    /// JSON rendering for run records.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("host_cpus".into(), Value::U64(self.host_cpus as u64)),
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("threads_mt".into(), Value::U64(self.threads_mt as u64)),
            ("gemm_backend".into(), Value::Str(self.gemm_backend.into())),
            ("simd_available".into(), Value::Bool(self.simd_available)),
            ("auto_simd".into(), Value::Bool(self.auto_simd)),
            ("mem_pool".into(), Value::Bool(self.mem_pool)),
            ("tune_db".into(), Value::Bool(self.tune_db)),
        ])
    }
}
