//! The host block printed beside every result, and the process's peak
//! resident memory.

use std::hint::black_box;
use std::time::Instant;

use dsaudit_algebra::{Field, Fq};

/// What the run was measured on, so box drift shows next to an apparent
/// regression.
pub struct Host {
    /// Threads the process may run in parallel.
    pub nproc: usize,
    /// CPU model string from the kernel, or `unknown`.
    pub cpu_model: String,
    /// Calibration kernel timed through this run: nanoseconds per `Fq`
    /// multiplication through the public `algebra` API (median of the
    /// bursts taken between units).
    pub fq_mul_ns: f64,
}

impl Host {
    /// Probes the host; `fq_mul_ns` are the calibration bursts taken
    /// through the run (their median is reported).
    pub fn probe(fq_mul_ns: &[f64]) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model(),
            fq_mul_ns: crate::stats::median(fq_mul_ns).unwrap_or(0.0),
        }
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"host\": {{\"nproc\": {}, \"cpu_model\": \"{}\", \"fq_mul_ns\": {:.4}}}}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], ""),
            self.fq_mul_ns
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One calibration burst: nanoseconds per `Fq` multiplication over a
/// dependent chain of 50 000 of them (about a millisecond).
pub fn fq_mul_ns() -> f64 {
    const BATCH: u32 = 50_000;
    let y = Fq::from_u64(0x9e37_79b9_7f4a_7c15);
    let mut x = Fq::from_u64(7);
    let t0 = Instant::now();
    for _ in 0..BATCH {
        x = black_box(x) * y;
    }
    let ns = t0.elapsed().as_nanos() as f64 / f64::from(BATCH);
    black_box(x);
    ns
}

/// Peak resident set size of this process in MB (10^6 bytes), from the
/// kernel's high-water mark.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}
