//! Machine-peak calibration.
//!
//! The roofline model needs two machine constants per thread count: the
//! attainable peak f32 GFLOP/s (measured by looping the same cache-blocked
//! 8×8 GEMM micro-kernel the tensor stack dispatches by default — the
//! AVX2/FMA tile where the CPU has it) and the attainable
//! stream bandwidth in GB/s (a triad sweep over a buffer larger than the
//! last-level cache). Calibration is a one-shot microbench of about a
//! quarter of a second, so whoever needs the peaks measures them; there is
//! no cache file to version, invalidate or carry between hosts.

/// Attainable peaks measured at one worker-pool thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakEntry {
    /// Worker-pool thread count the peaks were measured at.
    pub threads: u64,
    /// Attainable f32 GFLOP/s (best of several GEMM micro-kernel reps).
    pub gflops: f64,
    /// Attainable stream bandwidth in GB/s (best-of triad sweep).
    pub stream_gbps: f64,
}

impl PeakEntry {
    /// The ridge point in FLOPs/byte: arithmetic intensity below this is
    /// bandwidth-bound, above it compute-bound.
    pub fn ridge(&self) -> f64 {
        if self.stream_gbps > 0.0 {
            self.gflops / self.stream_gbps
        } else {
            f64::INFINITY
        }
    }
}

/// Attainable peaks per calibrated thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct MachinePeaks {
    /// One entry per calibrated thread count, ascending.
    pub entries: Vec<PeakEntry>,
}

impl MachinePeaks {
    /// The entry for `threads`: an exact match if calibrated, otherwise the
    /// largest calibrated count not above it, otherwise the smallest entry.
    /// Returns `None` only when there are no entries.
    pub fn entry_for(&self, threads: u64) -> Option<&PeakEntry> {
        self.entries
            .iter()
            .filter(|e| e.threads <= threads)
            .max_by_key(|e| e.threads)
            .or_else(|| self.entries.first())
    }
}

/// GEMM side length for the compute peak: 3 × 256² × 4 B = 768 KiB of
/// operands, resident in L2 on anything modern, so the measurement is
/// micro-kernel throughput rather than memory traffic.
const GEMM_N: usize = 256;
/// Triad buffer length: 3 × 8 Mi × 4 B = 96 MiB, well past any LLC.
const STREAM_LEN: usize = 8 << 20;
const REPS: usize = 3;

/// One-shot machine calibration: measures attainable peak f32 GFLOP/s and
/// stream GB/s at each of `thread_counts`, restoring the calling thread's
/// worker-pool count afterwards. Entries come back sorted ascending by
/// threads.
///
/// # Panics
///
/// Panics if `thread_counts` is empty or contains zero.
pub fn calibrate(thread_counts: &[usize]) -> MachinePeaks {
    assert!(!thread_counts.is_empty(), "calibrate needs a thread count");
    let prior = hfta_kernels::num_threads();
    let mut counts: Vec<usize> = thread_counts.to_vec();
    counts.sort_unstable();
    counts.dedup();
    let entries = counts
        .into_iter()
        .map(|t| {
            assert!(t > 0, "thread counts must be positive");
            hfta_kernels::set_num_threads(t);
            PeakEntry {
                threads: t as u64,
                gflops: peak_gemm_gflops(),
                stream_gbps: peak_stream_gbps(),
            }
        })
        .collect();
    hfta_kernels::set_num_threads(prior);
    MachinePeaks { entries }
}

/// Best-of-[`REPS`] GFLOP/s of the default tiled GEMM (8×8 micro-kernel)
/// on a cache-resident square problem.
fn peak_gemm_gflops() -> f64 {
    let n = GEMM_N;
    let a = vec![1.0f32; n * n];
    let b = vec![1.0f32; n * n];
    let mut c = vec![0.0f32; n * n];
    let flops = 2.0 * (n * n * n) as f64;
    // Warm the pool and the caches once before timing.
    hfta_kernels::gemm(&mut c, &a, &b, n, n, n);
    let mut best = 0.0f64;
    for _ in 0..REPS {
        c.fill(0.0);
        let start = std::time::Instant::now();
        hfta_kernels::gemm(&mut c, &a, &b, n, n, n);
        let ns = start.elapsed().as_secs_f64() * 1e9;
        if ns > 0.0 {
            best = best.max(flops / ns);
        }
    }
    std::hint::black_box(&c);
    best
}

/// Best-of-[`REPS`] GB/s of a parallel triad (`a[i] = b[i] + s·c[i]`) over
/// a buffer far larger than the last-level cache.
fn peak_stream_gbps() -> f64 {
    let n = STREAM_LEN;
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut a = vec![0.0f32; n];
    // 2 reads + 1 write per element.
    let bytes = (3 * 4 * n) as f64;
    let grain = 1 << 16;
    let mut best = 0.0f64;
    for _ in 0..=REPS {
        let start = std::time::Instant::now();
        let shared = hfta_kernels::UnsafeSlice::new(&mut a);
        hfta_kernels::parallel_for_work(n.div_ceil(grain), 1, n, |range| {
            for chunk in range {
                let lo = chunk * grain;
                let hi = (lo + grain).min(n);
                // SAFETY: chunks are disjoint by construction.
                let out = unsafe { shared.slice_mut(lo..hi) };
                for (i, o) in out.iter_mut().enumerate() {
                    *o = b[lo + i] + 3.0 * c[lo + i];
                }
            }
        });
        let ns = start.elapsed().as_secs_f64() * 1e9;
        if ns > 0.0 {
            best = best.max(bytes / ns);
        }
    }
    std::hint::black_box(&a);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_selection_prefers_nearest_below() {
        let peaks = MachinePeaks {
            entries: vec![
                PeakEntry {
                    threads: 1,
                    gflops: 10.0,
                    stream_gbps: 5.0,
                },
                PeakEntry {
                    threads: 4,
                    gflops: 30.0,
                    stream_gbps: 12.0,
                },
            ],
        };
        assert_eq!(peaks.entry_for(1).unwrap().gflops, 10.0);
        assert_eq!(peaks.entry_for(2).unwrap().gflops, 10.0);
        assert_eq!(peaks.entry_for(4).unwrap().gflops, 30.0);
        assert_eq!(peaks.entry_for(16).unwrap().gflops, 30.0);
        assert_eq!(peaks.entry_for(1).unwrap().ridge(), 2.0);
    }

    #[test]
    fn calibrate_measures_positive_peaks() {
        let peaks = calibrate(&[1]);
        assert_eq!(peaks.entries.len(), 1);
        let e = &peaks.entries[0];
        assert_eq!(e.threads, 1);
        assert!(e.gflops > 0.0, "gflops {}", e.gflops);
        assert!(e.stream_gbps > 0.0, "stream {}", e.stream_gbps);
        assert!(e.ridge().is_finite());
    }
}
