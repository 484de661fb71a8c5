//! Measured host reference: last-level cache size and streaming read
//! bandwidth, taken in the benchmark's own process.
//!
//! The plan apply streams its CSR and is judged against this figure, not
//! against a nominal peak. The kernel is a read-only sum over one array of
//! at least four times the last-level cache, split over the same number of
//! threads the apply uses; the apply is read-dominated (the CSR is read,
//! only the short output vector is written), so read bandwidth is its
//! ceiling.

use std::time::Instant;

/// Fallback when the processor does not report its caches.
const FALLBACK_LLC_BYTES: u64 = 32 << 20;
/// Timed passes over the array; the fastest is reported, as STREAM does.
const PASSES: usize = 4;

/// The reference figures.
#[derive(Debug, Clone, Copy)]
pub struct HostRef {
    /// Last-level cache size, bytes.
    pub llc_bytes: u64,
    /// Bytes of the streamed array.
    pub array_bytes: u64,
    /// Best read bandwidth, GB/s (1e9 bytes per second).
    pub stream_gbps: f64,
}

/// Largest data or unified cache the processor reports (CPUID leaf 4).
#[cfg(target_arch = "x86_64")]
pub fn llc_bytes() -> u64 {
    use std::arch::x86_64::__cpuid_count;
    let max_leaf = __cpuid_count(0, 0).eax;
    if max_leaf < 4 {
        return FALLBACK_LLC_BYTES;
    }
    let mut best = 0u64;
    for sub in 0..16 {
        // Leaf 4 enumerates cache levels until a null entry.
        let r = __cpuid_count(4, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        if kind == 1 || kind == 3 {
            let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
            let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
            let line = u64::from(r.ebx & 0xfff) + 1;
            let sets = u64::from(r.ecx) + 1;
            best = best.max(ways * partitions * line * sets);
        }
    }
    if best == 0 {
        FALLBACK_LLC_BYTES
    } else {
        best
    }
}

/// Largest data or unified cache the processor reports.
#[cfg(not(target_arch = "x86_64"))]
pub fn llc_bytes() -> u64 {
    FALLBACK_LLC_BYTES
}

/// Measures read bandwidth over an array of at least 4× the LLC with
/// `threads` threads.
pub fn measure(threads: usize) -> HostRef {
    let llc = llc_bytes();
    let n = (4 * llc as usize).div_ceil(8);
    let data: Vec<f64> = (0..n).map(|i| (i & 7) as f64).collect();
    let threads = threads.max(1);
    let chunk = n.div_ceil(threads);
    let mut best = f64::INFINITY;
    let mut checksum = 0.0;
    for _ in 0..PASSES {
        let t = Instant::now();
        let sums: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = data
                .chunks(chunk)
                .map(|part| s.spawn(move || sum(part)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream thread panicked"))
                .collect()
        });
        best = best.min(t.elapsed().as_secs_f64());
        checksum = sums.iter().sum::<f64>();
    }
    // Every element is (i & 7): the sum is exact and known, which also
    // keeps the reads from being optimised away.
    let expected = (n / 8) as f64 * 28.0 + (0..n % 8).map(|i| i as f64).sum::<f64>();
    assert_eq!(checksum, expected, "stream kernel read wrong data");
    HostRef {
        llc_bytes: llc,
        array_bytes: (n * 8) as u64,
        stream_gbps: (n * 8) as f64 / best / 1e9,
    }
}

/// Sum with eight independent accumulators, so the loop is bound by loads,
/// not by the latency of one dependent add chain.
fn sum(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut blocks = xs.chunks_exact(8);
    for b in &mut blocks {
        for k in 0..8 {
            acc[k] += b[k];
        }
    }
    let tail: f64 = blocks.remainder().iter().sum();
    acc.iter().sum::<f64>() + tail
}
