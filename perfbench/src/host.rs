//! The host stamp printed with every result, and the FMA-throughput
//! probe that gives GEMM rates a ceiling to be read against.

use std::time::Instant;

/// CPU model, cores, `DC_THREADS`, kernel worker threads, compiler and
/// commit, as one JSON object.
pub fn stamp() -> String {
    let dc_threads = std::env::var("DC_THREADS").unwrap_or_else(|_| "unset".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cpu\":\"{}\",\"nproc\":{cores},\"dc_threads\":\"{}\",\"kernel_threads\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        escape(&cpu_model()),
        escape(&dc_threads),
        autodc::tensor::kernel::pool().threads(),
        escape(env!("PERFBENCH_RUSTC")),
        escape(&git_commit()),
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The processor brand string from CPUID leaves 0x8000_0002..=4.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown x86_64".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}

/// The checked-out commit, read from `.git` in the working directory;
/// a source tree without git history reports `"none"`.
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| packed_ref(r).ok_or(()))
            .unwrap_or_else(|_| head.to_string()),
        None => head.to_string(),
    }
}

fn packed_ref(name: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (sha, r) = l.split_once(' ')?;
        (r == name).then(|| sha.to_string())
    })
}

/// Independent accumulator chains in the probe: enough to cover FMA
/// latency × issue width on current x86 cores.
const CHAINS: usize = 10;

/// Single-core f32 FMA throughput in GFLOP/s, with the vector width the
/// GEMM kernels dispatch to (AVX2+FMA when present, scalar otherwise).
/// Best of five ~40 ms trials: a ceiling, not a typical rate.
pub fn peak_gflops() -> f64 {
    let iters = 2_000_000u64;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t0 = Instant::now();
        let (sink, flops_per_iter) = fma_probe(iters);
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        best = best.max(iters as f64 * flops_per_iter / secs / 1e9);
    }
    best
}

/// Runs the probe loop; returns a value to keep the work alive and the
/// flops one iteration performs.
fn fma_probe(iters: u64) -> (f32, f64) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the CPU supports AVX2 and FMA (checked just above),
        // which is all `fma_chains_avx2` requires.
        let sink = unsafe { fma_chains_avx2(iters) };
        return (sink, (CHAINS * 8 * 2) as f64);
    }
    (fma_chains_scalar(iters), (CHAINS * 2) as f64)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(0.999_999);
    let b = _mm256_set1_ps(1e-7);
    let mut acc = [_mm256_setzero_ps(); CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_ps(*x, a, b);
        }
    }
    let mut lanes = [0.0f32; 8];
    let mut sum = _mm256_setzero_ps();
    for x in acc {
        sum = _mm256_add_ps(sum, x);
    }
    // SAFETY: `lanes` holds exactly the 8 f32 an unaligned 256-bit
    // store writes.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
    lanes.iter().sum()
}

fn fma_chains_scalar(iters: u64) -> f32 {
    let mut acc = [0.0f32; CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = x.mul_add(0.999_999, 1e-7);
        }
    }
    acc.iter().sum()
}

/// Time of [`speed_probe`] on the reference host (2-vCPU Xeon at
/// 2.1 GHz, quiet phase), in seconds. It only sets the scale of
/// host-speed-corrected times: on the reference host at its usual
/// speed, corrected and wall times agree.
pub const PROBE_REFERENCE_S: f64 = 0.050;

/// Wall time of a fixed reference task that shares no code with AutoDC,
/// in seconds: an integer hash chain, an f32 FMA loop, and hashing and
/// sorting a fixed list of short strings, ~20 ms each on the reference
/// host. Its time moves only with the speed the host gives the process
/// at that moment, so a workload time divided by the probe times around
/// it tracks the code rather than the host. On a shared host, where
/// neighbours slow CPU-bound code ×1.0–1.8 in phases of seconds to
/// minutes, this is what keeps run-to-run figures comparable.
pub fn speed_probe() -> f64 {
    static WORDS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    let words = WORDS.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..40_000)
            .map(|_| {
                x = xorshift(x);
                format!("w{}", x % 20_000)
            })
            .collect()
    });
    let t0 = Instant::now();
    let mut x = 0x1234_5678_9abc_def0u64;
    for _ in 0..8_000_000 {
        x = xorshift(x);
    }
    std::hint::black_box(x);
    std::hint::black_box(fma_chains_scalar(600_000));
    let mut counts: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for w in words {
        *counts.entry(w.clone()).or_default() += 1;
    }
    let mut sorted: Vec<&String> = words.iter().collect();
    sorted.sort_unstable();
    std::hint::black_box((counts.len(), sorted.len()));
    t0.elapsed().as_secs_f64()
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
