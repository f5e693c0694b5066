//! Host metadata recorded with every result, and the process's peak
//! resident memory.

use megasw_sw::kernel::{self, KernelDispatch, KernelSelection};

pub struct Host {
    pub parallelism: usize,
    pub cpu_model: String,
    /// What `Auto` dispatch resolves to: an AVX2 figure is never compared
    /// with a scalar one.
    pub kernel: KernelSelection,
}

impl Host {
    pub fn probe() -> Host {
        let resolved = kernel::select(KernelDispatch::Auto)
            .unwrap_or_else(|_| kernel::scalar())
            .id();
        Host {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            kernel: KernelSelection {
                dispatch: KernelDispatch::Auto,
                resolved,
            },
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // The brand-string leaves are read only after leaf 0x8000_0000
    // reports them.
    let max_leaf = __cpuid(0x8000_0000).eax;
    if max_leaf < 0x8000_0004 {
        return "unknown x86-64".into();
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

/// Peak resident set size of this process so far, in MiB: the kernel's
/// `VmHWM` for this process image. (`getrusage` would not do: across
/// `exec` it keeps the launcher's peak, so a run started by `cargo run`
/// would report cargo's memory.) 0 where the figure is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
