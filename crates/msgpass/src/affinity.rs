//! Best-effort CPU-affinity pinning for scaling measurements.
//!
//! The threaded backend optionally pins rank threads to cores so
//! many-rank scaling rows measure placement-stable numbers instead of
//! scheduler roulette.
//! Pinning is strictly a hint: it can fail (restricted cpusets,
//! exotic platforms) and every caller ignores the result beyond
//! best-effort reporting — correctness never depends on it.
//!
//! Implemented as a raw `sched_setaffinity` syscall on x86-64 Linux
//! (the only platform this repo targets; no libc dependency), a no-op
//! returning `false` everywhere else — including under Miri, which
//! does not interpret inline assembly.

/// Pin the calling thread to `core` (taken modulo the number of
/// available cores). Returns whether the kernel accepted the mask.
pub fn pin_current_thread(core: usize) -> bool {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    pin_impl(core % cores)
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
fn pin_impl(core: usize) -> bool {
    // cpu_set_t-compatible mask: 1024 bits is the kernel's default
    // CPU_SETSIZE, plenty for any machine this runs on.
    let mut mask = [0u64; 16];
    mask[(core / 64) % 16] |= 1u64 << (core % 64);
    let ret: isize;
    // rcx/r11 are declared clobbered per the syscall ABI.
    // SAFETY: sched_setaffinity (syscall 203 on x86-64) with pid 0
    // applies to the calling thread; it only *reads* `size_of(mask)`
    // bytes from the live `mask` buffer and touches no other memory.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 203usize => ret,
            in("rdi") 0usize,
            in("rsi") core::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags),
        );
    }
    ret == 0
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
fn pin_impl(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_best_effort_and_survives_any_core_index() {
        // Whatever the platform answers, the call must not crash, and
        // out-of-range cores wrap instead of erroring.
        let a = pin_current_thread(0);
        let b = pin_current_thread(usize::MAX);
        // On x86-64 Linux both should succeed identically; elsewhere
        // both are false. Either way they agree.
        assert_eq!(a, b);
    }
}
