//! The machine, which is not a layer but moves every number: core
//! count, CPU model, toolchain, kernel, hypervisor steal, and a canary
//! that runs no code of the repo at all.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_with(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// What a row's meaning depends on. Printed with every run.
pub struct Machine {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub kernel: String,
}

impl Machine {
    pub fn probe() -> Machine {
        let unknown = || "unknown".to_string();
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(unknown, |s| s.trim().to_string());
        Machine {
            nproc: nproc(),
            cpu: first_line_with("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
            rustc,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        }
    }
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of
/// `/proc/stat`; zeros where there is no such file.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Share of all CPU time since `since` that the hypervisor gave to
/// someone else.
pub fn steal_frac(since: (u64, u64)) -> f64 {
    let now = cpu_jiffies();
    let total = now.1.saturating_sub(since.1);
    if total == 0 {
        return 0.0;
    }
    now.0.saturating_sub(since.0) as f64 / total as f64
}

/// Round trips of one canary run.
const CANARY_TRIPS: u32 = 20_000;

/// A two-thread atomic ping-pong: [`CANARY_TRIPS`] round trips through
/// one cache line, in milliseconds. It calls nothing in the repo, so
/// when it moves between two runs the machine moved, not the code.
/// On one core it degenerates into a yield loop and says so by being
/// slow.
pub fn canary_ms() -> f64 {
    let ball = AtomicU32::new(0);
    let wait_for = |want: u32| {
        let mut spins = 0u32;
        while ball.load(Ordering::Acquire) != want {
            spins += 1;
            if spins.is_multiple_of(1024) {
                std::thread::yield_now();
            }
            std::hint::spin_loop();
        }
    };
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..CANARY_TRIPS {
                wait_for(2 * i + 1);
                ball.store(2 * i + 2, Ordering::Release);
            }
        });
        for i in 0..CANARY_TRIPS {
            ball.store(2 * i + 1, Ordering::Release);
            wait_for(2 * i + 2);
        }
    });
    start.elapsed().as_secs_f64() * 1e3
}
