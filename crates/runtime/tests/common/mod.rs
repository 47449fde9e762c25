//! Process-wide thread accounting shared by the single-test lifetime
//! binaries (`transport_lifetime.rs`, `compute_threads.rs`).

use std::time::{Duration, Instant};

/// Threads in this process, where the platform says (`/proc`).
pub fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
}

/// The thread count once it stops exceeding `expected`: scoped threads
/// have been joined by the time their scope returns, but the kernel may
/// still be reaping them. A leaked thread never settles.
pub fn settled(expected: Option<usize>) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() > expected && Instant::now() < deadline {
        std::thread::yield_now();
    }
    threads()
}
