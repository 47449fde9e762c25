//! Process-wide thread accounting shared by the single-test lifetime
//! binaries (`transport_lifetime.rs`, `compute_threads.rs`): how many
//! threads are alive, and how many were created between two probes.

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

/// The number of a freshly created thread. `ThreadId`s are handed out
/// in creation order, so two probes differ by one more than the threads
/// created between them.
pub fn probe() -> u64 {
    let id = std::thread::spawn(|| std::thread::current().id()).join().expect("probe thread");
    let text = format!("{id:?}");
    text.trim_start_matches("ThreadId(").trim_end_matches(')').parse().expect("a numeric ThreadId")
}
