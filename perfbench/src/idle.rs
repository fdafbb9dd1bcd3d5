//! Keeps the host's CPUs from idling while set-up and load run.
//!
//! On a virtual machine a CPU that goes idle halts, and waking it (an
//! interrupt the hypervisor must deliver and schedule) can take
//! hundreds of microseconds when the host is busy. A loopback request
//! crosses four threads, so every read pays several such wake-ups, and
//! the figures then track the host's load rather than the program:
//! on a 2-CPU VM, one-second windows of `hot_read` swung between 3k
//! and 14k reads/s. One busy loop per CPU at the lowest scheduling
//! priority (`SCHED_IDLE`, else nice 19) keeps every CPU awake yet
//! yields to any runnable thread of the program at once, taking well
//! under 1% of the CPU from it.
//!
//! A poller is this executable started with `--idle-poll <pid>`; it
//! exits by itself within milliseconds once process `<pid>` is gone,
//! so a killed benchmark leaves no poller behind.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The running pollers; dropping this stops and reaps them.
pub struct IdlePollers(Vec<Child>);

impl IdlePollers {
    /// Starts one poller per CPU. Returns how they are scheduled, for
    /// the run's metadata.
    pub fn start() -> (IdlePollers, &'static str) {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let Ok(exe) = std::env::current_exe() else { return (IdlePollers(Vec::new()), "none") };
        let pid = std::process::id().to_string();
        let launchers: [(&str, &[&str], &'static str); 2] =
            [("chrt", &["--idle", "0"], "SCHED_IDLE"), ("nice", &["-n", "19"], "nice 19")];
        for (program, args, how) in launchers {
            let spawn = || {
                Command::new(program)
                    .args(args)
                    .arg(&exe)
                    .args(["--idle-poll", &pid])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
            };
            let mut started = IdlePollers(Vec::with_capacity(cpus));
            while started.0.len() < cpus {
                match spawn() {
                    Ok(child) => started.0.push(child),
                    // Dropping the partial set stops what did start.
                    Err(_) => break,
                }
            }
            // A launcher that started but could not set the policy has
            // already exited; fall back to the next one.
            std::thread::sleep(Duration::from_millis(50));
            let running = started.0.iter_mut().all(|c| matches!(c.try_wait(), Ok(None)));
            if started.0.len() == cpus && running {
                return (started, how);
            }
        }
        (IdlePollers(Vec::new()), "none")
    }
}

impl Drop for IdlePollers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The poller's body: spin until the benchmark process `parent` exits.
pub fn poll_until_parent_exits(parent: u32) {
    while std::os::unix::process::parent_id() == parent {
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(5) {
            std::hint::spin_loop();
        }
    }
}
