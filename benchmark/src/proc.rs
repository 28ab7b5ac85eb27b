//! Running one child process and measuring it: wall time from spawn to
//! exit, and the child's own peak resident set, which only `wait4`
//! reports per child. A watchdog thread kills the running child once the
//! run's deadline passes, so a hung program cannot hold the benchmark
//! past its time limit.

use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads per-child resource usage through Linux wait4/waitid");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    _utime: [i64; 2],
    _stime: [i64; 2],
    maxrss: i64,
    _rest: [i64; 13],
}

/// `siginfo_t` is 128 bytes on Linux; only its size matters here.
#[repr(C)]
struct SigInfo([u64; 16]);

const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn waitid(idtype: i32, id: u32, infop: *mut SigInfo, options: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// What one finished child did.
#[derive(Debug)]
pub struct Exit {
    /// The raw wait status; 0 means it exited with code 0.
    pub status: i32,
    /// Seconds from spawn until it exited.
    pub wall_s: f64,
    /// Its peak resident set, KiB.
    pub maxrss_kib: i64,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
}

impl Exit {
    /// Whether the child exited with code 0.
    pub fn success(&self) -> bool {
        self.status == 0
    }
}

#[derive(Default)]
struct Watch {
    deadline: Option<Instant>,
    child: Option<u32>,
    stop: bool,
}

type Shared = Arc<(Mutex<Watch>, Condvar)>;

fn lock(shared: &Shared) -> MutexGuard<'_, Watch> {
    shared
        .0
        .lock()
        .expect("watchdog state is only held for plain field updates")
}

/// Runs children one at a time under a deadline.
pub struct Runner {
    shared: Shared,
    watchdog: Option<JoinHandle<()>>,
}

impl Runner {
    /// A runner with no deadline armed.
    pub fn new() -> Runner {
        let shared: Shared = Arc::default();
        let watched = Arc::clone(&shared);
        let watchdog = std::thread::spawn(move || {
            let mut w = lock(&watched);
            loop {
                if w.stop {
                    return;
                }
                match w.deadline {
                    Some(d) if Instant::now() >= d => {
                        if let Some(pid) = w.child.take() {
                            // SAFETY: plain syscall. The child has not been
                            // reaped (it is unregistered only after a
                            // non-reaping `waitid`), so `pid` still names
                            // it, possibly as a zombie.
                            unsafe { kill(pid as i32, SIGKILL) };
                        }
                        w = watched.1.wait(w).expect("watchdog lock");
                    }
                    Some(d) => {
                        let left = d.saturating_duration_since(Instant::now());
                        w = watched.1.wait_timeout(w, left).expect("watchdog lock").0;
                    }
                    None => w = watched.1.wait(w).expect("watchdog lock"),
                }
            }
        });
        Runner {
            shared,
            watchdog: Some(watchdog),
        }
    }

    /// Kill any child still running at `deadline`; `None` disarms.
    pub fn arm(&self, deadline: Option<Instant>) {
        lock(&self.shared).deadline = deadline;
        self.shared.1.notify_all();
    }

    /// Whether the armed deadline has passed.
    pub fn expired(&self) -> bool {
        lock(&self.shared)
            .deadline
            .is_some_and(|d| Instant::now() >= d)
    }

    /// Spawn `cmd` with stdout captured, wait for it and measure it.
    /// The caller sets stdin and stderr.
    pub fn run(&self, cmd: &mut Command) -> Result<Exit, String> {
        if self.expired() {
            return Err("deadline passed before the next run".into());
        }
        let start = Instant::now();
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
        let pid = child.id();
        lock(&self.shared).child = Some(pid);
        self.shared.1.notify_all();

        let mut stdout = Vec::new();
        let read = child
            .stdout
            .take()
            .expect("stdout was piped")
            .read_to_end(&mut stdout);

        // Wait without reaping first, then unregister, then reap: the
        // watchdog can only ever signal a pid that is still ours.
        let mut info = SigInfo([0; 16]);
        // SAFETY: `info` is a writable buffer of siginfo_t's size and
        // `pid` is our unreaped child.
        while unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) } != 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(format!("waitid({pid}): {err}"));
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        lock(&self.shared).child = None;
        let mut status = 0;
        let mut usage = Rusage {
            _utime: [0; 2],
            _stime: [0; 2],
            maxrss: 0,
            _rest: [0; 13],
        };
        // SAFETY: `status` and `usage` are writable and correctly laid
        // out; the child has exited, so this returns at once.
        if unsafe { wait4(pid as i32, &mut status, 0, &mut usage) } != pid as i32 {
            return Err(format!("wait4({pid}): {}", std::io::Error::last_os_error()));
        }
        read.map_err(|e| format!("reading stdout of {pid}: {e}"))?;
        Ok(Exit {
            status,
            wall_s,
            maxrss_kib: usage.maxrss,
            stdout,
        })
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl Drop for Runner {
    fn drop(&mut self) {
        if let Ok(mut w) = self.shared.0.lock() {
            w.stop = true;
        }
        self.shared.1.notify_all();
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn measures_a_child_and_captures_stdout() {
        let runner = Runner::new();
        let exit = runner.run(Command::new("echo").arg("hello")).unwrap();
        assert!(exit.success());
        assert_eq!(exit.stdout, b"hello\n");
        assert!(exit.maxrss_kib > 0);
        assert!(exit.wall_s > 0.0);
        let exit = runner.run(&mut Command::new("false")).unwrap();
        assert!(!exit.success());
    }

    #[test]
    fn watchdog_kills_a_child_past_the_deadline() {
        let runner = Runner::new();
        runner.arm(Some(Instant::now() + Duration::from_millis(100)));
        let exit = runner.run(Command::new("sleep").arg("30")).unwrap();
        assert!(!exit.success());
        assert!(exit.wall_s < 10.0);
        assert!(runner.run(&mut Command::new("true")).is_err());
    }
}
