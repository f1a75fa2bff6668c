//! Runs one child process to completion and reports what it cost: wall
//! time, CPU time (`ru_utime + ru_stime`) and peak resident set.
//!
//! `std::process` reaps children with `waitpid`, which discards the
//! kernel's resource accounting, so the child is reaped here with
//! `wait4`. The workspace vendors no libc crate; like `bench::cputime`
//! the one syscall wrapper and its struct are declared by hand.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` from `<sys/resource.h>`: two timevals, then fourteen
/// longs of which only `ru_maxrss` (the first) is read here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    unused: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Exit code; `None` when a signal killed the child.
    pub exit_code: Option<i32>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub max_rss_kb: u64,
}

fn timeval_s(tv: &Timeval) -> f64 {
    tv.sec as f64 + tv.usec as f64 / 1e6
}

/// `WIFEXITED` / `WEXITSTATUS` of a wait status word.
fn exit_code_of(status: i32) -> Option<i32> {
    (status & 0x7f == 0).then_some((status >> 8) & 0xff)
}

/// Spawns `command` with stdin closed and stdout/stderr redirected to the
/// given files (so no pipe can fill up and stall the child), waits for it
/// and returns its accounting.
pub fn run(command: &mut Command, stdout: &Path, stderr: &Path) -> io::Result<Usage> {
    command
        .stdin(Stdio::null())
        .stdout(File::create(stdout)?)
        .stderr(File::create(stderr)?);
    let started = Instant::now();
    let child = command.spawn()?;
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid, exclusively borrowed and
        // laid out as the kernel's int and struct rusage on 64-bit Linux;
        // wait4 writes them and touches nothing else. `pid` is our own
        // unreaped child, so it cannot name another process.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    // `child` is already reaped; it has no Drop that waits or kills.
    drop(child);
    Ok(Usage {
        exit_code: exit_code_of(status),
        wall_s,
        cpu_s: timeval_s(&usage.utime) + timeval_s(&usage.stime),
        max_rss_kb: u64::try_from(usage.maxrss_kb).unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, tag: &str) -> Usage {
        let dir = std::env::temp_dir();
        let out = dir.join(format!("h2bench-child-{tag}-{}.out", std::process::id()));
        let err = dir.join(format!("h2bench-child-{tag}-{}.err", std::process::id()));
        let usage = run(Command::new("sh").args(["-c", script]), &out, &err).expect("sh runs");
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&err);
        usage
    }

    #[test]
    fn status_word_decoding() {
        assert_eq!(exit_code_of(0), Some(0));
        assert_eq!(exit_code_of(7 << 8), Some(7));
        assert_eq!(exit_code_of(9), None, "killed by SIGKILL");
        assert_eq!(exit_code_of(0x80 | 11), None, "SIGSEGV with core");
    }

    #[test]
    fn exit_code_comes_back() {
        assert_eq!(sh("exit 7", "code").exit_code, Some(7));
    }

    #[test]
    fn rusage_of_a_cpu_burning_child_is_plausible() {
        // A fixed loop, not a sleep: the child must *consume* CPU for the
        // utime/stime fields to be distinguishable from zeroed memory.
        let usage = sh("i=0; while [ $i -lt 300000 ]; do i=$((i+1)); done", "burn");
        assert_eq!(usage.exit_code, Some(0));
        assert!(usage.cpu_s > 0.01, "burned {} s of CPU", usage.cpu_s);
        assert!(
            usage.cpu_s < usage.wall_s * 1.5 + 0.05,
            "single-threaded child: cpu {} s vs wall {} s",
            usage.cpu_s,
            usage.wall_s
        );
        assert!(
            (256..4 * 1024 * 1024).contains(&usage.max_rss_kb),
            "a shell's peak RSS is megabytes, got {} KB",
            usage.max_rss_kb
        );
    }

    #[test]
    fn stdout_lands_in_the_file() {
        let dir = std::env::temp_dir();
        let out = dir.join(format!("h2bench-child-echo-{}.out", std::process::id()));
        let err = dir.join(format!("h2bench-child-echo-{}.err", std::process::id()));
        run(
            Command::new("sh").args(["-c", "echo hello; echo oops >&2"]),
            &out,
            &err,
        )
        .expect("sh runs");
        assert_eq!(
            std::fs::read_to_string(&out).expect("stdout file"),
            "hello\n"
        );
        assert_eq!(
            std::fs::read_to_string(&err).expect("stderr file"),
            "oops\n"
        );
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&err);
    }
}
