//! The few operating-system facts the benchmark needs that `std` does
//! not expose: a nanosecond-resolution readiness wait, process CPU time
//! and peak resident memory. Linux only, like the rest of the stack.

use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Blocks until `fd` is readable (or writable, when `want_write`), or
/// `timeout` passes. `ppoll` takes a `timespec`, so the wait is not
/// rounded up to whole milliseconds the way `poll` and `epoll_wait` are;
/// an open-loop generator needs that to send on time.
pub fn wait_fd(fd: RawFd, want_write: bool, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the duration of the call; nfds is
    // 1, matching the single pollfd; a null sigmask leaves the signal
    // mask unchanged. Errors (EINTR) only end the wait early, which the
    // caller's loop tolerates.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Asks the kernel to wake this thread's timed waits within 1 µs of
/// their deadline instead of the default 50 µs slack, so an open-loop
/// sender is not late by design.
pub fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (nanoseconds)
    // and ignores the rest; it only changes this thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
    }
}

/// Raises this process's scheduling priority (nice -10) where allowed.
/// The generator is the measuring instrument: on a host with fewer cores
/// than runnable server threads, it should not wait behind them to send
/// a due request or to read a response. Without the privilege the call
/// fails and the generator runs at normal priority.
pub fn raise_priority() -> bool {
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: setpriority takes plain integers; `who = 0` names the
    // calling process, and the only effect is on its nice value.
    unsafe { setpriority(PRIO_PROCESS, 0, -10) == 0 }
}

/// CPU time (user + system, all threads) this process has used.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live `struct timespec` the call writes into, and
    // CLOCK_PROCESS_CPUTIME_ID is a valid clock on every Linux kernel.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0),
    )
}

/// Resets this process's peak resident set size to its current one, so
/// that [`peak_rss_bytes`] reads the peak since this call.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later).
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("stackbench: cannot reset the peak RSS through /proc/self/clear_refs: {e}");
        std::process::exit(1);
    }
}

/// Peak resident set size of this process, in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}
