//! CPU clocks and resource usage of this process and of single threads,
//! read through the C library that `std` already links on Linux.

use std::os::unix::thread::{JoinHandleExt, RawPthread};
use std::thread::JoinHandle;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
type Rusage = [i64; 18];

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;
const RU_MAXRSS: usize = 4;
const RU_NVCSW: usize = 16;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: RawPthread, clock: *mut i32) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Reads `clock`; `None` when the kernel refuses, as it does for the
/// clock of a thread that has exited.
fn try_read_clock(clock: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

fn read_clock(clock: i32) -> u64 {
    try_read_clock(clock).unwrap_or_else(|| panic!("clock_gettime({clock}) failed"))
}

/// CPU time consumed by all threads of this process, ns.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPU clock of another thread. It can be read only while that
/// thread is running: once the thread has exited its clock is gone,
/// joined or not.
#[derive(Clone, Copy)]
pub struct ThreadClock(i32);

impl ThreadClock {
    /// The clock of the thread behind `handle`.
    pub fn of<T>(handle: &JoinHandle<T>) -> Self {
        let mut clock = 0i32;
        // SAFETY: the handle names a thread that has not been joined (we
        // borrow its `JoinHandle`), and `clock` is writable.
        let rc = unsafe { pthread_getcpuclockid(handle.as_pthread_t(), &mut clock) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed");
        Self(clock)
    }

    /// CPU time the thread has consumed so far, ns; `None` once the
    /// thread has exited.
    pub fn ns(self) -> Option<u64> {
        try_read_clock(self.0)
    }
}

/// Process-wide resource usage.
pub struct Usage {
    /// Peak resident set, KiB.
    pub max_rss_kib: i64,
    /// Voluntary context switches of all threads so far.
    pub voluntary_switches: i64,
}

/// Reads `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut ru: Rusage = [0; 18];
    // SAFETY: `ru` has the size and layout of `struct rusage` on 64-bit
    // Linux and is writable.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    Usage {
        max_rss_kib: ru[RU_MAXRSS],
        voluntary_switches: ru[RU_NVCSW],
    }
}
