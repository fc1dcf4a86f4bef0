//! The three system calls the benchmark needs that `std` does not offer: a
//! clock that several processes can compare readings of, a signal to a
//! whole process group, and a way not to outlive the parent process.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Stops every process of a group (cannot be caught or ignored).
pub const SIGSTOP: i32 = 19;
/// Resumes a stopped group.
pub const SIGCONT: i32 = 18;
pub const SIGKILL: i32 = 9;

const PR_SET_PDEATHSIG: i32 = 1;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Have the kernel kill this process when the thread that spawned it ends.
/// The driver stops its rounds with `SIGSTOP`; should the driver itself be
/// killed, a stopped round would otherwise sit there for ever, and so would
/// its ranks. Rounds are spawned by the driver's main thread and ranks by
/// the round's, both of which wait for them.
pub fn die_with_parent() {
    // SAFETY: `PR_SET_PDEATHSIG` takes the signal number as an unsigned
    // long and touches no memory of this process.
    unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL as std::ffi::c_ulong) };
}

fn read_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "both clocks are always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds on `CLOCK_MONOTONIC`: the same clock in the driver, the round
/// process and the rank processes, which `std::time::Instant` reads too but
/// will not show.
pub fn now() -> f64 {
    read_clock(CLOCK_MONOTONIC)
}

/// CPU seconds this process has used so far, all threads, exited ones too.
pub fn process_cpu_s() -> f64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Send `signal` to every process of the group led by `leader`. Fails only
/// when the group has no process left.
pub fn signal_group(leader: u32, signal: i32) -> bool {
    let Ok(pid) = i32::try_from(leader) else {
        return false;
    };
    // SAFETY: `kill` takes two integers and touches no memory of this
    // process; a negative pid addresses the process group.
    unsafe { kill(-pid, signal) == 0 }
}
