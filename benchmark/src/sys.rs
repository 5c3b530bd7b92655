//! The few things std has no API for: a larger socket receive buffer,
//! CPU clocks, and the `/proc` files with memory, wake-up and UDP drop
//! counts. There is no `libc` crate offline, so the three libc calls
//! are declared here.

use std::fs;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const SOL_SOCKET: i32 = 1;
const SO_RCVBUF: i32 = 8;
const SO_RCVBUFFORCE: i32 = 33;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Asks for a receive buffer of `bytes` (the privileged variant first,
/// which ignores `rmem_max`) and returns what the kernel granted.
pub fn grow_rcvbuf(socket: &UdpSocket, bytes: u32) -> u32 {
    let fd = socket.as_raw_fd();
    let want = bytes.to_ne_bytes();
    let mut got = [0u8; 4];
    let mut len = 4u32;
    // SAFETY: `fd` is an open socket borrowed for the whole call; every
    // pointer refers to a live 4-byte buffer whose length is passed
    // alongside it, which is what these options read and write.
    unsafe {
        if setsockopt(fd, SOL_SOCKET, SO_RCVBUFFORCE, want.as_ptr(), 4) != 0 {
            setsockopt(fd, SOL_SOCKET, SO_RCVBUF, want.as_ptr(), 4);
        }
        getsockopt(fd, SOL_SOCKET, SO_RCVBUF, got.as_mut_ptr(), &mut len);
    }
    u32::from_ne_bytes(got)
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, correctly laid out timespec; both clock
    // ids exist on every Linux this benchmark runs on.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process (all threads), in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn status_kb(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
}

/// Voluntary context switches so far of every thread of this process
/// except the calling one: how often the server's threads went to sleep
/// waiting (for a datagram, a batch or a timer) and were woken again.
pub fn other_threads_wakeups() -> u64 {
    let own = fs::read_link("/proc/thread-self").expect("/proc/thread-self");
    let own = own.file_name().expect("task id").to_owned();
    fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(Result::ok)
        .filter(|task| task.file_name() != own)
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .filter_map(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

/// Resident set size now, in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// The `drops` column of `/proc/net/udp` for the IPv4 socket bound to
/// `port`: datagrams the kernel discarded because the receive buffer
/// was full.
pub fn udp_drops(port: u16) -> u64 {
    let table = fs::read_to_string("/proc/net/udp").expect("/proc/net/udp");
    let suffix = format!(":{port:04X}");
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            (cols.len() >= 13 && cols[1].ends_with(&suffix))
                .then(|| cols[12].parse::<u64>().ok())?
        })
        .sum()
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
