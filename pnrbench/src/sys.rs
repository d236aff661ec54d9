//! The two Linux calls the serving client needs that `std` does not
//! offer: acknowledging replies at once, and keeping the client and the
//! daemon on separate CPUs.

use std::net::TcpStream;
use std::os::fd::AsRawFd;

const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;
/// `cpu_set_t` holds 1024 bits.
const MASK_WORDS: usize = 16;

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const std::ffi::c_void, len: u32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Acknowledges received data now rather than on the delayed-ACK timer.
/// The daemon does not set `TCP_NODELAY`, so each reply waits for the
/// ACK of the one before; left to delayed ACKs, a run can settle into a
/// state where every reply waits for the client's next request. Linux
/// clears the flag again by itself, so it is set after every read.
pub fn quick_ack(stream: &TcpStream) {
    let one: i32 = 1;
    // SAFETY: the descriptor belongs to `stream`, which outlives the
    // call; `value` points to a live i32 and `len` is its size. A failure
    // only leaves delayed ACKs on, so the result is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&one as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// The CPUs this thread may run on.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Restricts the calling thread — and every thread or process it starts
/// from now on — to `cpus`.
pub fn pin_this_thread(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return Err(format!("cpu {cpu} is beyond the affinity mask"));
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips_through_the_affinity_mask() {
        let all = allowed_cpus().unwrap();
        assert!(!all.is_empty());
        // on a fresh thread, so the test runner's threads keep their mask
        std::thread::spawn(move || {
            pin_this_thread(&all[..1]).unwrap();
            assert_eq!(allowed_cpus().unwrap(), &all[..1]);
        })
        .join()
        .unwrap();
    }
}
