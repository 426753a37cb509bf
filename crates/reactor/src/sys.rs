//! Platform readiness backends. Linux gets real `epoll(7)` via raw
//! `extern "C"` declarations (no libc crate — the workspace is
//! zero-dependency); other targets get a stub that fails at construction,
//! so `emod-serve` refuses to start there with an `Unsupported` error.

#[cfg(target_os = "linux")]
pub use linux::EpollPoller;

#[cfg(not(target_os = "linux"))]
pub use fallback::EpollPoller;

#[cfg(target_os = "linux")]
mod linux {
    use crate::poller::{Event, Interest, Poller, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::{Duration, Instant};

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLPRI: u32 = 0x002;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Kernel ABI for `struct epoll_event`. x86 packs it to avoid a
    /// 32/64-bit layout split; other architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// How many kernel events one `epoll_wait` call can deliver. Level
    /// triggering means anything beyond the batch is re-reported on the
    /// next poll, so this bounds per-wakeup work, not throughput.
    const EVENT_BATCH: usize = 256;

    /// `epoll(7)`-backed [`Poller`]. Level-triggered; one instance per
    /// event loop (it is `Send` but not meant to be shared).
    #[derive(Debug)]
    pub struct EpollPoller {
        epfd: RawFd,
        buf: Vec<u64>, // raw event storage, sized for EVENT_BATCH entries
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    impl EpollPoller {
        /// Creates a fresh epoll instance (close-on-exec).
        ///
        /// # Errors
        ///
        /// Propagates `epoll_create1` failure (fd limits).
        pub fn new() -> io::Result<EpollPoller> {
            // SAFETY: epoll_create1 takes a flags int and returns an fd or -1.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EpollPoller {
                epfd,
                buf: vec![0u64; EVENT_BATCH * 2],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            let evp = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut ev as *mut EpollEvent
            };
            // SAFETY: epfd and fd are live descriptors owned by the caller;
            // `ev` outlives the call (the kernel copies it synchronously).
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, evp) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Poller for EpollPoller {
        fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
        }

        fn poll(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let deadline = timeout.map(|t| Instant::now() + t);
            loop {
                // Round the remaining wait *up* to whole milliseconds so a
                // sub-millisecond remainder does not busy-spin at timeout 0.
                let wait_ms: i32 = match deadline {
                    None => -1,
                    Some(d) => {
                        let left = d.saturating_duration_since(Instant::now());
                        left.as_millis().min(i32::MAX as u128) as i32
                            + i32::from(left.subsec_nanos() % 1_000_000 != 0)
                    }
                };
                let ptr = self.buf.as_mut_ptr() as *mut EpollEvent;
                // SAFETY: `buf` holds EVENT_BATCH*2 u64s = EVENT_BATCH*16
                // bytes, enough for EVENT_BATCH epoll_event entries on every
                // architecture (12 bytes packed, 16 aligned).
                let n = unsafe { epoll_wait(self.epfd, ptr, EVENT_BATCH as i32, wait_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            return Ok(0);
                        }
                        continue;
                    }
                    return Err(err);
                }
                for i in 0..n as usize {
                    // SAFETY: the kernel wrote `n` valid entries at `ptr`.
                    let ev = unsafe { std::ptr::read_unaligned(ptr.add(i)) };
                    events.push(Event {
                        token: ev.data,
                        readable: ev.events & (EPOLLIN | EPOLLPRI | EPOLLRDHUP) != 0,
                        writable: ev.events & EPOLLOUT != 0,
                        hangup: ev.events & (EPOLLERR | EPOLLHUP) != 0,
                    });
                }
                return Ok(n as usize);
            }
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            // SAFETY: epfd came from epoll_create1 and is closed exactly once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod fallback {
    use crate::poller::{Event, Interest, Poller, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// Stub poller for targets without an epoll backend. Construction
    /// fails with `Unsupported`, so the server's startup fails with that
    /// error instead of silently not polling.
    #[derive(Debug)]
    pub struct EpollPoller {
        _private: (),
    }

    impl EpollPoller {
        /// Always fails on this target.
        ///
        /// # Errors
        ///
        /// Always returns [`io::ErrorKind::Unsupported`].
        pub fn new() -> io::Result<EpollPoller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "emod-reactor: no readiness backend on this platform (Linux only)",
            ))
        }
    }

    impl Poller for EpollPoller {
        fn register(&mut self, _fd: RawFd, _token: Token, _interest: Interest) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        fn reregister(&mut self, _fd: RawFd, _token: Token, _interest: Interest) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        fn deregister(&mut self, _fd: RawFd) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        fn poll(
            &mut self,
            _events: &mut Vec<Event>,
            _timeout: Option<Duration>,
        ) -> io::Result<usize> {
            unreachable!("stub poller cannot be constructed")
        }
    }
}
