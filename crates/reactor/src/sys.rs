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
    use crate::poller::{Event, Interest, Token};
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
    const EPOLLONESHOT: u32 = 1 << 30;

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

    /// An `epoll(7)` instance whose registrations are all one-shot
    /// (`EPOLLONESHOT`).
    ///
    /// Once [`EpollPoller::wait`] hands out an event for a descriptor, that
    /// descriptor reports nothing more until [`EpollPoller::reregister`]
    /// arms it again. Threads that share one poller therefore never get
    /// the same descriptor at once, and the thread holding it re-arms it
    /// when done. Readiness stays level-triggered: a descriptor that is
    /// still ready when re-armed reports again at once, so no edge is lost.
    #[derive(Debug)]
    pub struct EpollPoller {
        epfd: RawFd,
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLONESHOT;
        if interest.readable {
            bits |= EPOLLIN | EPOLLRDHUP;
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
            Ok(EpollPoller { epfd })
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

        /// Starts watching `fd` under `token` with the given interest,
        /// armed for one event.
        ///
        /// # Errors
        ///
        /// Propagates the OS registration failure (bad fd, duplicate, limits).
        pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Sets the interest of an already-registered descriptor and arms
        /// it for one more event.
        ///
        /// # Errors
        ///
        /// Propagates the OS failure (e.g. the fd was never registered).
        pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Stops watching `fd`.
        ///
        /// # Errors
        ///
        /// Propagates the OS failure; callers tearing a connection down may
        /// ignore it (closing the fd deregisters implicitly).
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
        }

        /// Blocks until one armed descriptor is ready or the timeout
        /// elapses (`None` blocks indefinitely), and hands out that one
        /// event, disarming its descriptor. `Ok(None)` means the timeout
        /// elapsed. `EINTR` is retried internally against the same
        /// deadline. Any number of threads may wait at once; each event
        /// goes to one of them.
        ///
        /// # Errors
        ///
        /// Propagates OS wait failures other than interruption.
        pub fn wait(&self, timeout: Option<Duration>) -> io::Result<Option<Event>> {
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
                let mut ev = EpollEvent { events: 0, data: 0 };
                // SAFETY: `ev` is one writable epoll_event and maxevents is 1,
                // so the kernel writes at most that entry.
                let n = unsafe { epoll_wait(self.epfd, &mut ev, 1, wait_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            return Ok(None);
                        }
                        continue;
                    }
                    return Err(err);
                }
                if n == 0 {
                    return Ok(None);
                }
                let bits = ev.events;
                return Ok(Some(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLPRI | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                }));
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
    use crate::poller::{Event, Interest, Token};
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

        /// Unreachable: the stub cannot be constructed.
        pub fn register(&self, _fd: RawFd, _token: Token, _interest: Interest) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        /// Unreachable: the stub cannot be constructed.
        pub fn reregister(&self, _fd: RawFd, _token: Token, _interest: Interest) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        /// Unreachable: the stub cannot be constructed.
        pub fn deregister(&self, _fd: RawFd) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        /// Unreachable: the stub cannot be constructed.
        pub fn wait(&self, _timeout: Option<Duration>) -> io::Result<Option<Event>> {
            unreachable!("stub poller cannot be constructed")
        }
    }
}
