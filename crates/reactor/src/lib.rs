//! Zero-dependency readiness reactor for the emod serving front.
//!
//! The serving story in DESIGN.md §16 needs to multiplex thousands of
//! slow, mostly-idle client connections onto a handful of worker threads.
//! This crate provides the three building blocks that port carries no
//! third-party dependency for:
//!
//! - [`Poller`]: a minimal readiness-notification trait (register file
//!   descriptors with an interest set, block until some are ready),
//!   implemented on Linux by [`EpollPoller`] over raw `epoll(7)` syscalls
//!   declared `extern "C"` — the same zero-dependency pattern the serve
//!   crate already uses for `signal(2)`.
//! - [`Waker`]: a self-pipe (a nonblocking `UnixStream` pair) that lets
//!   worker threads interrupt a blocked [`Poller::poll`] call so request
//!   completions are written out without waiting for the next timeout.
//! - [`LineBuffer`] / [`WriteBuffer`]: incremental nonblocking codecs for
//!   the newline-delimited-JSON wire protocol — bytes arrive and leave in
//!   arbitrary fragments, lines are extracted (and length-capped) as they
//!   complete, and pending responses drain as the socket accepts them.
//!
//! The event loop itself lives in `emod-serve` (`reactor_front`); this
//! crate stays protocol-agnostic below the "lines in, bytes out" level so
//! it can be unit-tested with socket pairs.

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

mod buffer;
mod poller;
mod sys;
mod waker;

pub use buffer::{LineBuffer, LineError, WriteBuffer};
pub use poller::{Event, Interest, Poller, Token};
pub use sys::EpollPoller;
pub use waker::Waker;

/// Creates the platform's default [`Poller`].
///
/// # Errors
///
/// Fails when the platform has no readiness facility this crate knows
/// (non-Linux targets) or when the kernel refuses the epoll instance.
pub fn default_poller() -> std::io::Result<EpollPoller> {
    EpollPoller::new()
}
