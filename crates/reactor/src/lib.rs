//! Zero-dependency readiness reactor for the emod serving front.
//!
//! The serving story in DESIGN.md §16 needs to multiplex thousands of
//! slow, mostly-idle client connections onto a handful of threads. This
//! crate provides the two building blocks that port carries no
//! third-party dependency for:
//!
//! - [`EpollPoller`]: Linux `epoll(7)` over raw syscalls declared
//!   `extern "C"` — the same zero-dependency pattern the serve crate
//!   already uses for `signal(2)`. Every registration is one-shot, so any
//!   number of threads can wait on one poller and each ready descriptor
//!   goes to exactly one of them until it is re-armed.
//! - [`LineBuffer`] / [`WriteBuffer`]: incremental nonblocking codecs for
//!   the newline-delimited-JSON wire protocol — bytes arrive and leave in
//!   arbitrary fragments, lines are extracted (and length-capped) as they
//!   complete, and pending responses drain as the socket accepts them.
//!
//! The serving threads live in `emod-serve` (`reactor_front`); this crate
//! stays protocol-agnostic below the "lines in, bytes out" level so it can
//! be unit-tested with socket pairs.

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

mod buffer;
mod poller;
mod sys;

pub use buffer::{LineBuffer, LineError, WriteBuffer};
pub use poller::{Event, Interest, Token};
pub use sys::EpollPoller;
