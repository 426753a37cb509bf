//! The readiness vocabulary of [`crate::EpollPoller`].

/// Opaque per-registration identifier, echoed back in [`Event::token`] so
/// the serving front can map readiness back to its connection table
/// without trusting raw file-descriptor values (which the OS recycles).
pub type Token = u64;

/// What readiness a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor has bytes to read (or a peer hangup).
    pub readable: bool,
    /// Wake when the descriptor can accept writes without blocking.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read + write interest — a connection with queued response bytes.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification out of [`crate::EpollPoller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: Token,
    /// The descriptor is readable (data pending, or EOF/hangup — a read
    /// distinguishes them).
    pub readable: bool,
    /// The descriptor accepts writes without blocking.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; the connection should
    /// be torn down after draining whatever a final read returns.
    pub hangup: bool,
}
