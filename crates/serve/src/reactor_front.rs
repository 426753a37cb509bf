//! The server's connection front (DESIGN.md §16): `--workers` threads
//! that share one one-shot epoll poller.
//!
//! The nonblocking listener and every client socket are registered with
//! one [`emod_reactor::EpollPoller`] (epoll; Linux only), and all the
//! threads wait on it. Its registrations are one-shot, so a ready socket
//! goes to exactly one thread, which owns the connection for one pass: it
//! takes the connection out of the shared table, reads what the socket
//! holds (at most 256 KiB), runs each complete line through the request
//! pipeline (`handle_request_full` — fault probes, deadline, quality
//! scoring, access log) in order on its own stack, writes each reply from
//! the connection's [`emod_reactor::WriteBuffer`], then parks the
//! connection and re-arms it. Replies therefore leave in request order and
//! whole, and a slow request holds only its own connection.
//!
//! No thread parks on an idle connection, so thousands of mostly-idle
//! clients cost one registration each; `--workers` bounds running
//! requests, not connections. A request that arrives while every thread
//! is busy waits unread in its socket. A connection stops being read while
//! 1 MiB of its replies wait for the peer to read them, so a client that
//! pipelines without reading cannot grow the server.

use crate::server::{handle_request_full, too_large_response, Server, ServerState, MAX_LINE_BYTES};
use emod_reactor::{EpollPoller, Interest, LineBuffer, LineError, Token, WriteBuffer};
use emod_telemetry::{self as telemetry, lock_or_recover};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Token of the accept socket; connections count up from 1.
const LISTENER_TOKEN: Token = 0;

/// Bytes one pass reads from a connection before re-arming it, so one
/// chatty socket cannot keep a thread from the others.
const READ_BUDGET: usize = 256 * 1024;

/// Unsent reply bytes at which a connection stops being read, and its
/// buffered lines stop being answered, until the peer reads.
const MAX_UNSENT: usize = 1 << 20;

/// How long a waiting thread sleeps before it checks for shutdown.
const POLL: Duration = Duration::from_millis(20);

/// How long the shutdown drain keeps flushing unsent replies.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// One client connection: in the shared table while armed, on the stack
/// of the thread serving it otherwise.
struct Conn {
    stream: TcpStream,
    conn_id: String,
    lines: LineBuffer,
    out: WriteBuffer,
    /// When the last bytes were read: latency and deadline start here.
    read_at: Instant,
    requests: u64,
    /// Peer stopped sending (EOF) — tear down once replies drain.
    eof: bool,
    /// Close once replies drain (shutdown/too-large).
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, conn_id: String) -> Conn {
        Conn {
            stream,
            conn_id,
            lines: LineBuffer::new(MAX_LINE_BYTES as usize),
            out: WriteBuffer::new(),
            read_at: Instant::now(),
            requests: 0,
            eof: false,
            closing: false,
        }
    }

    fn interest(&self) -> Interest {
        Interest {
            readable: !self.eof && !self.closing && self.out.len() < MAX_UNSENT,
            writable: !self.out.is_empty(),
        }
    }

    /// One pass: flushes what is unsent, then alternates answering the
    /// buffered lines with reading more, until the socket is drained, the
    /// read budget is spent or the unsent replies reach [`MAX_UNSENT`].
    /// Returns `false` once the connection is finished (closed cleanly or
    /// dead) and should be dropped.
    fn serve(&mut self, state: &ServerState) -> bool {
        if self.out.flush_to(&mut self.stream).is_err() {
            return false;
        }
        let mut budget = READ_BUDGET;
        loop {
            while !self.closing && self.out.len() < MAX_UNSENT {
                let sent = match self.lines.next_line() {
                    Ok(Some(line)) => self.answer(state, &line),
                    Ok(None) => break,
                    Err(LineError::TooLong { buffered }) => {
                        telemetry::counter_add("serve.requests.too_large", 1);
                        telemetry::event(
                            "serve",
                            "request_too_large",
                            &[
                                ("conn", self.conn_id.as_str().into()),
                                ("bytes", buffered.into()),
                            ],
                        );
                        self.closing = true;
                        self.send(&too_large_response().to_string())
                    }
                };
                if !sent {
                    return false;
                }
            }
            if self.closing || self.eof || budget == 0 || self.out.len() >= MAX_UNSENT {
                break;
            }
            match self.lines.fill_from(&mut self.stream) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    self.read_at = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        // Every line read before EOF or a closing reply is answered by now.
        !((self.closing || self.eof) && self.out.is_empty())
    }

    /// Runs one request line through the pipeline and sends its reply.
    /// Returns `false` when the socket failed.
    fn answer(&mut self, state: &ServerState, line: &[u8]) -> bool {
        let request = String::from_utf8_lossy(line);
        let request = request.trim();
        if request.is_empty() {
            return true;
        }
        // The wait behind earlier lines of the same read.
        let queue_wait_ms = self.read_at.elapsed().as_secs_f64() * 1e3;
        telemetry::observe("serve.queue_wait_ms", queue_wait_ms);
        let (_, reply, close) =
            handle_request_full(state, &self.conn_id, request, queue_wait_ms, self.read_at);
        self.requests += 1;
        // Lines after a closing reply go unanswered.
        self.closing = close;
        self.send(&reply)
    }

    fn send(&mut self, reply: &str) -> bool {
        self.out.push(reply.as_bytes());
        self.out.push(b"\n");
        self.out.flush_to(&mut self.stream).is_ok()
    }
}

/// [`EpollPoller::register`] or [`EpollPoller::reregister`].
type Arm = fn(&EpollPoller, RawFd, Token, Interest) -> io::Result<()>;

/// What the serving threads share.
struct Front {
    server: Server,
    state: Arc<ServerState>,
    poller: EpollPoller,
    /// Every open connection that no thread is serving, by token.
    conns: Mutex<HashMap<Token, Conn>>,
    next_token: AtomicU64,
    /// Open connections, served or parked (the connections gauge).
    open: AtomicU64,
    /// The first fatal accept or wait error; it shuts the server down.
    fatal: Mutex<Option<io::Error>>,
}

impl Front {
    /// One thread's loop: take a ready socket, serve it, re-arm it.
    fn run_thread(&self) {
        while !self.state.shutting_down() {
            match self.poller.wait(Some(POLL)) {
                Ok(None) => {}
                Ok(Some(ev)) if ev.token == LISTENER_TOKEN => {
                    if let Err(e) = self.accept_all() {
                        self.fail(e);
                    }
                }
                Ok(Some(ev)) => self.serve_conn(ev.token),
                Err(e) => self.fail(e),
            }
        }
    }

    fn fail(&self, e: io::Error) {
        lock_or_recover(&self.fatal).get_or_insert(e);
        self.server.shutdown.store(true, Ordering::SeqCst);
    }

    /// Accepts every pending connection, then re-arms the listener.
    fn accept_all(&self) -> io::Result<()> {
        loop {
            match self.server.listener.accept() {
                Ok((stream, peer)) => self.open(stream, peer),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.poller.reregister(
            self.server.listener.as_raw_fd(),
            LISTENER_TOKEN,
            Interest::READ,
        )
    }

    fn open(&self, stream: TcpStream, peer: SocketAddr) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        telemetry::counter_add("serve.connections", 1);
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let conn_id = telemetry::TraceContext::fresh().trace_hex();
        telemetry::event(
            "serve",
            "conn_open",
            &[
                ("conn", conn_id.as_str().into()),
                ("peer", peer.to_string().as_str().into()),
            ],
        );
        let open = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        telemetry::gauge_set("serve.reactor.connections", open as f64);
        self.park(token, Conn::new(stream, conn_id), EpollPoller::register);
    }

    /// Serves the connection behind `token` for one pass, then parks and
    /// re-arms it, or closes it when it is finished.
    fn serve_conn(&self, token: Token) {
        let Some(mut conn) = lock_or_recover(&self.conns).remove(&token) else {
            return;
        };
        if conn.serve(&self.state) {
            self.park(token, conn, EpollPoller::reregister);
        } else {
            self.close(conn);
        }
    }

    /// Parks `conn` in the table, then arms it with `arm` (register or
    /// reregister). The order matters: once armed, its event may go to
    /// another thread at once, and must find it in the table. A connection
    /// that cannot be armed is closed.
    fn park(&self, token: Token, conn: Conn, arm: Arm) {
        let (fd, interest) = (conn.stream.as_raw_fd(), conn.interest());
        lock_or_recover(&self.conns).insert(token, conn);
        if arm(&self.poller, fd, token, interest).is_err() {
            let conn = lock_or_recover(&self.conns).remove(&token);
            if let Some(conn) = conn {
                self.close(conn);
            }
        }
    }

    fn close(&self, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        telemetry::event(
            "serve",
            "conn_close",
            &[
                ("conn", conn.conn_id.as_str().into()),
                ("requests", conn.requests.into()),
            ],
        );
        let open = self.open.fetch_sub(1, Ordering::Relaxed) - 1;
        telemetry::gauge_set("serve.reactor.connections", open as f64);
    }
}

/// Serves until shutdown. Called by [`Server::run`].
///
/// # Errors
///
/// Propagates poller construction/registration failures (including
/// `Unsupported` on non-Linux targets, where the server cannot start),
/// thread spawn failures, and fatal accept or wait errors, which shut the
/// server down like the `shutdown` command does.
pub(crate) fn run(server: Server, state: Arc<ServerState>) -> io::Result<()> {
    let poller = EpollPoller::new()?;
    server.listener.set_nonblocking(true)?;
    poller.register(server.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    telemetry::gauge_set("serve.reactor.workers", server.workers as f64);
    let front = Front {
        server,
        state,
        poller,
        conns: Mutex::new(HashMap::new()),
        next_token: AtomicU64::new(LISTENER_TOKEN + 1),
        open: AtomicU64::new(0),
        fatal: Mutex::new(None),
    };
    thread::scope(|s| {
        for i in 0..front.server.workers {
            let spawned = thread::Builder::new()
                .name(format!("emod-serve-{}", i))
                .spawn_scoped(s, || front.run_thread());
            if let Err(e) = spawned {
                front.fail(e);
                break;
            }
        }
    });
    front.server.shutdown.store(true, Ordering::SeqCst);

    // Drain: each thread finished its pass and parked its connection, so
    // every connection is in the table. Flush unsent replies for a bounded
    // grace, then close everything.
    let _ = front.poller.deregister(front.server.listener.as_raw_fd());
    let mut conns: Vec<Conn> = lock_or_recover(&front.conns)
        .drain()
        .map(|(_, conn)| conn)
        .collect();
    let deadline = Instant::now() + DRAIN_GRACE;
    while Instant::now() < deadline {
        let mut pending = 0;
        for c in &mut conns {
            pending += usize::from(matches!(c.out.flush_to(&mut c.stream), Ok(false)));
        }
        if pending == 0 {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    for conn in conns {
        front.close(conn);
    }
    let fatal = lock_or_recover(&front.fatal).take();
    fatal.map_or(Ok(()), Err)
}
