//! The server's connection front: one epoll event loop (DESIGN.md §16).
//!
//! One event-loop thread owns every connection: a nonblocking listener
//! and all client sockets are registered with an [`emod_reactor::Poller`]
//! (epoll; Linux only), incoming bytes are decoded into request lines by
//! [`emod_reactor::LineBuffer`], and complete requests are dispatched
//! over an mpsc channel to the server's `--workers` handler threads,
//! which run the request pipeline (`handle_request_full` — fault probes,
//! deadline, quality scoring, access log). Completed responses flow back
//! through a shared completion queue, a [`emod_reactor::Waker`] interrupts
//! the poll, and the event loop writes each connection's responses out
//! **in request order** (a per-connection sequence number reorders
//! whatever the workers finished first) from a per-connection
//! [`emod_reactor::WriteBuffer`], so a response line reaches the socket
//! whole, not token by token.
//!
//! Because no thread ever parks on a connection, thousands of mostly-idle
//! clients cost one registration each; `--workers` bounds running
//! requests, not concurrent connections. Requests read while every
//! handler is busy wait in the dispatch channel, and that wait shows as
//! `serve.queue_wait_ms` and `serve.queue_depth`.

use crate::json::Json;
use crate::server::{handle_request_full, Server, ServerState, MAX_LINE_BYTES};
use emod_reactor::{Interest, LineBuffer, Poller, Token, Waker, WriteBuffer};
use emod_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Poller token of the accept socket.
const LISTENER_TOKEN: Token = 0;
/// Poller token of the completion waker.
const WAKER_TOKEN: Token = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: Token = 2;

/// Upper bound on requests one connection may have in flight before the
/// event loop stops reading from it (resumes at half), so a pipelining
/// client cannot queue unbounded work.
const MAX_PIPELINE: u64 = 128;

/// Poll timeout: how often the loop checks for shutdown when idle.
const POLL_MS: u64 = 20;

/// How long the shutdown drain waits for in-flight requests and queued
/// response bytes before abandoning them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// One request line dispatched to a handler thread.
struct Job {
    token: Token,
    seq: u64,
    conn_id: String,
    line: String,
    /// When the event loop read the line: latency and deadline start here.
    arrived: Instant,
}

/// A finished response headed back to the event loop.
struct Done {
    token: Token,
    seq: u64,
    /// The response line, newline included.
    bytes: Vec<u8>,
    close: bool,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// The poller token this connection is registered under.
    token: Token,
    conn_id: String,
    lines: LineBuffer,
    out: WriteBuffer,
    /// Completed responses waiting for their turn (responses are written
    /// strictly in request order even when workers finish out of order).
    ready: BTreeMap<u64, (Vec<u8>, bool)>,
    next_seq: u64,
    next_write: u64,
    inflight: u64,
    requests: u64,
    /// Peer stopped sending (EOF) — tear down once responses drain.
    eof: bool,
    /// Close after the write buffer drains (shutdown/too-large/EOF).
    closing: bool,
    /// Reading paused by the MAX_PIPELINE backpressure bound.
    paused: bool,
    /// Current registration includes writable interest.
    wants_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: Token, conn_id: String) -> Conn {
        Conn {
            stream,
            token,
            conn_id,
            lines: LineBuffer::new(MAX_LINE_BYTES as usize),
            out: WriteBuffer::new(),
            ready: BTreeMap::new(),
            next_seq: 0,
            next_write: 0,
            inflight: 0,
            requests: 0,
            eof: false,
            closing: false,
            paused: false,
            wants_write: false,
        }
    }

    fn interest(&self) -> Interest {
        Interest {
            readable: !self.paused && !self.eof,
            writable: self.wants_write,
        }
    }
}

/// Runs one request on a handler thread.
fn run_job(state: &ServerState, job: Job) -> Done {
    let queue_wait_ms = job.arrived.elapsed().as_secs_f64() * 1e3;
    telemetry::observe("serve.queue_wait_ms", queue_wait_ms);
    let (resp, close) =
        handle_request_full(state, &job.conn_id, &job.line, queue_wait_ms, job.arrived);
    Done {
        token: job.token,
        seq: job.seq,
        bytes: response_bytes(&resp),
        close,
    }
}

fn response_bytes(resp: &Json) -> Vec<u8> {
    let mut bytes = resp.to_string().into_bytes();
    bytes.push(b'\n');
    bytes
}

fn worker_loop(
    rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
    state: &ServerState,
    done: &Arc<Mutex<Vec<Done>>>,
    waker: &Waker,
) {
    loop {
        let next = {
            let guard = telemetry::lock_or_recover(rx);
            guard.recv_timeout(Duration::from_millis(100))
        };
        match next {
            Ok(job) => {
                let finished = run_job(state, job);
                telemetry::lock_or_recover(done).push(finished);
                waker.wake();
            }
            // A drain keeps consuming: queued jobs still get their refusal
            // responses. Workers exit when the event loop drops the sender.
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Numbers one complete request line and dispatches it to the workers.
fn dispatch_line(tx: &mpsc::Sender<Job>, conn: &mut Conn, line: String) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    conn.inflight += 1;
    conn.requests += 1;
    let _ = tx.send(Job {
        token: conn.token,
        seq,
        conn_id: conn.conn_id.clone(),
        line,
        arrived: Instant::now(),
    });
}

/// Reads whatever the socket holds (bounded per wakeup), extracts
/// complete lines, and dispatches them. Returns `false` when the
/// connection died mid-read.
fn read_and_dispatch(poller: &mut impl Poller, tx: &mpsc::Sender<Job>, conn: &mut Conn) -> bool {
    // Bound bytes consumed per wakeup: level-triggered polling re-reports
    // a still-readable socket, so fairness across connections costs
    // nothing but another loop iteration.
    let mut budget: usize = 256 * 1024;
    while budget > 0 && !conn.eof {
        match conn.lines.fill_from(&mut conn.stream) {
            Ok(0) => conn.eof = true,
            Ok(n) => budget = budget.saturating_sub(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    extract_lines(poller, tx, conn)
}

/// Pulls complete lines out of the connection's read buffer, honoring the
/// pipeline bound. Also called on unpause (buffered lines, no new bytes).
fn extract_lines(poller: &mut impl Poller, tx: &mpsc::Sender<Job>, conn: &mut Conn) -> bool {
    loop {
        if conn.closing {
            return true;
        }
        if conn.inflight >= MAX_PIPELINE {
            if !conn.paused {
                conn.paused = true;
                let _ = poller.reregister(conn.stream.as_raw_fd(), conn.token, conn.interest());
            }
            return true;
        }
        match conn.lines.next_line() {
            Ok(Some(line)) => {
                let request = String::from_utf8_lossy(&line).trim().to_string();
                if request.is_empty() {
                    continue;
                }
                dispatch_line(tx, conn, request);
            }
            Ok(None) => return true,
            Err(emod_reactor::LineError::TooLong { buffered }) => {
                // Answer with a structured refusal, then close once the
                // response is written.
                telemetry::counter_add("serve.requests.too_large", 1);
                telemetry::event(
                    "serve",
                    "request_too_large",
                    &[
                        ("conn", conn.conn_id.as_str().into()),
                        ("bytes", buffered.into()),
                    ],
                );
                let resp = crate::server::too_large_response();
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.ready.insert(seq, (response_bytes(&resp), true));
                conn.eof = true;
                return true;
            }
        }
    }
}

/// Moves in-order completed responses into the write buffer and flushes
/// as much as the socket accepts. Returns `false` once the connection is
/// finished (closed cleanly or dead) and should be dropped.
fn pump_writes(poller: &mut impl Poller, conn: &mut Conn) -> bool {
    while let Some((bytes, close)) = conn.ready.remove(&conn.next_write) {
        conn.next_write += 1;
        conn.out.push(&bytes);
        if close {
            // Reading stops after a closing response; later pipelined
            // requests go unanswered.
            conn.closing = true;
            conn.eof = true;
            break;
        }
    }
    match conn.out.flush_to(&mut conn.stream) {
        Ok(true) => {
            if conn.wants_write {
                conn.wants_write = false;
                let _ = poller.reregister(conn.stream.as_raw_fd(), conn.token, conn.interest());
            }
            if conn.closing {
                return false;
            }
            // EOF teardown waits for every dispatched request to answer.
            !(conn.eof && conn.inflight == 0 && conn.ready.is_empty() && conn.out.is_empty())
        }
        Ok(false) => {
            if !conn.wants_write {
                conn.wants_write = true;
                let _ = poller.reregister(conn.stream.as_raw_fd(), conn.token, conn.interest());
            }
            true
        }
        Err(_) => false,
    }
}

/// Tears a connection down: deregister, drop, close-event.
fn close_conn(poller: &mut impl Poller, conns: &mut HashMap<Token, Conn>, token: Token) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        telemetry::event(
            "serve",
            "conn_close",
            &[
                ("conn", conn.conn_id.as_str().into()),
                ("requests", conn.requests.into()),
            ],
        );
        telemetry::gauge_set("serve.reactor.connections", conns.len() as f64);
    }
}

/// Runs the event loop until shutdown. Called by [`Server::run`].
///
/// # Errors
///
/// Propagates poller construction/registration failures (including
/// `Unsupported` on non-Linux targets, where the server cannot start) and
/// fatal accept errors.
pub(crate) fn run(server: Server, state: Arc<ServerState>) -> io::Result<()> {
    let mut poller = emod_reactor::default_poller()?;
    server.listener.set_nonblocking(true)?;
    let waker = Waker::new()?;
    poller.register(server.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    poller.register(waker.fd(), WAKER_TOKEN, Interest::READ)?;

    let workers = server.workers;
    telemetry::gauge_set("serve.reactor.workers", workers as f64);
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Arc::new(Mutex::new(rx));
    let done: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let rx = Arc::clone(&rx);
        let state = Arc::clone(&state);
        let done = Arc::clone(&done);
        let waker = waker.clone();
        handles.push(
            thread::Builder::new()
                .name(format!("emod-reactor-worker-{}", i))
                .spawn(move || worker_loop(&rx, &state, &done, &waker))?,
        );
    }

    let mut conns: HashMap<Token, Conn> = HashMap::new();
    let mut next_token: Token = FIRST_CONN_TOKEN;
    let mut events = Vec::new();

    loop {
        // Sleep until readiness or a completion wake.
        poller.poll(&mut events, Some(Duration::from_millis(POLL_MS)))?;

        let drained = std::mem::take(&mut events);
        for ev in &drained {
            match ev.token {
                LISTENER_TOKEN => loop {
                    match server.listener.accept() {
                        Ok((stream, peer)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            telemetry::counter_add("serve.connections", 1);
                            let token = next_token;
                            next_token += 1;
                            let conn_id = telemetry::TraceContext::fresh().trace_hex();
                            telemetry::event(
                                "serve",
                                "conn_open",
                                &[
                                    ("conn", conn_id.as_str().into()),
                                    ("peer", peer.to_string().as_str().into()),
                                ],
                            );
                            let conn = Conn::new(stream, token, conn_id);
                            if poller
                                .register(conn.stream.as_raw_fd(), token, conn.interest())
                                .is_ok()
                            {
                                conns.insert(token, conn);
                                telemetry::gauge_set(
                                    "serve.reactor.connections",
                                    conns.len() as f64,
                                );
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                },
                WAKER_TOKEN => waker.drain(),
                token => {
                    let alive = match conns.get_mut(&token) {
                        Some(conn) => {
                            let mut alive = true;
                            if ev.readable || ev.hangup {
                                alive = read_and_dispatch(&mut poller, &tx, conn);
                            }
                            if alive {
                                alive = pump_writes(&mut poller, conn);
                            }
                            alive
                        }
                        None => continue,
                    };
                    if !alive {
                        close_conn(&mut poller, &mut conns, token);
                    }
                }
            }
        }
        events = drained;

        // Route finished responses back to their connections, in order.
        let finished = std::mem::take(&mut *telemetry::lock_or_recover(&done));
        let mut touched: Vec<Token> = Vec::with_capacity(finished.len());
        for d in finished {
            if let Some(conn) = conns.get_mut(&d.token) {
                conn.inflight -= 1;
                conn.ready.insert(d.seq, (d.bytes, d.close));
                if !touched.contains(&d.token) {
                    touched.push(d.token);
                }
            }
        }
        for token in touched {
            let alive = match conns.get_mut(&token) {
                Some(conn) => {
                    let mut alive = pump_writes(&mut poller, conn);
                    if alive && conn.paused && conn.inflight < MAX_PIPELINE / 2 {
                        conn.paused = false;
                        let _ =
                            poller.reregister(conn.stream.as_raw_fd(), conn.token, conn.interest());
                        alive = extract_lines(&mut poller, &tx, conn);
                        if alive {
                            alive = pump_writes(&mut poller, conn);
                        }
                    }
                    alive
                }
                None => continue,
            };
            if !alive {
                close_conn(&mut poller, &mut conns, token);
            }
        }
        telemetry::gauge_set(
            "serve.queue_depth",
            conns.values().map(|c| c.inflight).sum::<u64>() as f64,
        );

        // Checked after the drains so a `shutdown` command's own response
        // ("bye") reaches the wire before the loop exits.
        if state.shutting_down() {
            server
                .shutdown
                .store(true, std::sync::atomic::Ordering::SeqCst);
            break;
        }
    }

    // Graceful drain: stop accepting, then give in-flight requests a
    // bounded grace to answer and flush.
    let _ = poller.deregister(server.listener.as_raw_fd());
    drop(tx);
    let deadline = Instant::now() + DRAIN_GRACE;
    while Instant::now() < deadline {
        let finished = std::mem::take(&mut *telemetry::lock_or_recover(&done));
        for d in finished {
            if let Some(conn) = conns.get_mut(&d.token) {
                conn.inflight -= 1;
                conn.ready.insert(d.seq, (d.bytes, d.close));
            }
        }
        let tokens: Vec<Token> = conns.keys().copied().collect();
        for token in tokens {
            let alive = conns
                .get_mut(&token)
                .map(|conn| pump_writes(&mut poller, conn))
                .unwrap_or(false);
            if !alive {
                close_conn(&mut poller, &mut conns, token);
            }
        }
        let quiescent = conns
            .values()
            .all(|c| c.inflight == 0 && c.ready.is_empty() && c.out.is_empty());
        if quiescent {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    for token in conns.keys().copied().collect::<Vec<_>>() {
        close_conn(&mut poller, &mut conns, token);
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}
