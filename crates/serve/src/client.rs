//! Retrying client for the newline-delimited-JSON protocol.
//!
//! The server marks transient failures — handler panics
//! (`internal_error`), blown deadlines (`deadline_exceeded`) — with
//! `"retryable": true` in the error reply. [`Client::request`] retries
//! those, and connection-level failures (refused, reset, torn mid-reply),
//! with exponential backoff plus deterministic jitter
//! ([`emod_faults::backoff_delay`]) so a fleet of clients does not
//! resynchronize into retry storms. Semantic errors (`bad_request`, unknown
//! model) are returned to the caller on the first reply.
//!
//! The connection is lazy and re-established per attempt after a transport
//! error, so a server restart between requests is invisible to the caller.

use crate::json::Json;
use emod_faults as faults;
use emod_telemetry as telemetry;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Retry schedule: `attempts` total tries, exponential backoff from `base`
/// capped at `max`, with deterministic jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base: Duration,
    /// Upper bound on a single backoff sleep.
    pub max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Whether an error reply asks to be retried: the explicit `"retryable"`
/// hint, falling back to the code class for replies from older servers.
pub fn is_retryable(resp: &Json) -> bool {
    if resp.get("ok") == Some(&Json::Bool(true)) {
        return false;
    }
    if let Some(r) = resp.get("retryable") {
        return r == &Json::Bool(true);
    }
    matches!(
        resp.get("code").and_then(Json::as_str),
        Some("internal_error" | "deadline_exceeded")
    )
}

/// A lazily-connecting, reconnecting, retrying client.
#[derive(Debug)]
pub struct Client {
    addr: String,
    policy: RetryPolicy,
    timeout: Option<Duration>,
    conn: Option<BufReader<TcpStream>>,
    requests: u64,
}

impl Client {
    /// A client for `addr` with the default [`RetryPolicy`]. No connection
    /// is made until the first request.
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            policy: RetryPolicy::default(),
            timeout: None,
            conn: None,
            requests: 0,
        }
    }

    /// Caps how long one request may block on connecting, writing, or
    /// waiting for the reply. Without it a request to a stalled server (an
    /// injected delay, or every serving thread busy with long requests)
    /// blocks until the server answers; with it the attempt fails (and the
    /// policy decides whether to retry). Open-loop load drivers set this so
    /// a stalled reply surfaces as a transport error instead of wedging the
    /// whole run.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = Some(timeout);
        self
    }

    /// Replaces the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Client {
        self.policy = policy;
        self
    }

    /// Sets the total attempt count, keeping the default backoff.
    pub fn with_attempts(mut self, attempts: u32) -> Client {
        self.policy.attempts = attempts.max(1);
        self
    }

    fn ensure_conn(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(self.timeout)?;
            stream.set_write_timeout(self.timeout)?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// One request/reply exchange on the current connection, no retries.
    fn send_once(&mut self, line: &str) -> io::Result<String> {
        let reader = self.ensure_conn()?;
        let mut writer = reader.get_ref().try_clone()?;
        writeln!(writer, "{}", line)?;
        writer.flush()?;
        let mut reply = String::new();
        if reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ));
        }
        Ok(reply)
    }

    /// Sends one request line and returns the parsed reply, retrying
    /// transport failures and `retryable` error replies per the policy.
    /// The last reply (even a retryable error) is returned once attempts
    /// are exhausted; `Err` means no parseable reply was ever received.
    ///
    /// # Errors
    ///
    /// The final transport or parse error when every attempt failed.
    pub fn request(&mut self, line: &str) -> Result<Json, String> {
        self.requests += 1;
        let seed = 0x9e37_79b9_7f4a_7c15u64 ^ self.requests;
        let mut last_err = String::new();
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                telemetry::counter_add("serve.client.retries", 1);
                let delay =
                    faults::backoff_delay(attempt - 1, self.policy.base, self.policy.max, seed);
                std::thread::sleep(delay);
            }
            match self.send_once(line) {
                Ok(reply) => match Json::parse(reply.trim()) {
                    Ok(resp) => {
                        if is_retryable(&resp) && attempt + 1 < self.policy.attempts {
                            last_err = resp
                                .get("error")
                                .and_then(Json::as_str)
                                .unwrap_or("retryable server error")
                                .to_string();
                            continue;
                        }
                        return Ok(resp);
                    }
                    Err(e) => {
                        self.conn = None;
                        last_err = format!("unparseable reply: {}", e);
                    }
                },
                Err(e) => {
                    self.conn = None;
                    last_err = format!("connection: {}", e);
                }
            }
        }
        Err(format!(
            "request failed after {} attempts: {}",
            self.policy.attempts.max(1),
            last_err
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        let ok = Json::parse("{\"ok\":true}").unwrap();
        assert!(!is_retryable(&ok));
        let panicked =
            Json::parse("{\"ok\":false,\"code\":\"internal_error\",\"retryable\":true}").unwrap();
        assert!(is_retryable(&panicked));
        let bad =
            Json::parse("{\"ok\":false,\"code\":\"bad_request\",\"retryable\":false}").unwrap();
        assert!(!is_retryable(&bad));
        // No explicit hint: fall back to the code class.
        let legacy = Json::parse("{\"ok\":false,\"code\":\"internal_error\"}").unwrap();
        assert!(is_retryable(&legacy));
        let legacy_sem = Json::parse("{\"ok\":false,\"error\":\"no such model\"}").unwrap();
        assert!(!is_retryable(&legacy_sem));
    }

    #[test]
    fn request_against_dead_server_reports_last_error() {
        // Port 1 on localhost is essentially never listening.
        let mut c = Client::new("127.0.0.1:1").with_policy(RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            max: Duration::from_millis(2),
        });
        let err = c.request("{\"cmd\":\"health\"}").unwrap_err();
        assert!(err.contains("after 2 attempts"), "{}", err);
    }

    #[test]
    fn client_retries_then_succeeds_against_live_listener() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            // First request: a retryable failure. Second: answer ok.
            reader.read_line(&mut line).unwrap();
            writeln!(
                writer,
                "{{\"ok\":false,\"code\":\"internal_error\",\"retryable\":true,\"error\":\"boom\"}}"
            )
            .unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            writeln!(writer, "{{\"ok\":true,\"answer\":42}}").unwrap();
        });
        let mut c = Client::new(&addr).with_policy(RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            max: Duration::from_millis(4),
        });
        let resp = c.request("{\"cmd\":\"health\"}").unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
        assert_eq!(resp.get("answer").and_then(Json::as_u64), Some(42));
        server.join().unwrap();
    }
}
