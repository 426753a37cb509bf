//! Multi-connection open-loop driver.
//!
//! Each connection is one thread owning one [`emod_serve::Client`] with
//! retries disabled (a retry would hide queueing and double-count load).
//! Drivers warm their connection, synchronize on a barrier, agree on one
//! shared epoch, and then walk their slice of the schedule: sleep until a
//! request's *intended* send time, write it, and time the reply against the
//! intended instant. When the server (or this driver's own backlog) falls
//! behind, the next requests go out late — and their recorded latency
//! includes exactly that lateness. That is the coordinated-omission guard:
//! a closed-loop harness would silently stop sending while stalled and
//! report only the rosy in-service time.
//!
//! [`LoadConfig::connections`] may exceed the server's `--workers` count:
//! idle connections hold no server thread, and a request that waits for a
//! free serving thread carries the wait in its latency.

use crate::schedule::{CommandKind, LoadConfig, ScheduledRequest};
use emod_serve::{Client, Json, RetryPolicy};
use emod_telemetry as telemetry;
use std::sync::{Arc, Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `"ok": true` reply.
    Ok,
    /// An error reply; carries the machine-readable code.
    Error(String),
    /// No parseable reply at all (refused, reset, torn mid-reply).
    Transport,
}

impl Outcome {
    /// Whether the request got a successful reply.
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok)
    }
}

/// One completed (or failed) request's measurements.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the schedule (schedule order == sort key).
    pub index: usize,
    /// The command issued.
    pub kind: CommandKind,
    /// Intended send offset from the epoch, microseconds.
    pub intended_us: u64,
    /// Open-loop latency: completion minus *intended* send time. Includes
    /// any lateness accumulated by a backlogged driver — the
    /// coordinated-omission-safe number.
    pub latency_us: f64,
    /// Closed-loop service time: completion minus the *actual* send. What a
    /// coordinated-omission-blind harness would have reported.
    pub service_us: f64,
    /// How the request ended.
    pub outcome: Outcome,
}

/// Everything a finished run produced.
#[derive(Debug)]
pub struct LoadResult {
    /// All samples, in schedule order.
    pub samples: Vec<Sample>,
    /// Wall seconds from the shared epoch to the last driver finishing.
    pub wall_s: f64,
}

fn classify(reply: &Result<Json, String>) -> Outcome {
    match reply {
        Ok(resp) if resp.get("ok") == Some(&Json::Bool(true)) => Outcome::Ok,
        Ok(resp) => Outcome::Error(
            resp.get("code")
                .and_then(Json::as_str)
                .unwrap_or("error")
                .to_string(),
        ),
        Err(_) => Outcome::Transport,
    }
}

fn drive(
    addr: &str,
    timeout: Duration,
    entries: Vec<(usize, ScheduledRequest)>,
    barrier: &Barrier,
    epoch: &OnceLock<Instant>,
) -> Vec<Sample> {
    let mut client = Client::new(addr)
        .with_policy(RetryPolicy::none())
        .with_timeout(timeout);
    // Warm the TCP connection (and fault in the server's artifact cache)
    // before the clock starts, so connection setup is not billed to the
    // first scheduled request.
    let _ = client.request("{\"cmd\":\"health\"}");
    if barrier.wait().is_leader() {
        epoch.set(Instant::now()).expect("epoch set once");
    }
    barrier.wait();
    let start = *epoch.get().expect("epoch set by leader");
    let mut samples = Vec::with_capacity(entries.len());
    for (index, req) in entries {
        let target = start + Duration::from_micros(req.at_us);
        let now = Instant::now();
        if now < target {
            thread::sleep(target - now);
        }
        let sent = Instant::now();
        let reply = client.request(&req.line);
        let done = Instant::now();
        let outcome = classify(&reply);
        let latency_us = done.duration_since(target).as_secs_f64() * 1e6;
        let service_us = done.duration_since(sent).as_secs_f64() * 1e6;
        telemetry::counter_add("load.requests", 1);
        telemetry::observe("load.latency_us", latency_us);
        telemetry::observe(
            &format!("load.latency_us.{}", req.kind.as_str()),
            latency_us,
        );
        telemetry::observe("load.service_us", service_us);
        if !outcome.is_ok() {
            telemetry::counter_add("load.errors", 1);
        }
        samples.push(Sample {
            index,
            kind: req.kind,
            intended_us: req.at_us,
            latency_us,
            service_us,
            outcome,
        });
    }
    samples
}

/// Runs `schedule` against `cfg.addr` with one driver thread per
/// connection and returns every sample in schedule order.
pub fn run(cfg: &LoadConfig, schedule: &[ScheduledRequest]) -> LoadResult {
    let conns = cfg.connections.max(1);
    let mut per_conn: Vec<Vec<(usize, ScheduledRequest)>> = vec![Vec::new(); conns];
    for (i, req) in schedule.iter().enumerate() {
        per_conn[req.conn % conns].push((i, req.clone()));
    }
    let barrier = Arc::new(Barrier::new(conns));
    let epoch = Arc::new(OnceLock::new());
    let run_start = Instant::now();
    let mut handles = Vec::with_capacity(conns);
    let timeout = Duration::from_secs_f64(cfg.timeout_s.clamp(0.05, 600.0));
    for entries in per_conn {
        let addr = cfg.addr.clone();
        let barrier = Arc::clone(&barrier);
        let epoch = Arc::clone(&epoch);
        handles.push(
            thread::Builder::new()
                .name("emod-load-driver".to_string())
                .spawn(move || drive(&addr, timeout, entries, &barrier, &epoch))
                .expect("spawn load driver"),
        );
    }
    let mut samples = Vec::with_capacity(schedule.len());
    for h in handles {
        samples.extend(h.join().expect("load driver panicked"));
    }
    let wall_s = epoch
        .get()
        .map(|e| e.elapsed().as_secs_f64())
        .unwrap_or_else(|| run_start.elapsed().as_secs_f64());
    samples.sort_by_key(|s| s.index);
    LoadResult { samples, wall_s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_the_reply_space() {
        let ok = Json::parse("{\"ok\":true}").unwrap();
        assert_eq!(classify(&Ok(ok)), Outcome::Ok);
        let sem = Json::parse("{\"ok\":false,\"code\":\"bad_request\"}").unwrap();
        assert_eq!(classify(&Ok(sem)), Outcome::Error("bad_request".into()));
        let legacy = Json::parse("{\"ok\":false}").unwrap();
        assert_eq!(classify(&Ok(legacy)), Outcome::Error("error".into()));
        assert_eq!(classify(&Err("refused".into())), Outcome::Transport);
    }
}
