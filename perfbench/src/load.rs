//! Open-loop load generator over `emod_serve::Client`.
//!
//! One process, `conns` connections, one driver thread per connection. The
//! drivers share one FIFO schedule: each takes the next request when its
//! connection is free, sleeps until the request's intended send instant,
//! sends it and waits for the reply. Latency runs from the intended
//! instant, so a stalled server charges its backlog to every request due
//! behind it. A run ends at its schedule horizon plus a fixed grace:
//! requests that cannot be sent or answered by then count as failed, so a
//! saturated rate cannot stretch the run.

use emod_serve::{Client, Json, RetryPolicy};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Intended send time, microseconds after the run's epoch.
    pub at_us: u64,
    /// Request line (no newline).
    pub line: String,
}

/// How one scheduled request ended, with its timings in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Completion minus intended send time (`NAN` if never answered).
    pub latency_us: f64,
    /// How late the generator itself sent: actual send minus the later of
    /// the intended instant and the moment the connection became free.
    /// Backlog behind a busy connection is not generator lag.
    pub lag_us: f64,
    /// Answered `"ok": true` before the deadline.
    pub ok: bool,
    /// Was sent at all (false: the deadline passed first).
    pub sent: bool,
}

/// Seeded Poisson arrival instants (microseconds) at `rate` per second over
/// `[0, horizon_s)`.
pub fn poisson_arrivals(rate: f64, horizon_s: f64, rng: &mut impl rand::Rng) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let horizon_us = horizon_s * 1e6;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate * 1e6;
        if t >= horizon_us {
            return out;
        }
        out.push(t as u64);
    }
}

/// `n` arrival instants (microseconds) at `rate` whose gaps follow the
/// exponential distribution of a Poisson process, taken at quantiles that
/// step by the golden ratio from a seeded start. Every seed gets the same
/// gap distribution and the same well-mixed order (a gap below the 20 %
/// quantile is always followed by one above it), so a tail percentile over
/// `n` requests measures the server rather than how bursty one seed's draw
/// happened to be.
pub fn stratified_arrivals(rate: f64, n: usize, rng: &mut impl rand::Rng) -> Vec<u64> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let start: f64 = rng.gen();
    let mut t = 0.0;
    (0..n)
        .map(|k| {
            let at = t as u64;
            let u = (start + k as f64 * GOLDEN).fract();
            t += -(1.0 - u).ln() / rate * 1e6;
            at
        })
        .collect()
}

/// Runs `schedule` (sorted by `at_us`) against `addr` over `conns`
/// connections. The run ends at `horizon_s + grace_s`; each request's
/// socket timeout is `grace_s`, so no reply is awaited past
/// `horizon_s + 2 * grace_s`. Samples come back in schedule order.
pub fn run(
    addr: &str,
    schedule: &[Planned],
    conns: usize,
    horizon_s: f64,
    grace_s: f64,
) -> Vec<Sample> {
    let conns = conns.max(1);
    let cursor = AtomicUsize::new(0);
    let barrier = Barrier::new(conns);
    let epoch: OnceLock<Instant> = OnceLock::new();
    let deadline = Duration::from_secs_f64(horizon_s + grace_s);
    let grace = Duration::from_secs_f64(grace_s.max(0.01));
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let (cursor, barrier, epoch) = (&cursor, &barrier, &epoch);
                s.spawn(move || {
                    let mut client = Client::new(addr)
                        .with_policy(RetryPolicy::none())
                        .with_timeout(grace);
                    // Connect and warm before the clock starts.
                    let _ = client.request("{\"cmd\":\"health\"}");
                    if barrier.wait().is_leader() {
                        epoch.set(Instant::now()).expect("epoch set once");
                    }
                    barrier.wait();
                    let start = *epoch.get().expect("epoch set by the leader");
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = schedule.get(i) else { break };
                        let picked = start.elapsed();
                        let target = Duration::from_micros(req.at_us);
                        let mut sample = Sample {
                            latency_us: f64::NAN,
                            lag_us: 0.0,
                            ok: false,
                            sent: false,
                        };
                        if picked >= deadline {
                            out.push((i, sample));
                            continue;
                        }
                        if picked < target {
                            std::thread::sleep(target - picked);
                        }
                        let sent = start.elapsed();
                        sample.sent = true;
                        sample.lag_us =
                            (sent.as_secs_f64() - target.max(picked).as_secs_f64()) * 1e6;
                        let reply = client.request(&req.line);
                        let done = start.elapsed();
                        sample.ok = done <= deadline
                            && matches!(&reply, Ok(r) if r.get("ok") == Some(&Json::Bool(true)));
                        if done <= deadline {
                            sample.latency_us = (done.as_secs_f64() - target.as_secs_f64()) * 1e6;
                        }
                        out.push((i, sample));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load driver thread"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Closed loop: `conns` connections each send the next of `lines` (in
/// turn, cycling) as soon as the previous answer arrives, for `secs`.
/// Returns answers per second: the `"ok": true` answers that arrived within
/// the window, over the time from the start to the last of them. A request
/// still in flight when the window closes waits at most `timeout_s`.
pub fn closed_loop(addr: &str, lines: &[String], conns: usize, secs: f64, timeout_s: f64) -> f64 {
    let conns = conns.max(1);
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(conns);
    let epoch: OnceLock<Instant> = OnceLock::new();
    let window = Duration::from_secs_f64(secs);
    let per_driver: Vec<(usize, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let (next, barrier, epoch) = (&next, &barrier, &epoch);
                s.spawn(move || {
                    let mut client = Client::new(addr)
                        .with_policy(RetryPolicy::none())
                        .with_timeout(Duration::from_secs_f64(timeout_s));
                    let _ = client.request("{\"cmd\":\"health\"}");
                    if barrier.wait().is_leader() {
                        epoch.set(Instant::now()).expect("epoch set once");
                    }
                    barrier.wait();
                    let start = *epoch.get().expect("epoch set by the leader");
                    let (mut ok, mut last) = (0, Duration::ZERO);
                    while start.elapsed() < window {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let reply = client.request(&lines[i % lines.len()]);
                        let done = start.elapsed();
                        if done <= window
                            && matches!(&reply, Ok(r) if r.get("ok") == Some(&Json::Bool(true)))
                        {
                            ok += 1;
                            last = done;
                        }
                    }
                    (ok, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop driver thread"))
            .collect()
    });
    let ok: usize = per_driver.iter().map(|d| d.0).sum();
    let span = per_driver.iter().map(|d| d.1).max().unwrap_or_default();
    if ok == 0 {
        0.0
    } else {
        ok as f64 / span.as_secs_f64()
    }
}

/// Latencies (ms) of the answered requests, and the count that failed.
pub fn latencies_ms(samples: &[Sample]) -> (Vec<f64>, usize) {
    let ok: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_us / 1e3)
        .collect();
    (ok.clone(), samples.len() - ok.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn poisson_arrivals_are_seeded_sorted_and_near_the_rate() {
        let mut a = rand::rngs::StdRng::seed_from_u64(7);
        let mut b = rand::rngs::StdRng::seed_from_u64(7);
        let x = poisson_arrivals(1000.0, 5.0, &mut a);
        assert_eq!(x, poisson_arrivals(1000.0, 5.0, &mut b));
        assert!(x.windows(2).all(|w| w[0] <= w[1]));
        assert!((4500..5500).contains(&x.len()), "{}", x.len());
        assert!(x.iter().all(|&t| t < 5_000_000));
    }

    #[test]
    fn stratified_arrivals_have_poisson_gaps_without_bursts() {
        let mut means = Vec::new();
        for seed in 1..=5 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let at = stratified_arrivals(10.0, 220, &mut rng);
            assert_eq!(at.len(), 220);
            assert_eq!(at[0], 0);
            let gaps: Vec<f64> = at.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            means.push(gaps.iter().sum::<f64>() / gaps.len() as f64);
            // The exponential 20 % quantile at 10/s is 22.3 ms; two short
            // gaps never follow each other.
            let short = |g: &f64| *g < 22_000.0;
            assert!(gaps.windows(2).all(|w| !(short(&w[0]) && short(&w[1]))));
            // About a fifth of the gaps are still that short.
            let n_short = gaps.iter().filter(|g| short(g)).count();
            assert!((35..=53).contains(&n_short), "{}", n_short);
        }
        // Mean gap within 10 % of 1/rate for every seed, and seeds differ.
        assert!(
            means.iter().all(|m| (90_000.0..110_000.0).contains(m)),
            "{:?}",
            means
        );
        assert!(means.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn failures_count_every_unanswered_request() {
        let mk = |ok: bool, lat: f64| Sample {
            latency_us: lat,
            lag_us: 0.0,
            ok,
            sent: true,
        };
        let unsent = Sample {
            sent: false,
            ..mk(false, f64::NAN)
        };
        let (lat, failed) =
            latencies_ms(&[mk(true, 2000.0), mk(false, 10.0), unsent, mk(true, 500.0)]);
        assert_eq!(lat, vec![2.0, 0.5]);
        assert_eq!(failed, 2);
    }

    #[test]
    fn a_dead_address_fails_every_request_within_the_deadline() {
        // Nothing listens on the loopback's discard port (9):
        // every request is a transport failure, and the run still ends.
        let schedule: Vec<Planned> = (0..5)
            .map(|i| Planned {
                at_us: i * 1000,
                line: "{\"cmd\":\"health\"}".into(),
            })
            .collect();
        let t = Instant::now();
        let out = run("127.0.0.1:9", &schedule, 2, 0.01, 0.05);
        assert!(t.elapsed() < Duration::from_secs(5));
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|s| !s.ok));
    }
}
