//! `emod-faults`: deterministic fault injection for the measurement and
//! serving pipeline.
//!
//! Long campaigns (hundreds of D-optimal design points, each a compile +
//! sampled simulation) and the prediction server are only trustworthy if
//! they tolerate failing runs — and the only way to *verify* that is to
//! inject the failures ourselves. This crate is a zero-dependency (std +
//! `emod-telemetry` only) fault plan shared by every probed subsystem:
//!
//! * A **plan** is parsed from `EMOD_FAULTS`, a comma-separated list of
//!   `kind:site[:arg[:trigger]]` entries, e.g.
//!   `io_error:registry.store:0.05,delay:serve.handle:200ms,panic:sim.run:once`.
//! * Probed code calls [`inject`] with its **site** name. Current sites:
//!   `sim.run`, `serve.handle`, `registry.store` and `registry.load`. When
//!   a matching entry fires, the probe sleeps (`delay`), panics (`panic`),
//!   or returns an injected [`std::io::Error`] (`io_error`).
//! * **Triggers** make runs reproducible: `once` (first probe only), `always`,
//!   `<N>x` (first N probes), or a probability like `0.05` drawn from a
//!   [splitmix64](https://prng.di.unimi.it/splitmix64.c) stream seeded by
//!   `EMOD_FAULTS_SEED` (default 0) — the same seed injects the same faults.
//!
//! Sites match exactly, or by prefix when the pattern ends in `*`
//! (`registry.*`). Every fired fault bumps `faults.injected.<kind>` and
//! emits a `faults`/`injected` telemetry event, so `emod-trace` can show a
//! fault-injected run degrading gracefully.
//!
//! The crate also hosts the generic resilience helpers the fault plan
//! exercises: [`catch_panic`] (panic → `Err(message)`) and
//! [`retry_with_backoff`] (bounded retries with exponential backoff and
//! deterministic jitter).
//!
//! # Examples
//!
//! ```
//! use emod_faults as faults;
//!
//! let plan = faults::FaultPlan::parse("io_error:demo.step:2x", 0).unwrap();
//! faults::install(plan);
//! assert!(faults::inject("demo.step").is_err());
//! assert!(faults::inject("demo.step").is_err());
//! assert!(faults::inject("demo.step").is_ok(), "2x trigger is exhausted");
//! assert!(faults::inject("other.site").is_ok());
//! faults::clear();
//! ```

#![warn(missing_docs)]

use emod_telemetry as telemetry;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

/// Environment variable holding the fault plan specification.
pub const FAULTS_ENV: &str = "EMOD_FAULTS";

/// Environment variable seeding probabilistic triggers (default 0).
pub const FAULTS_SEED_ENV: &str = "EMOD_FAULTS_SEED";

/// What an injected fault does at its probe site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The probe returns an injected [`io::Error`].
    IoError,
    /// The probe panics (exercising `catch_unwind` isolation above it).
    Panic,
    /// The probe sleeps for the given duration before continuing.
    Delay(Duration),
}

impl FaultKind {
    fn name(&self) -> &'static str {
        match self {
            FaultKind::IoError => "io_error",
            FaultKind::Panic => "panic",
            FaultKind::Delay(_) => "delay",
        }
    }
}

/// When a fault entry fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every matching probe.
    Always,
    /// The first `n` matching probes (`once` == `1x`).
    Times(u64),
    /// Each matching probe independently with probability `p`.
    Prob(f64),
}

/// One parsed `kind:site[:arg[:trigger]]` entry.
#[derive(Debug)]
struct FaultSpec {
    kind: FaultKind,
    /// Site pattern: exact name, or a prefix when ending in `*`.
    site: String,
    trigger: Trigger,
    /// How many times this spec has fired.
    fired: AtomicU64,
}

impl FaultSpec {
    fn matches(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.site == site,
        }
    }

    /// Decides (and records) whether this spec fires for one probe.
    fn fires(&self, rng: &Mutex<u64>) -> bool {
        let fired = match self.trigger {
            Trigger::Always => true,
            Trigger::Times(n) => {
                // fetch_add both checks and consumes a firing slot, so
                // concurrent probes cannot over-fire a `once`/`Nx` entry.
                let prior = self.fired.fetch_add(1, Ordering::SeqCst);
                if prior >= n {
                    self.fired.fetch_sub(1, Ordering::SeqCst);
                    return false;
                }
                return true;
            }
            Trigger::Prob(p) => {
                let mut state = telemetry::lock_or_recover(rng);
                splitmix64(&mut state) as f64 / (u64::MAX as f64) < p
            }
        };
        if fired {
            self.fired.fetch_add(1, Ordering::SeqCst);
        }
        fired
    }
}

/// A parsed, installable set of fault entries with its RNG stream.
#[derive(Debug)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    rng: Mutex<u64>,
}

impl FaultPlan {
    /// Parses a plan from an `EMOD_FAULTS`-style specification. `seed`
    /// drives the probabilistic triggers deterministically.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the malformed entry.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut specs = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            specs.push(parse_entry(entry)?);
        }
        Ok(FaultPlan {
            specs,
            rng: Mutex::new(seed.wrapping_add(0x9e37_79b9_7f4a_7c15)),
        })
    }

    /// Whether the plan has any entries.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Evaluates one probe: applies every firing `delay`, then the first
    /// firing `panic` or `io_error` entry (specs earlier in the plan string
    /// take precedence, and non-firing entries are not consumed).
    fn probe(&self, site: &str) -> io::Result<()> {
        let mut verdict: Option<FaultKind> = None;
        for spec in &self.specs {
            if !spec.matches(site) {
                continue;
            }
            match spec.kind {
                FaultKind::Delay(d) => {
                    if spec.fires(&self.rng) {
                        record_fired(site, &spec.kind);
                        std::thread::sleep(d);
                    }
                }
                kind => {
                    if verdict.is_none() && spec.fires(&self.rng) {
                        record_fired(site, &kind);
                        verdict = Some(kind);
                    }
                }
            }
        }
        match verdict {
            Some(FaultKind::Panic) => panic!("injected fault: panic at {}", site),
            Some(FaultKind::IoError) => Err(io::Error::other(format!(
                "injected fault: io_error at {}",
                site
            ))),
            _ => Ok(()),
        }
    }
}

fn record_fired(site: &str, kind: &FaultKind) {
    telemetry::counter_add("faults.injected", 1);
    telemetry::counter_add(&format!("faults.injected.{}", kind.name()), 1);
    telemetry::event(
        "faults",
        "injected",
        &[("site", site.into()), ("kind", kind.name().into())],
    );
}

fn parse_entry(entry: &str) -> Result<FaultSpec, String> {
    let parts: Vec<&str> = entry.split(':').collect();
    let err = |msg: &str| format!("bad EMOD_FAULTS entry {:?}: {}", entry, msg);
    if parts.len() < 2 {
        return Err(err("expected kind:site[:arg]"));
    }
    let site = parts[1].trim();
    if site.is_empty() {
        return Err(err("empty site"));
    }
    let (kind, trigger) = match parts[0].trim() {
        "panic" | "io_error" => {
            if parts.len() > 3 {
                return Err(err("too many fields"));
            }
            let kind = if parts[0].trim() == "panic" {
                FaultKind::Panic
            } else {
                FaultKind::IoError
            };
            let trigger = match parts.get(2) {
                Some(t) => parse_trigger(t).map_err(|m| err(&m))?,
                None => Trigger::Always,
            };
            (kind, trigger)
        }
        "delay" => {
            if parts.len() < 3 {
                return Err(err("delay needs a duration, e.g. delay:site:200ms"));
            }
            if parts.len() > 4 {
                return Err(err("too many fields"));
            }
            let d = parse_duration(parts[2].trim()).map_err(|m| err(&m))?;
            let trigger = match parts.get(3) {
                Some(t) => parse_trigger(t).map_err(|m| err(&m))?,
                None => Trigger::Always,
            };
            (FaultKind::Delay(d), trigger)
        }
        other => {
            return Err(err(&format!(
                "unknown kind {:?} (panic|io_error|delay)",
                other
            )))
        }
    };
    Ok(FaultSpec {
        kind,
        site: site.to_string(),
        trigger,
        fired: AtomicU64::new(0),
    })
}

fn parse_trigger(t: &str) -> Result<Trigger, String> {
    let t = t.trim();
    match t {
        "always" => return Ok(Trigger::Always),
        "once" => return Ok(Trigger::Times(1)),
        _ => {}
    }
    if let Some(n) = t.strip_suffix('x') {
        return n
            .parse::<u64>()
            .map(Trigger::Times)
            .map_err(|_| format!("bad count trigger {:?}", t));
    }
    match t.parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => Ok(Trigger::Prob(p)),
        _ => Err(format!(
            "bad trigger {:?} (once|always|<N>x|probability in [0,1])",
            t
        )),
    }
}

fn parse_duration(d: &str) -> Result<Duration, String> {
    let bad = || format!("bad duration {:?} (e.g. 200ms, 2s, 500us)", d);
    let (digits, unit): (&str, &str) = match d.find(|c: char| !c.is_ascii_digit()) {
        Some(i) => d.split_at(i),
        None => return Err(bad()),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    match unit {
        "us" => Ok(Duration::from_micros(n)),
        "ms" => Ok(Duration::from_millis(n)),
        "s" => Ok(Duration::from_secs(n)),
        _ => Err(bad()),
    }
}

/// splitmix64 step: advances `state` and returns the next value.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn plan_slot() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static PLAN: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
    PLAN.get_or_init(|| RwLock::new(None))
}

/// Installs a fault plan process-wide (replacing any previous one).
pub fn install(plan: FaultPlan) {
    *telemetry::write_or_recover(plan_slot()) = Some(Arc::new(plan));
}

/// Removes the installed fault plan; every later [`inject`] is a no-op.
pub fn clear() {
    *telemetry::write_or_recover(plan_slot()) = None;
}

/// Whether a non-empty fault plan is installed.
pub fn active() -> bool {
    telemetry::read_or_recover(plan_slot())
        .as_ref()
        .is_some_and(|p| !p.is_empty())
}

/// Reads `EMOD_FAULTS` (+ `EMOD_FAULTS_SEED`) and installs the plan.
/// Returns whether a plan was installed.
///
/// # Errors
///
/// Returns the parse error message for a malformed specification, so
/// binaries can refuse to start with a typo'd plan instead of silently
/// running fault-free.
pub fn init_from_env() -> Result<bool, String> {
    let Ok(spec) = std::env::var(FAULTS_ENV) else {
        return Ok(false);
    };
    if spec.trim().is_empty() {
        return Ok(false);
    }
    let seed = std::env::var(FAULTS_SEED_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let plan = FaultPlan::parse(&spec, seed)?;
    let installed = !plan.is_empty();
    install(plan);
    Ok(installed)
}

/// The probe every fault-aware subsystem calls. With no plan installed this
/// is one `RwLock` read. When a matching entry fires, the call sleeps
/// (`delay`), panics (`panic`), or returns the injected error (`io_error`).
///
/// # Errors
///
/// Returns the injected [`io::Error`] when an `io_error` entry fires.
///
/// # Panics
///
/// Panics when a `panic` entry fires — that is the point.
pub fn inject(site: &str) -> io::Result<()> {
    let plan = telemetry::read_or_recover(plan_slot()).clone();
    match plan {
        Some(plan) => plan.probe(site),
        None => Ok(()),
    }
}

/// Runs `f`, converting a panic into `Err(message)` instead of unwinding
/// further. The closure is wrapped in `AssertUnwindSafe`: callers own the
/// judgement that their state stays coherent across an unwind (the pipeline
/// call sites only ever insert-complete cache entries).
///
/// # Errors
///
/// Returns the panic payload rendered as a string.
pub fn catch_panic<T, F: FnOnce() -> T>(f: F) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The sleep before retry attempt `attempt` (0-based): exponential backoff
/// `base * 2^attempt` capped at `max`, plus deterministic jitter in
/// `[0, half the backoff)` drawn from `seed` — so concurrent clients
/// desynchronize but a given (seed, attempt) pair always waits the same.
pub fn backoff_delay(attempt: u32, base: Duration, max: Duration, seed: u64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16)).min(max);
    let nanos = exp.as_nanos() as u64;
    if nanos == 0 {
        return exp;
    }
    let mut state = seed ^ ((attempt as u64) << 32);
    let jitter = splitmix64(&mut state) % (nanos / 2 + 1);
    exp + Duration::from_nanos(jitter)
}

/// Runs `op` up to `attempts` times (≥ 1), sleeping [`backoff_delay`]
/// between failures and bumping the `faults.retries` counter per retry.
/// `op` receives the 0-based attempt index.
///
/// # Errors
///
/// Returns the last attempt's error once all attempts are exhausted.
pub fn retry_with_backoff<T, E>(
    attempts: u32,
    base: Duration,
    max: Duration,
    seed: u64,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> Result<T, E> {
    let attempts = attempts.max(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            telemetry::counter_add("faults.retries", 1);
            std::thread::sleep(backoff_delay(attempt - 1, base, max, seed));
        }
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("attempts >= 1 ran at least once"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The installed plan is process-global; tests serialize on this.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        telemetry::lock_or_recover(&LOCK)
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "panic",
            "explode:site",
            "panic:site:maybe",
            "panic:site:once:extra",
            "delay:site",
            "delay:site:fast",
            "delay:site:10m",
            "io_error::once",
            "io_error:site:1.5",
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "{:?} should fail", bad);
        }
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let plan = FaultPlan::parse(
            "io_error:registry.store:0.05, delay:serve.handle:200ms, panic:sim.run:once, \
             io_error:a.b:3x, delay:c.d:1s:0.5, panic:e.*:always,",
            7,
        )
        .unwrap();
        assert_eq!(plan.specs.len(), 6);
        assert_eq!(plan.specs[0].trigger, Trigger::Prob(0.05));
        assert_eq!(
            plan.specs[1].kind,
            FaultKind::Delay(Duration::from_millis(200))
        );
        assert_eq!(plan.specs[2].trigger, Trigger::Times(1));
        assert_eq!(plan.specs[3].trigger, Trigger::Times(3));
        assert_eq!(plan.specs[4].trigger, Trigger::Prob(0.5));
        assert!(plan.specs[5].matches("e.f"));
        assert!(!plan.specs[5].matches("f.e"));
    }

    #[test]
    fn once_and_counted_triggers_are_consumed_in_order() {
        let _guard = test_lock();
        install(FaultPlan::parse("panic:p.site:once,io_error:p.site:2x", 0).unwrap());
        assert!(
            catch_panic(|| inject("p.site")).is_err(),
            "first probe panics"
        );
        assert!(inject("p.site").is_err(), "then io_error fires");
        assert!(inject("p.site").is_err());
        assert!(inject("p.site").is_ok(), "all triggers exhausted");
        clear();
        assert!(inject("p.site").is_ok());
        assert!(!active());
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed() {
        let _guard = test_lock();
        let run = |seed| {
            install(FaultPlan::parse("io_error:q.site:0.3", seed).unwrap());
            let fired: Vec<bool> = (0..64).map(|_| inject("q.site").is_err()).collect();
            clear();
            fired
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same faults");
        assert_ne!(a, c, "different seed, different stream");
        let hits = a.iter().filter(|&&f| f).count();
        assert!(
            (5..30).contains(&hits),
            "p=0.3 over 64 draws fired {}",
            hits
        );
    }

    #[test]
    fn delay_applies_and_does_not_consume_error_triggers() {
        let _guard = test_lock();
        install(FaultPlan::parse("delay:d.site:20ms,io_error:d.site:once", 0).unwrap());
        let t0 = std::time::Instant::now();
        let first = inject("d.site");
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(first.is_err(), "delay and io_error both fire on one probe");
        assert!(inject("d.site").is_ok(), "io_error was once; delay remains");
        clear();
    }

    #[test]
    fn catch_panic_captures_messages() {
        assert_eq!(catch_panic(|| 7), Ok(7));
        let err = catch_panic(|| panic!("boom {}", 3)).unwrap_err();
        assert!(err.contains("boom 3"), "{}", err);
    }

    #[test]
    fn retry_with_backoff_retries_then_surfaces_the_last_error() {
        let mut calls = 0;
        let ok: Result<u32, &str> = retry_with_backoff(
            3,
            Duration::from_millis(1),
            Duration::from_millis(4),
            9,
            |attempt| {
                calls += 1;
                if attempt < 2 {
                    Err("transient")
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(ok, Ok(2));
        assert_eq!(calls, 3);
        let err: Result<u32, String> = retry_with_backoff(
            2,
            Duration::from_millis(1),
            Duration::from_millis(2),
            9,
            |attempt| Err(format!("fail {}", attempt)),
        );
        assert_eq!(err, Err("fail 1".to_string()), "last error wins");
    }

    #[test]
    fn backoff_delay_is_deterministic_and_bounded() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(80);
        for attempt in 0..8 {
            let a = backoff_delay(attempt, base, max, 5);
            let b = backoff_delay(attempt, base, max, 5);
            assert_eq!(a, b);
            assert!(a <= max + max / 2, "attempt {} waited {:?}", attempt, a);
        }
        assert_ne!(
            backoff_delay(3, base, max, 5),
            backoff_delay(3, base, max, 6),
            "different seeds should jitter apart"
        );
    }
}
