//! Concurrent newline-delimited-JSON prediction/tuning server.
//!
//! [`Server`] binds a TCP listener and runs the epoll event loop of
//! [`crate::reactor_front`] (Linux only) over it: one thread owns every
//! connection and hands complete request lines to `--workers` handler
//! threads. Each request is one JSON object on one line; each response is
//! one JSON object on one line with an `"ok"` field, written back in
//! request order. Graceful shutdown on SIGTERM/SIGINT or the `shutdown`
//! command: the listener closes, requests already read are answered (with
//! a refusal once the drain has begun), and the handler threads exit.
//!
//! Commands: `list_models`, `predict`, `predict_batch`, `explain`, `tune`,
//! `observe`, `refresh`, `rollout`, `promote`, `rollback`, `stats`,
//! `health`, `metrics`, `shutdown` — see the README "Serving" section for
//! the wire format.
//!
//! Observability: every request runs inside its own telemetry trace
//! ([`emod_telemetry::trace_root`]), so spans opened by the handler (the
//! GA during `tune`, model loads, …) stitch into one per-request trace in
//! the JSONL stream, and each request emits a structured `serve.access`
//! event (connection id, command, resolved model, status, latency, bytes).
//! `stats` reports per-command latency percentiles; `metrics` renders a
//! flat text exposition an operator can scrape; requests slower than
//! `EMOD_SLOW_MS` milliseconds are flagged with a `serve.slow_request`
//! event and a log line. Each request is timestamped when the event loop
//! reads it: latency and deadlines count from that instant, and the part
//! spent waiting for a free handler thread is reported on its own
//! (`serve.queue_wait_ms`, a `queue_wait_ms` access-log field), next to
//! the `serve.queue_depth` gauge of requests read but not yet answered.
//! When `EMOD_SLO_P99_MS` / `EMOD_SLO_AVAIL` targets are set, a rolling
//! window ([`crate::slo`]) turns recent requests into burn-rate gauges
//! (`serve.slo.*`) and rolling per-command percentiles
//! (`serve.rolling.*`), surfaced in `stats`, `health` and the `metrics`
//! exposition.
//!
//! Resilience (see DESIGN.md §10): request lines are capped at
//! [`MAX_LINE_BYTES`] (`request_too_large`, connection closes); handler
//! panics are isolated per request with `catch_unwind` (`internal_error`,
//! the worker survives); an admission gate sheds requests beyond
//! `EMOD_MAX_INFLIGHT` with `overloaded`; requests running past
//! `EMOD_DEADLINE_MS` answer `deadline_exceeded`. Error replies carry a
//! machine-readable `"code"` and a `"retryable"` hint the client-side
//! retry loop keys off. Fault probes: `serve.handle`, plus `retrain.fit`,
//! `registry.activate` and `canary.promote` on the refresh/rollout path.
//!
//! Model quality (see DESIGN.md §12): every `predict`/`explain` scores how
//! far the query extrapolates beyond the artifact's training design
//! (`serve.quality.extrapolation` histogram) and the spread between sibling
//! model families (`serve.quality.disagreement`); scores past
//! `EMOD_EXTRAP_WARN`/`EMOD_DISAGREE_WARN` emit `quality_warn` events and
//! tag the access log. `observe` feeds ground-truth measurements back into
//! a bounded shadow ring, exporting rolling-MAPE/max-error drift gauges.
//!
//! Closed loop (see DESIGN.md §15): with `EMOD_REFRESH`/`EMOD_REFRESH_DIR`
//! set, extrapolating queries are enqueued into a crash-safe refresh queue
//! and `refresh` cycles retrain and publish versioned candidates that roll
//! out as canaries — a deterministic content-hash fraction of traffic
//! (`EMOD_CANARY_*`) shadow-scored against the active version on `observe`
//! ground truth, auto-promoted on improvement and auto-rolled-back on
//! regression, SLO burn, or any injected fault.

use crate::artifact::{family_from_name, family_slug, ModelArtifact, FORMAT_VERSION};
use crate::json::Json;
use crate::registry::{split_version, version_id, ModelRegistry};
use crate::rollout::{route_hash, routes_to_canary, RolloutConfig, RolloutPhase, RolloutState};
use crate::slo::{SloConfig, SloSnapshot, SloTracker};
use emod_compiler::OptConfig;
use emod_core::model::ModelFamily;
use emod_core::tune::{reference_configs, search_flags_surrogate};
use emod_core::vars::{encode_point, COMPILER_PARAMS};
use emod_faults as faults;
use emod_models::Regressor;
use emod_quality::{disagreement, shadow_verdict, PredictionLog, ShadowRing, ShadowVerdict};
use emod_telemetry as telemetry;
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Default port the server binds when none is given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7733";

/// Longest accepted request line (1 MiB). Longer lines get a structured
/// `request_too_large` reply and the connection closes, instead of the
/// server buffering an attacker-controlled amount of memory.
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// Default cap on concurrently-executing requests when `EMOD_MAX_INFLIGHT`
/// is unset.
pub const DEFAULT_MAX_INFLIGHT: u64 = 256;

/// Smallest `predict_batch` that is sharded across the `EMOD_THREADS`
/// pool; smaller batches predict inline on the request worker.
pub const PARALLEL_BATCH_MIN: usize = 64;

/// The commands the server understands. Per-command counters and latency
/// histograms are only created for these names, so a garbage `cmd` cannot
/// grow the telemetry registry without bound.
const COMMANDS: &[&str] = &[
    "list_models",
    "predict",
    "predict_batch",
    "explain",
    "tune",
    "observe",
    "rollout",
    "promote",
    "rollback",
    "refresh",
    "stats",
    "health",
    "metrics",
    "shutdown",
];

/// Slow-request threshold from `EMOD_SLOW_MS` (milliseconds), read once.
fn slow_threshold_ms() -> Option<f64> {
    static THRESHOLD: OnceLock<Option<f64>> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var("EMOD_SLOW_MS")
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|t| *t >= 0.0)
    })
}

/// Shared request-handling state: the model registry, the shutdown flag,
/// and the operational gauges (`uptime`, in-flight requests) that `stats`,
/// `health` and `metrics` report.
#[derive(Debug)]
pub struct ServerState {
    registry: Arc<ModelRegistry>,
    shutdown: Arc<AtomicBool>,
    start: Instant,
    in_flight: AtomicU64,
    max_inflight: u64,
    deadline_ms: Option<u64>,
    quality: Mutex<QualityState>,
    slo: Mutex<SloTracker>,
    rollout_cfg: RolloutConfig,
    /// Per-base rollout cache: `None` caches "no rollout on disk" so the
    /// hot predict path stats the registry at most once per base.
    rollouts: Mutex<HashMap<String, Option<RolloutEntry>>>,
    /// Refresh queue directory; `None` disables the closed loop entirely.
    refresh_dir: Option<PathBuf>,
    /// Serializes refresh cycles (they measure + retrain, i.e. seconds).
    refresh_busy: AtomicBool,
}

/// Cached rollout state for one base artifact, plus the per-lane shadow
/// rings the canary gate scores from. The rings live beside the state (not
/// in `QualityState`) so a rollback resets them atomically with the phase.
#[derive(Debug)]
struct RolloutEntry {
    state: RolloutState,
    active_shadow: ShadowRing,
    canary_shadow: ShadowRing,
}

impl RolloutEntry {
    fn new(state: RolloutState) -> RolloutEntry {
        let cap = emod_quality::shadow_capacity();
        RolloutEntry {
            state,
            active_shadow: ShadowRing::new(cap),
            canary_shadow: ShadowRing::new(cap),
        }
    }
}

/// Shadow accuracy state: recent predictions (so a later ground-truth
/// observation can be paired with what the model said at the time) and the
/// bounded ring of `(prediction, measurement)` pairs driving the drift
/// gauges. Both are capped at `EMOD_SHADOW_CAP` entries.
#[derive(Debug)]
struct QualityState {
    predictions: PredictionLog,
    shadow: ShadowRing,
}

impl ServerState {
    /// Creates request-handling state over `registry`, observing (and
    /// setting, for the `shutdown` command) the given shutdown flag. The
    /// admission cap and request deadline come from `EMOD_MAX_INFLIGHT`
    /// and `EMOD_DEADLINE_MS` (read here, once per server).
    pub fn new(registry: Arc<ModelRegistry>, shutdown: Arc<AtomicBool>) -> ServerState {
        let max_inflight = std::env::var("EMOD_MAX_INFLIGHT")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_MAX_INFLIGHT);
        let deadline_ms = std::env::var("EMOD_DEADLINE_MS")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|&n| n > 0);
        let cap = emod_quality::shadow_capacity();
        let refresh_dir = refresh_dir_from_env(&registry);
        ServerState {
            registry,
            shutdown,
            start: Instant::now(),
            in_flight: AtomicU64::new(0),
            max_inflight,
            deadline_ms,
            quality: Mutex::new(QualityState {
                predictions: PredictionLog::new(cap),
                shadow: ShadowRing::new(cap),
            }),
            slo: Mutex::new(SloTracker::new(SloConfig::from_env())),
            rollout_cfg: RolloutConfig::from_env(),
            rollouts: Mutex::new(HashMap::new()),
            refresh_dir,
            refresh_busy: AtomicBool::new(false),
        }
    }

    /// Distills the SLO rolling window. Burn-rate and rolling-latency
    /// gauges are published here — at scrape time — rather than per
    /// request, so idle servers pay nothing and a scrape always sees a
    /// self-consistent window.
    fn slo_snapshot(&self) -> SloSnapshot {
        let snap = telemetry::lock_or_recover(&self.slo).snapshot();
        snap.publish_gauges();
        snap
    }

    fn record_slo(&self, cmd: &str, latency_ms: f64, ok: bool) {
        // Resolve to the interned command name: bounds the tracker's label
        // set exactly like the per-command counters.
        if let Some(name) = COMMANDS.iter().find(|c| **c == cmd) {
            telemetry::lock_or_recover(&self.slo).record(name, latency_ms, ok);
        }
    }

    /// Overrides the admission-gate cap (tests; production uses
    /// `EMOD_MAX_INFLIGHT`).
    pub fn with_max_inflight(mut self, cap: u64) -> ServerState {
        self.max_inflight = cap.max(1);
        self
    }

    /// Overrides the per-request deadline (tests; production uses
    /// `EMOD_DEADLINE_MS`).
    pub fn with_deadline_ms(mut self, ms: Option<u64>) -> ServerState {
        self.deadline_ms = ms;
        self
    }

    /// Overrides the canary/rollout tuning (tests; production uses the
    /// `EMOD_CANARY_*` environment knobs).
    pub fn with_rollout_cfg(mut self, cfg: RolloutConfig) -> ServerState {
        self.rollout_cfg = cfg;
        self
    }

    /// Enables (or disables) the closed refresh loop with an explicit
    /// queue directory (tests; production uses `EMOD_REFRESH` /
    /// `EMOD_REFRESH_DIR`).
    pub fn with_refresh_dir(mut self, dir: Option<PathBuf>) -> ServerState {
        self.refresh_dir = dir;
        self
    }

    /// Runs `f` over the cached rollout entry for `base`, loading the
    /// persisted state on first access. Returns `None` when `base` has no
    /// rollout (the common case — cached negatively so the hot predict
    /// path stats the registry at most once per base).
    fn with_rollout<R>(&self, base: &str, f: impl FnOnce(&mut RolloutEntry) -> R) -> Option<R> {
        let mut map = telemetry::lock_or_recover(&self.rollouts);
        let slot = map.entry(base.to_string()).or_insert_with(|| {
            self.registry
                .load_rollout(base)
                .ok()
                .flatten()
                .map(RolloutEntry::new)
        });
        slot.as_mut().map(f)
    }

    /// Replaces the cached entry for `base` with the persisted state —
    /// used after a refresh cycle mutated the registry outside the cache.
    fn reload_rollout(&self, base: &str) {
        let fresh = self
            .registry
            .load_rollout(base)
            .ok()
            .flatten()
            .map(RolloutEntry::new);
        telemetry::lock_or_recover(&self.rollouts).insert(base.to_string(), fresh);
    }

    /// If the closed loop is enabled and the query's extrapolation score
    /// crossed `EMOD_REFRESH_ENQUEUE`, enqueue the raw point for
    /// re-measurement by the next refresh cycle.
    fn maybe_enqueue_refresh(&self, base: &str, raw: &[f64], extrapolation: Option<f64>) {
        let dir = match &self.refresh_dir {
            Some(d) => d,
            None => return,
        };
        let score = match extrapolation {
            Some(s) if s.is_finite() => s,
            _ => return,
        };
        if score < emod_quality::refresh_enqueue_threshold() {
            return;
        }
        match emod_core::refresh::RefreshQueue::open(dir, base) {
            Ok(mut q) => {
                if q.enqueue(raw) {
                    telemetry::counter_add("serve.rollout.enqueued", 1);
                    telemetry::event(
                        "rollout",
                        "refresh_enqueued",
                        &[
                            ("base", base.into()),
                            ("extrapolation", score.into()),
                            ("pending", (q.pending_len() as f64).into()),
                        ],
                    );
                }
            }
            Err(e) => eprintln!("emod-serve: refresh enqueue failed for {}: {}", base, e),
        }
    }

    /// Runs one refresh cycle for `base`, serialized process-wide (cycles
    /// measure and retrain — seconds, not microseconds), then refreshes
    /// the rollout cache from the state the cycle persisted.
    fn run_refresh(&self, base: &str) -> Result<crate::refresh::RefreshOutcome, String> {
        let dir = self.refresh_dir.clone().ok_or_else(|| {
            "refresh loop disabled (set EMOD_REFRESH=1 or EMOD_REFRESH_DIR)".to_string()
        })?;
        if self.refresh_busy.swap(true, Ordering::SeqCst) {
            return Err("a refresh cycle is already running".to_string());
        }
        let out = crate::refresh::run_refresh_cycle(&self.registry, base, &dir, &self.rollout_cfg);
        self.refresh_busy.store(false, Ordering::SeqCst);
        self.reload_rollout(base);
        out
    }

    /// Whether a graceful shutdown has been requested (command, handle, or
    /// signal).
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
    }

    /// Seconds since the state (i.e. the server) was created.
    pub fn uptime_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn enter_request(&self) -> u64 {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        telemetry::gauge_set("serve.in_flight", now as f64);
        now
    }

    fn leave_request(&self) {
        let now = self.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
        telemetry::gauge_set("serve.in_flight", now as f64);
    }

    /// Whether a request should be shed by the admission gate: more than
    /// `max_inflight` requests executing, and the command is not one of the
    /// always-admitted operational probes (`health`, `shutdown`).
    fn should_shed(&self, cmd: &str, in_flight_now: u64) -> bool {
        in_flight_now > self.max_inflight && !matches!(cmd, "health" | "shutdown")
    }
}

/// Resolves the refresh-queue directory from `EMOD_REFRESH` /
/// `EMOD_REFRESH_DIR`: either knob enables the closed loop, and the
/// directory defaults to `<registry>/refresh`.
fn refresh_dir_from_env(registry: &ModelRegistry) -> Option<PathBuf> {
    if let Ok(dir) = std::env::var(emod_core::REFRESH_DIR_ENV) {
        let dir = dir.trim();
        if !dir.is_empty() {
            return Some(PathBuf::from(dir));
        }
    }
    let on = std::env::var("EMOD_REFRESH")
        .map(|v| matches!(v.trim(), "1" | "true" | "on" | "yes"))
        .unwrap_or(false);
    if on {
        Some(registry.root().join("refresh"))
    } else {
        None
    }
}

/// One poll of the background refresh worker: for every registered base
/// whose refresh queue holds at least `min_points` pending points and
/// whose rollout is steady, run one refresh cycle. A live canary defers
/// its base — it must promote or roll back before the next candidate.
fn refresh_tick(state: &ServerState, min_points: usize) {
    let dir = match &state.refresh_dir {
        Some(d) => d.clone(),
        None => return,
    };
    let ids = match state.registry.list() {
        Ok(ids) => ids,
        Err(_) => return,
    };
    for base in ids {
        if state.shutting_down() {
            return;
        }
        if !emod_core::refresh::RefreshQueue::path_for(&dir, &base).exists() {
            continue;
        }
        let pending = match emod_core::refresh::RefreshQueue::open(&dir, &base) {
            Ok(q) => q.pending_len(),
            Err(_) => continue,
        };
        if pending < min_points {
            continue;
        }
        let steady = state
            .with_rollout(&base, |e| e.state.phase == RolloutPhase::Steady)
            .unwrap_or(true);
        if !steady {
            continue;
        }
        match state.run_refresh(&base) {
            Ok(out) => eprintln!(
                "emod-serve: auto-refresh published {}@v{} ({} points, test mape {:.2}%)",
                base, out.version, out.measured, out.test_mape
            ),
            Err(e) => eprintln!("emod-serve: auto-refresh of {} failed: {}", base, e),
        }
    }
}

/// Spawns the optional background refresh worker: with
/// `EMOD_REFRESH_AUTO` set (and the closed loop enabled), a polling
/// thread drains refresh queues that have accumulated
/// `EMOD_REFRESH_MIN_POINTS` points, running one measure→retrain→canary
/// cycle per eligible base.
pub(crate) fn spawn_refresh_worker(
    state: &Arc<ServerState>,
) -> io::Result<Option<thread::JoinHandle<()>>> {
    let auto_refresh = state.refresh_dir.is_some()
        && std::env::var("EMOD_REFRESH_AUTO")
            .map(|v| matches!(v.trim(), "1" | "true" | "on" | "yes"))
            .unwrap_or(false);
    if !auto_refresh {
        return Ok(None);
    }
    let state = Arc::clone(state);
    let poll_ms = std::env::var("EMOD_REFRESH_POLL_MS")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(500);
    let min_points = std::env::var("EMOD_REFRESH_MIN_POINTS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);
    let handle = thread::Builder::new()
        .name("emod-serve-refresh".to_string())
        .spawn(move || {
            while !state.shutting_down() {
                thread::sleep(Duration::from_millis(poll_ms));
                refresh_tick(&state, min_points);
            }
        })?;
    Ok(Some(handle))
}

/// Publishes the rollout gauges (`serve.rollout.*`) for the given state.
/// Phase is encoded numerically: steady 0, candidate 1, canary 2; a
/// missing canary version reads -1.
fn publish_rollout_gauges(state: &RolloutState) {
    let phase = match state.phase {
        RolloutPhase::Steady => 0.0,
        RolloutPhase::Candidate => 1.0,
        RolloutPhase::Canary => 2.0,
    };
    telemetry::gauge_set("serve.rollout.phase", phase);
    telemetry::gauge_set("serve.rollout.active_version", state.active as f64);
    telemetry::gauge_set(
        "serve.rollout.canary_version",
        state.canary.map(|v| v as f64).unwrap_or(-1.0),
    );
    telemetry::gauge_set("serve.rollout.canary_fraction", state.fraction);
}

/// Promotes the entry's canary to active. Both the `canary.promote` fault
/// probe and the state save gate the transition — failure at either point
/// auto-rolls-back to the last-known-good active version instead.
fn promote_entry(
    registry: &ModelRegistry,
    entry: &mut RolloutEntry,
    reason: &str,
) -> Result<u64, String> {
    let version = match entry.state.canary {
        Some(v) => v,
        None => return Err("no canary version to promote".to_string()),
    };
    // The probe sits inside catch_panic so an injected `panic:canary.promote`
    // exercises the same auto-rollback as an I/O failure.
    let attempt = faults::catch_panic(|| {
        faults::inject("canary.promote").map_err(|e| e.to_string())?;
        let mut next = entry.state.clone();
        next.prev = Some(next.active);
        next.active = version;
        next.canary = None;
        next.phase = RolloutPhase::Steady;
        next.record("promoted", version, reason);
        registry.save_rollout(&next).map_err(|e| e.to_string())?;
        Ok(next)
    })
    .and_then(|r| r);
    match attempt {
        Ok(next) => {
            entry.state = next;
            let cap = emod_quality::shadow_capacity();
            entry.active_shadow = ShadowRing::new(cap);
            entry.canary_shadow = ShadowRing::new(cap);
            telemetry::counter_add("serve.rollout.promotions", 1);
            telemetry::event(
                "rollout",
                "promoted",
                &[
                    ("base", entry.state.base.as_str().into()),
                    ("version", (version as f64).into()),
                    ("reason", reason.into()),
                ],
            );
            publish_rollout_gauges(&entry.state);
            Ok(version)
        }
        Err(e) => {
            rollback_entry(registry, entry, &format!("promote failed: {}", e));
            Err(e)
        }
    }
}

/// Rolls the entry back to steady serving on the active version. The
/// in-memory state flips first — serving degrades to last-known-good even
/// if persisting the rollback itself fails.
fn rollback_entry(registry: &ModelRegistry, entry: &mut RolloutEntry, reason: &str) -> Option<u64> {
    let version = entry.state.canary?;
    entry.state.phase = RolloutPhase::Steady;
    entry.state.canary = None;
    entry.state.record("rolled_back", version, reason);
    entry.canary_shadow = ShadowRing::new(emod_quality::shadow_capacity());
    telemetry::counter_add("serve.rollout.rollbacks", 1);
    telemetry::event(
        "rollout",
        "rolled_back",
        &[
            ("base", entry.state.base.as_str().into()),
            ("version", (version as f64).into()),
            ("reason", reason.into()),
        ],
    );
    if let Err(e) = registry.save_rollout(&entry.state) {
        eprintln!(
            "emod-serve: could not persist rollback of {}: {}",
            entry.state.base, e
        );
    }
    publish_rollout_gauges(&entry.state);
    Some(version)
}

/// Process-wide flag set by SIGTERM/SIGINT.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: a relaxed atomic store.
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that request a graceful shutdown. Safe
/// to call more than once.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

/// No-op on non-Unix targets.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// The prediction/tuning server: an epoll event loop that owns every
/// connection, in front of `workers` request-handler threads
/// ([`crate::reactor_front`], DESIGN.md §16).
#[derive(Debug)]
pub struct Server {
    pub(crate) listener: TcpListener,
    registry: Arc<ModelRegistry>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) workers: usize,
    /// Test override for `EMOD_DEADLINE_MS` (outer `None` = use the env).
    deadline_override: Option<Option<u64>>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port in tests) serving
    /// models from `registry` with `workers` handler threads. The handler
    /// count bounds concurrent requests, not concurrent connections.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(registry: Arc<ModelRegistry>, addr: &str, workers: usize) -> io::Result<Server> {
        // The stats command reads the in-process telemetry registry, so
        // collection is always on inside the server.
        telemetry::enable();
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            registry,
            shutdown: Arc::new(AtomicBool::new(false)),
            workers: workers.max(1),
            deadline_override: None,
        })
    }

    /// Overrides the per-request deadline (tests; production uses
    /// `EMOD_DEADLINE_MS`).
    pub fn with_deadline_ms(mut self, ms: Option<u64>) -> Server {
        self.deadline_override = Some(ms);
        self
    }

    /// The bound socket address.
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`Server::run`] return when set to `true`.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves until shutdown is requested (`shutdown` command, the
    /// [`Server::shutdown_handle`], or SIGTERM/SIGINT), then drains
    /// in-flight requests and returns.
    ///
    /// # Errors
    ///
    /// Propagates poller setup failures (`Unsupported` off Linux) and
    /// accept errors other than `WouldBlock`/`Interrupted`.
    pub fn run(self) -> io::Result<()> {
        let mut state = ServerState::new(Arc::clone(&self.registry), Arc::clone(&self.shutdown));
        if let Some(deadline) = self.deadline_override {
            state = state.with_deadline_ms(deadline);
        }
        crate::reactor_front::run(self, Arc::new(state))
    }
}

/// An error reply with a machine-readable `code` and a `retryable` hint.
/// Codes: `error` (request-level failure, not retryable), `bad_request`,
/// `request_too_large`, `overloaded`, `deadline_exceeded`,
/// `internal_error`. The client retry loop ([`crate::client`]) keys off
/// `retryable`, so transient server-side failures (shed load, panics,
/// deadlines) are marked and semantic errors are not.
fn err_code_response(code: &str, msg: impl Into<String>, retryable: bool) -> Json {
    telemetry::counter_add("serve.requests.errors", 1);
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("code", code.into()),
        ("retryable", Json::Bool(retryable)),
        ("error", msg.into().into()),
    ])
}

fn err_response(msg: impl Into<String>) -> Json {
    err_code_response("error", msg, false)
}

/// The oversized-request refusal sent before the connection closes.
pub(crate) fn too_large_response() -> Json {
    err_code_response(
        "request_too_large",
        format!("request line exceeds {} bytes", MAX_LINE_BYTES),
        false,
    )
}

/// An error response that also counts as a *bad* request (malformed JSON,
/// missing or unknown command) under `serve.requests.bad`.
fn bad_response(msg: impl Into<String>) -> Json {
    telemetry::counter_add("serve.requests.bad", 1);
    err_code_response("bad_request", msg, false)
}

/// Handles one request line, returning the response and whether the
/// connection should close afterwards.
pub fn handle_request(state: &ServerState, request: &str) -> (Json, bool) {
    handle_request_full(state, "", request, 0.0, Instant::now())
}

/// The full request pipeline with the owning connection's id, the time
/// the request waited for a handler thread, and its arrival instant.
/// Latency and the deadline both count from arrival, so the dispatch wait
/// is part of every request's budget.
pub(crate) fn handle_request_full(
    state: &ServerState,
    conn_id: &str,
    request: &str,
    queue_wait_ms: f64,
    arrived: Instant,
) -> (Json, bool) {
    // The whole request is one trace: spans opened by the handler on this
    // thread (GA generations during tune, artifact loads, …) nest under it.
    let root = telemetry::trace_root("serve.request");
    let start = arrived;
    let in_flight_now = state.enter_request();
    telemetry::counter_add("serve.requests.total", 1);

    let parsed = Json::parse(request);
    let cmd = parsed
        .as_ref()
        .ok()
        .and_then(|v| v.get("cmd").and_then(Json::as_str))
        .unwrap_or("")
        .to_string();
    let known = COMMANDS.contains(&cmd.as_str());
    if known {
        telemetry::counter_add(&format!("serve.requests.{}", cmd), 1);
    }

    let (mut response, close) = match parsed {
        Err(e) => (bad_response(format!("bad request: {}", e)), false),
        Ok(_) if cmd.is_empty() => (bad_response("missing \"cmd\""), false),
        Ok(_) if !known => (bad_response(format!("unknown command {:?}", cmd)), false),
        Ok(_) if state.should_shed(&cmd, in_flight_now) => {
            telemetry::counter_add("serve.requests.shed", 1);
            telemetry::event(
                "serve",
                "shed",
                &[
                    ("cmd", cmd.as_str().into()),
                    ("in_flight", in_flight_now.into()),
                    ("max_inflight", state.max_inflight.into()),
                ],
            );
            let mut resp = err_code_response(
                "overloaded",
                format!(
                    "server overloaded ({} requests in flight, cap {})",
                    in_flight_now, state.max_inflight
                ),
                true,
            );
            // Retry-After-style backoff hint: the deeper past the cap the
            // request landed, the longer the client should hold off. The
            // retrying client folds this into its delay schedule.
            let over = in_flight_now.saturating_sub(state.max_inflight);
            if let Json::Obj(fields) = &mut resp {
                fields.push((
                    "retry_after_ms".to_string(),
                    Json::from(25u64.saturating_mul(over.clamp(1, 40))),
                ));
            }
            (resp, false)
        }
        Ok(parsed) => guarded_dispatch(state, &cmd, &parsed),
    };

    // Deadline check happens after the handler returns: the work is not
    // cancelled mid-flight (handlers are synchronous), but a response that
    // arrives past the deadline is replaced so the client never acts on a
    // late success it already gave up on.
    if let Some(deadline_ms) = state.deadline_ms {
        if cmd != "shutdown" && start.elapsed().as_millis() as u64 > deadline_ms {
            telemetry::counter_add("serve.requests.deadline_exceeded", 1);
            telemetry::event(
                "serve",
                "deadline_exceeded",
                &[
                    ("cmd", cmd.as_str().into()),
                    ("deadline_ms", deadline_ms.into()),
                    ("elapsed_ms", (start.elapsed().as_millis() as u64).into()),
                ],
            );
            response = err_code_response(
                "deadline_exceeded",
                format!("request exceeded the {}ms deadline", deadline_ms),
                true,
            );
        }
    }

    let latency_us = start.elapsed().as_secs_f64() * 1e6;
    if known {
        telemetry::observe(&format!("serve.latency_us.{}", cmd), latency_us);
    }
    let status_ok = response.get("ok") == Some(&Json::Bool(true));
    if known {
        // Latency from arrival, including the wait for a handler thread
        // (`queue_wait_ms`): the same instant the deadline counts from, so
        // the SLO window sees what the client saw once its line was read.
        state.record_slo(&cmd, latency_us / 1000.0, status_ok);
    }
    if telemetry::enabled() {
        let trace_id = root.context().map(|c| c.trace_hex()).unwrap_or_default();
        let model = response
            .get("model")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        // Quality threshold breaches tag the access line so an operator can
        // grep risky predictions straight out of the access log.
        let quality_warn = response
            .get("quality")
            .and_then(|q| q.get("warnings"))
            .and_then(Json::as_array)
            .map(|ws| {
                ws.iter()
                    .filter_map(Json::as_str)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default();
        let mut fields: Vec<(&str, telemetry::Value)> = vec![
            ("conn", conn_id.into()),
            ("trace", trace_id.into()),
            ("cmd", cmd.as_str().into()),
            ("model", model.into()),
            (
                "status",
                if status_ok {
                    "ok".into()
                } else {
                    "error".into()
                },
            ),
            ("latency_us", latency_us.into()),
            ("queue_wait_ms", queue_wait_ms.into()),
            ("bytes_in", request.len().into()),
            ("bytes_out", response.to_string().len().into()),
        ];
        if !quality_warn.is_empty() {
            fields.push(("quality_warn", quality_warn.into()));
        }
        telemetry::event("serve", "access", &fields);
    }
    if let Some(threshold_ms) = slow_threshold_ms() {
        if latency_us / 1000.0 > threshold_ms {
            telemetry::counter_add("serve.requests.slow", 1);
            telemetry::event(
                "serve",
                "slow_request",
                &[
                    ("cmd", cmd.as_str().into()),
                    ("latency_us", latency_us.into()),
                    ("threshold_ms", threshold_ms.into()),
                ],
            );
            eprintln!(
                "emod-serve: slow request cmd={} took {:.1}ms (EMOD_SLOW_MS={})",
                cmd,
                latency_us / 1000.0,
                threshold_ms
            );
        }
    }
    state.leave_request();
    (response, close)
}

/// [`dispatch`] behind the fault probe and a per-request `catch_unwind`:
/// a panicking handler (a model-family bug, an injected `panic` fault)
/// answers `internal_error` and the worker thread survives to take the
/// next request.
fn guarded_dispatch(state: &ServerState, cmd: &str, parsed: &Json) -> (Json, bool) {
    let attempt = faults::catch_panic(|| {
        faults::inject("serve.handle").map(|()| dispatch(state, cmd, parsed))
    });
    match attempt {
        Ok(Ok(result)) => result,
        Ok(Err(e)) => {
            telemetry::counter_add("serve.requests.failed", 1);
            telemetry::event(
                "serve",
                "handler_error",
                &[
                    ("cmd", cmd.into()),
                    ("error", e.to_string().as_str().into()),
                ],
            );
            (
                err_code_response("internal_error", format!("handler error: {}", e), true),
                false,
            )
        }
        Err(panic_msg) => {
            telemetry::counter_add("serve.requests.panicked", 1);
            telemetry::event(
                "serve",
                "handler_panic",
                &[("cmd", cmd.into()), ("panic", panic_msg.as_str().into())],
            );
            eprintln!(
                "emod-serve: request handler panicked (cmd={}): {}",
                cmd, panic_msg
            );
            (
                err_code_response(
                    "internal_error",
                    format!("handler panicked: {}", panic_msg),
                    true,
                ),
                false,
            )
        }
    }
}

/// Routes a parsed request with a known command. During a graceful drain
/// every command but `shutdown` is refused and the connection closes.
fn dispatch(state: &ServerState, cmd: &str, parsed: &Json) -> (Json, bool) {
    if state.shutting_down() && cmd != "shutdown" {
        let refusal = if cmd == "health" {
            Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("status", "shutting_down".into()),
                ("uptime_s", state.uptime_s().into()),
            ])
        } else {
            err_response("shutting down")
        };
        return (refusal, true);
    }
    match cmd {
        "list_models" => (cmd_list_models(&state.registry), false),
        "predict" => (cmd_predict(state, parsed, false), false),
        "predict_batch" => (cmd_predict(state, parsed, true), false),
        "explain" => (cmd_explain(state, parsed), false),
        "tune" => (cmd_tune(state, parsed), false),
        "observe" => (cmd_observe(state, parsed), false),
        "rollout" => (cmd_rollout(state, parsed), false),
        "promote" => (cmd_promote(state, parsed), false),
        "rollback" => (cmd_rollback(state, parsed), false),
        "refresh" => (cmd_refresh(state, parsed), false),
        "stats" => (cmd_stats(state), false),
        "health" => (cmd_health(state), false),
        "metrics" => (cmd_metrics(state), false),
        "shutdown" => {
            state.shutdown.store(true, Ordering::SeqCst);
            (
                Json::obj(vec![("ok", Json::Bool(true)), ("bye", Json::Bool(true))]),
                true,
            )
        }
        _ => unreachable!("dispatch() is only called for known commands"),
    }
}

fn cmd_list_models(registry: &ModelRegistry) -> Json {
    let ids = match registry.list() {
        Ok(ids) => ids,
        Err(e) => return err_response(e.to_string()),
    };
    let mut models = Vec::new();
    for id in ids {
        match registry.load(&id) {
            Ok(art) => models.push(art.meta_json()),
            Err(e) => models.push(Json::obj(vec![
                ("id", id.into()),
                ("error", e.to_string().into()),
            ])),
        }
    }
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("count", models.len().into()),
        ("models", Json::Arr(models)),
    ])
}

/// Resolves the model a request addresses: either an explicit `"model"` id,
/// or selector fields (`workload` substring + optional `family`,
/// `input_set`, `metric`, `scale`, `seed`) matched against registry
/// metadata in sorted-id order.
fn resolve_model(registry: &ModelRegistry, req: &Json) -> Result<Arc<ModelArtifact>, String> {
    if let Some(id) = req.get("model").and_then(Json::as_str) {
        return registry.load(id).map_err(|e| e.to_string());
    }
    let workload = req
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("request needs \"model\" (id) or \"workload\" (selector)")?;
    let family = match req.get("family").and_then(Json::as_str) {
        Some(name) => {
            Some(family_from_name(name).ok_or_else(|| format!("unknown family {:?}", name))?)
        }
        None => None,
    };
    let want_str = |key: &str| req.get(key).and_then(Json::as_str).map(str::to_string);
    let input_set = want_str("input_set");
    let metric = want_str("metric");
    let scale = want_str("scale");
    let seed = req.get("seed").and_then(Json::as_u64);
    for id in registry.list().map_err(|e| e.to_string())? {
        let art = match registry.load(&id) {
            Ok(a) => a,
            Err(_) => continue,
        };
        let m = &art.meta;
        let matches = m.workload.contains(workload)
            && family.is_none_or(|f| f == m.family)
            && input_set.as_deref().is_none_or(|s| s == m.input_set)
            && metric.as_deref().is_none_or(|s| s == m.metric)
            && scale.as_deref().is_none_or(|s| s == m.scale)
            && seed.is_none_or(|s| s == m.seed);
        if matches {
            return Ok(art);
        }
    }
    Err(format!(
        "no artifact matches workload {:?} (and the other selector fields)",
        workload
    ))
}

/// Parses one query point: either a raw 25-value array or a shorthand
/// string `"<opt>@<platform>"` with opt in `o0|o2|o3` and platform in
/// `constrained|typical|aggressive` (e.g. `"o2@typical"`).
fn parse_point(v: &Json, dim: usize) -> Result<Vec<f64>, String> {
    match v {
        Json::Arr(items) => {
            let mut point = Vec::with_capacity(items.len());
            for item in items {
                point.push(
                    item.as_f64()
                        .ok_or("point arrays must contain only numbers")?,
                );
            }
            if point.len() != dim {
                return Err(format!(
                    "point has {} values, the model's space has {}",
                    point.len(),
                    dim
                ));
            }
            Ok(point)
        }
        Json::Str(s) => {
            let (opt_name, platform_name) = s
                .split_once('@')
                .ok_or_else(|| format!("shorthand point {:?} is not \"<opt>@<platform>\"", s))?;
            let opt = match opt_name {
                "o0" => OptConfig::o0(),
                "o2" => OptConfig::o2(),
                "o3" => OptConfig::o3(),
                other => return Err(format!("unknown opt preset {:?} (o0|o2|o3)", other)),
            };
            let platform = lookup_platform(platform_name)?;
            Ok(encode_point(&opt, &platform))
        }
        _ => Err("each point must be an array of raw values or \"<opt>@<platform>\"".into()),
    }
}

fn lookup_platform(name: &str) -> Result<emod_uarch::UarchConfig, String> {
    reference_configs()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, c)| c)
        .ok_or_else(|| {
            format!(
                "unknown platform {:?} (constrained|typical|aggressive)",
                name
            )
        })
}

/// Sibling artifacts of `art`: same workload/input-set/metric/scale/seed
/// under the other model families, when the registry holds them. Used for
/// cross-family disagreement scoring.
fn sibling_artifacts(registry: &ModelRegistry, art: &ModelArtifact) -> Vec<Arc<ModelArtifact>> {
    ModelFamily::all()
        .into_iter()
        .filter(|f| *f != art.meta.family)
        .filter_map(|f| {
            let mut meta = art.meta.clone();
            meta.family = f;
            registry.load(&meta.id()).ok()
        })
        .collect()
}

/// Per-prediction model-quality signals (DESIGN.md §12).
struct QualitySignals {
    /// Normalized distance from the query to the training design (`None`
    /// for v1 artifacts without a persisted [`emod_quality::DesignSummary`]).
    extrapolation: Option<f64>,
    /// Whether the query sits inside the training design's bounding box.
    in_hull: Option<bool>,
    /// Relative spread across sibling-family predictions (`None` when no
    /// sibling artifact is registered).
    disagreement: Option<f64>,
    /// `(family slug, prediction)` per participating family, primary first.
    family_predictions: Vec<(&'static str, f64)>,
    /// Threshold breaches: `"extrapolation"` and/or `"disagreement"`.
    warnings: Vec<&'static str>,
}

/// Scores one prediction: extrapolation against the artifact's persisted
/// design summary, disagreement against sibling-family artifacts, and the
/// `EMOD_EXTRAP_WARN`/`EMOD_DISAGREE_WARN` threshold checks. Records the
/// `serve.quality.*` histograms/counters and emits a structured
/// `quality_warn` event per breach.
fn quality_signals(
    art: &ModelArtifact,
    siblings: &[Arc<ModelArtifact>],
    raw: &[f64],
    coded: &[f64],
    prediction: f64,
) -> QualitySignals {
    let extrapolation = art
        .quality
        .as_ref()
        .and_then(|s| s.extrapolation(art.train.points(), coded));
    let in_hull = art.quality.as_ref().map(|s| s.in_hull(coded));
    let mut family_predictions = vec![(family_slug(art.meta.family), prediction)];
    for sib in siblings {
        let p = sib.model.predict(&sib.space.encode(raw));
        family_predictions.push((family_slug(sib.meta.family), p));
    }
    let spread: Vec<f64> = family_predictions.iter().map(|(_, p)| *p).collect();
    let disagree = disagreement(&spread);
    let mut warnings = Vec::new();
    if let Some(x) = extrapolation {
        telemetry::observe("serve.quality.extrapolation", x);
        let threshold = emod_quality::extrap_warn_threshold();
        if x >= threshold {
            warnings.push("extrapolation");
            telemetry::counter_add("serve.quality.extrap_warnings", 1);
            telemetry::event(
                "serve",
                "quality_warn",
                &[
                    ("kind", "extrapolation".into()),
                    ("model", art.id().as_str().into()),
                    ("value", x.into()),
                    ("threshold", threshold.into()),
                ],
            );
        }
    }
    if let Some(d) = disagree {
        telemetry::observe("serve.quality.disagreement", d);
        telemetry::gauge_set("serve.quality.disagreement_last", d);
        let threshold = emod_quality::disagree_warn_threshold();
        if d >= threshold {
            warnings.push("disagreement");
            telemetry::counter_add("serve.quality.disagree_warnings", 1);
            telemetry::event(
                "serve",
                "quality_warn",
                &[
                    ("kind", "disagreement".into()),
                    ("model", art.id().as_str().into()),
                    ("value", d.into()),
                    ("threshold", threshold.into()),
                ],
            );
        }
    }
    QualitySignals {
        extrapolation,
        in_hull,
        disagreement: disagree,
        family_predictions,
        warnings,
    }
}

/// The `"quality"` response block shared by `predict` and `explain`.
fn quality_json(sig: &QualitySignals) -> Json {
    Json::obj(vec![
        (
            "extrapolation",
            sig.extrapolation.map_or(Json::Null, Json::Num),
        ),
        ("in_hull", sig.in_hull.map_or(Json::Null, Json::Bool)),
        (
            "disagreement",
            sig.disagreement.map_or(Json::Null, Json::Num),
        ),
        (
            "families",
            Json::Obj(
                sig.family_predictions
                    .iter()
                    .map(|(f, p)| (f.to_string(), Json::Num(*p)))
                    .collect(),
            ),
        ),
        (
            "warnings",
            Json::Arr(sig.warnings.iter().map(|w| Json::from(*w)).collect()),
        ),
    ])
}

/// Remembers `(model, point) -> prediction` so a later `observe` with the
/// measured value can be paired with what the model actually said, and
/// emits the `quality.prediction` trail event the `emod-trace quality`
/// analyzer consumes.
fn log_prediction(
    state: &ServerState,
    id: &str,
    raw: &[f64],
    predicted: f64,
    sig: &QualitySignals,
) {
    telemetry::lock_or_recover(&state.quality)
        .predictions
        .log(id, raw, predicted);
    let mut fields: Vec<(&str, telemetry::Value)> =
        vec![("model", id.into()), ("prediction", predicted.into())];
    if let Some(x) = sig.extrapolation {
        fields.push(("extrapolation", x.into()));
    }
    if let Some(d) = sig.disagreement {
        fields.push(("disagreement", d.into()));
    }
    if !sig.warnings.is_empty() {
        fields.push(("warn", sig.warnings.join(",").as_str().into()));
    }
    telemetry::event("quality", "prediction", &fields);
}

/// Which artifact actually serves a request after canary routing.
struct Serving {
    art: Arc<ModelArtifact>,
    /// Base artifact id. Version artifacts share their base's metadata, so
    /// this is the id responses report and observations pair against.
    base: String,
    /// Version serving the request (0 = the unversioned base file).
    version: u64,
    /// `"active"`, `"canary"`, or `"pinned"` (explicit `@v` id).
    lane: &'static str,
    /// Whether a rollout state exists for the base — controls whether the
    /// response grows `serving`/`version` fields (legacy responses stay
    /// byte-identical for bases that never refreshed).
    tracked: bool,
}

impl Serving {
    /// Key predictions are logged under, so a later `observe` pairs the
    /// ground truth with the lane that actually answered.
    fn key(&self) -> String {
        version_id(&self.base, self.version)
    }

    /// Pushes the rollout response fields when the base is tracked.
    fn push_fields(&self, fields: &mut Vec<(&str, Json)>) {
        if self.tracked {
            fields.push(("serving", self.lane.into()));
            fields.push(("version", self.version.into()));
        }
    }
}

/// Resolves the lane a request is served from. Pinned `"<base>@vN"` ids
/// bypass routing; otherwise, during a live canary, a deterministic hash
/// of the request's points routes `fraction` of traffic to the canary
/// version — content-based and seeded, so the split is reproducible at
/// any `EMOD_THREADS`. A canary artifact that fails to even load rolls
/// the rollout back on the spot; a missing active version file degrades
/// to the unversioned base artifact.
///
/// `route` carries the request's parsed points; `None` (tune) never
/// routes to the canary — canaries are scored on predict/observe traffic.
fn select_serving(
    state: &ServerState,
    art: Arc<ModelArtifact>,
    req: &Json,
    route: Option<&[Vec<f64>]>,
) -> Serving {
    if let Some(id) = req.get("model").and_then(Json::as_str) {
        if let Some((base, version)) = split_version(id) {
            return Serving {
                art,
                base: base.to_string(),
                version,
                lane: "pinned",
                tracked: true,
            };
        }
    }
    let base = art.id();
    let routed = state.with_rollout(&base, |entry| {
        publish_rollout_gauges(&entry.state);
        let canary = match (entry.state.phase, entry.state.canary, route) {
            (RolloutPhase::Canary, Some(v), Some(points)) => {
                let h = route_hash(state.rollout_cfg.seed, &base, points);
                if routes_to_canary(h, entry.state.fraction) {
                    Some(v)
                } else {
                    None
                }
            }
            _ => None,
        };
        (entry.state.active, canary)
    });
    let (active, canary) = match routed {
        Some(r) => r,
        None => {
            return Serving {
                art,
                base,
                version: 0,
                lane: "active",
                tracked: false,
            }
        }
    };
    if let Some(v) = canary {
        match state.registry.load_version(&base, v) {
            Ok(canary_art) => {
                telemetry::counter_add("serve.rollout.canary_requests", 1);
                return Serving {
                    art: canary_art,
                    base,
                    version: v,
                    lane: "canary",
                    tracked: true,
                };
            }
            Err(e) => {
                state.with_rollout(&base, |entry| {
                    rollback_entry(
                        &state.registry,
                        entry,
                        &format!("canary artifact unloadable: {}", e),
                    );
                });
            }
        }
    }
    if active > 0 {
        if let Ok(active_art) = state.registry.load_version(&base, active) {
            return Serving {
                art: active_art,
                base,
                version: active,
                lane: "active",
                tracked: true,
            };
        }
    }
    Serving {
        art,
        base,
        version: 0,
        lane: "active",
        tracked: true,
    }
}

/// The canary gate, run on every `observe` while a canary is live: both
/// lanes are scored against the ground truth, and the updated rolling
/// shadow MAPEs plus the SLO burn rate drive the promote / hold /
/// rollback decision. Promotion passes the `canary.promote` fault probe
/// and the state save — failure at either point auto-rolls-back.
fn observe_canary(
    state: &ServerState,
    base: &str,
    canary_version: u64,
    raw: &[f64],
    measured: f64,
    active_predicted: f64,
) -> Json {
    let canary_key = version_id(base, canary_version);
    let logged = telemetry::lock_or_recover(&state.quality)
        .predictions
        .lookup(&canary_key, raw);
    let canary_predicted = logged.or_else(|| {
        state
            .registry
            .load_version(base, canary_version)
            .ok()
            .map(|a| a.model.predict(&a.space.encode(raw)))
    });
    let canary_predicted = match canary_predicted {
        Some(p) => p,
        None => {
            state.with_rollout(base, |entry| {
                rollback_entry(&state.registry, entry, "canary artifact unloadable");
            });
            return Json::obj(vec![
                ("phase", "steady".into()),
                ("verdict", "rollback".into()),
                ("reason", "canary artifact unloadable".into()),
            ]);
        }
    };
    // Burn rate is computed outside the rollout lock: the SLO tracker has
    // its own mutex and the gate only needs a point-in-time reading.
    let slo = state.slo_snapshot();
    let burn = match (slo.availability_burn, slo.latency_burn) {
        (Some(a), Some(l)) => Some(a.max(l)),
        (a, l) => a.or(l),
    };
    let cfg = &state.rollout_cfg;
    state
        .with_rollout(base, |entry| {
            entry.active_shadow.record(active_predicted, measured);
            entry.canary_shadow.record(canary_predicted, measured);
            let active_mape = entry.active_shadow.mape();
            let canary_mape = entry.canary_shadow.mape();
            let pairs = entry.canary_shadow.len();
            telemetry::gauge_set("serve.rollout.canary_pairs", pairs as f64);
            if let Some(m) = active_mape {
                telemetry::gauge_set("serve.rollout.active_mape", m);
            }
            if let Some(m) = canary_mape {
                telemetry::gauge_set("serve.rollout.canary_mape", m);
            }
            let mut verdict = shadow_verdict(
                active_mape,
                canary_mape,
                pairs,
                cfg.min_obs,
                cfg.improve_margin,
                cfg.regress_margin,
            );
            let mut reason = format!(
                "canary mape {:.3}% vs active {:.3}% over {} pairs",
                canary_mape.unwrap_or(f64::NAN),
                active_mape.unwrap_or(f64::NAN),
                pairs
            );
            if let Some(b) = burn {
                if b > cfg.max_burn {
                    verdict = ShadowVerdict::Rollback;
                    reason = format!("slo burn {:.2} exceeds cap {:.2}", b, cfg.max_burn);
                }
            }
            let verdict_name = match verdict {
                ShadowVerdict::Promote => match promote_entry(&state.registry, entry, &reason) {
                    Ok(_) => "promote",
                    Err(_) => "rollback",
                },
                ShadowVerdict::Rollback => {
                    rollback_entry(&state.registry, entry, &reason);
                    "rollback"
                }
                ShadowVerdict::Hold => "hold",
            };
            Json::obj(vec![
                ("phase", entry.state.phase.name().into()),
                ("canary_version", canary_version.into()),
                ("pairs", pairs.into()),
                ("active_mape", active_mape.map_or(Json::Null, Json::Num)),
                ("canary_mape", canary_mape.map_or(Json::Null, Json::Num)),
                ("verdict", verdict_name.into()),
                ("reason", reason.into()),
            ])
        })
        .unwrap_or(Json::Null)
}

fn cmd_predict(state: &ServerState, req: &Json, batch: bool) -> Json {
    let registry = &state.registry;
    let art = match resolve_model(registry, req) {
        Ok(a) => a,
        Err(e) => return err_response(e),
    };
    let dim = art.space.len();
    let points: Vec<&Json> = if batch {
        match req.get("points").and_then(Json::as_array) {
            Some(items) => items.iter().collect(),
            None => return err_response("predict_batch needs a \"points\" array"),
        }
    } else {
        match req.get("point") {
            Some(p) => vec![p],
            None => return err_response("predict needs a \"point\""),
        }
    };
    let mut raws = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        match parse_point(p, dim) {
            Ok(r) => raws.push(r),
            Err(e) => return err_response(format!("point {}: {}", i, e)),
        }
    }
    // Canary routing happens after point parsing: the route hash is a
    // function of the request's content, so the same query always lands in
    // the same lane regardless of connection or thread interleaving.
    let serving = select_serving(state, art, req, Some(&raws));
    let art = &serving.art;
    // Shard large batches across the measurement pool: each prediction is a
    // pure function of its point, so the response is bit-identical to the
    // sequential loop at any `EMOD_THREADS`. Small batches stay inline —
    // spawning workers costs more than the predictions themselves.
    let pool = emod_par::Pool::from_env();
    let predictions: Vec<Json> = if raws.len() >= PARALLEL_BATCH_MIN && pool.threads() > 1 {
        pool.map(&raws, |_i, raw| {
            Json::Num(art.model.predict(&art.space.encode(raw)))
        })
    } else {
        raws.iter()
            .map(|raw| Json::Num(art.model.predict(&art.space.encode(raw))))
            .collect()
    };
    telemetry::counter_add("serve.predictions", predictions.len() as u64);
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("model", serving.base.as_str().into()),
        ("family", family_slug(art.meta.family).into()),
    ];
    serving.push_fields(&mut fields);
    if batch {
        // Batch is the throughput path (sharded above): quality scoring is
        // reserved for single predict/explain so the parallel speedup the
        // bench gates on is not diluted by sequential sibling predicts.
        fields.push(("predictions", Json::Arr(predictions)));
    } else {
        let prediction = predictions
            .into_iter()
            .next()
            .and_then(|j| j.as_f64())
            .expect("one numeric prediction");
        let raw = &raws[0];
        let coded = art.space.encode(raw);
        let siblings = sibling_artifacts(registry, art);
        let sig = quality_signals(art, &siblings, raw, &coded, prediction);
        log_prediction(state, &serving.key(), raw, prediction, &sig);
        // High-extrapolation queries are exactly the design points the
        // model has not covered — feed them to the refresh loop.
        state.maybe_enqueue_refresh(&serving.base, raw, sig.extrapolation);
        fields.push(("prediction", Json::Num(prediction)));
        fields.push(("quality", quality_json(&sig)));
    }
    Json::obj(fields)
}

fn cmd_explain(state: &ServerState, req: &Json) -> Json {
    let registry = &state.registry;
    let art = match resolve_model(registry, req) {
        Ok(a) => a,
        Err(e) => return err_response(e),
    };
    let point = match req.get("point") {
        Some(p) => p,
        None => return err_response("explain needs a \"point\""),
    };
    let raw = match parse_point(point, art.space.len()) {
        Ok(r) => r,
        Err(e) => return err_response(format!("point: {}", e)),
    };
    let route = vec![raw.clone()];
    let serving = select_serving(state, art, req, Some(&route));
    let art = &serving.art;
    let coded = art.space.encode(&raw);
    let prediction = art.model.predict(&coded);
    let parts = art.model.explain(&coded);
    let reconstruction = emod_models::attribution_total(&parts);
    let siblings = sibling_artifacts(registry, art);
    let sig = quality_signals(art, &siblings, &raw, &coded, prediction);
    log_prediction(state, &serving.key(), &raw, prediction, &sig);
    state.maybe_enqueue_refresh(&serving.base, &raw, sig.extrapolation);
    telemetry::counter_add("serve.explains", 1);
    let attributions: Vec<Json> = parts
        .iter()
        .map(|a| {
            Json::obj(vec![
                ("term", a.term.as_str().into()),
                (
                    "variables",
                    Json::Arr(a.variables.iter().map(|&v| Json::from(v)).collect()),
                ),
                ("value", a.value.into()),
            ])
        })
        .collect();
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("model", serving.base.as_str().into()),
        ("family", family_slug(art.meta.family).into()),
    ];
    serving.push_fields(&mut fields);
    fields.extend(vec![
        ("prediction", prediction.into()),
        ("reconstruction", reconstruction.into()),
        ("terms", attributions.len().into()),
        ("attributions", Json::Arr(attributions)),
        ("quality", quality_json(&sig)),
    ]);
    Json::obj(fields)
}

/// `observe`: feed a ground-truth measurement back for a point the server
/// predicted earlier. The pair enters the bounded shadow ring and refreshes
/// the rolling accuracy-drift gauges (`serve.quality.shadow_*`). An
/// optional `"tier"` string tags the observation with the measurement tier
/// that produced it (`tier0`/`smarts`/`detailed`), echoed in the response
/// and the `quality.observation` event.
fn cmd_observe(state: &ServerState, req: &Json) -> Json {
    let art = match resolve_model(&state.registry, req) {
        Ok(a) => a,
        Err(e) => return err_response(e),
    };
    let point = match req.get("point") {
        Some(p) => p,
        None => return err_response("observe needs a \"point\""),
    };
    let raw = match parse_point(point, art.space.len()) {
        Ok(r) => r,
        Err(e) => return err_response(format!("point: {}", e)),
    };
    let measured = match req.get("measured").and_then(Json::as_f64) {
        Some(m) if m.is_finite() => m,
        _ => return err_response("observe needs a finite numeric \"measured\" value"),
    };
    // Which measurement tier produced this ground truth ("tier0", "smarts",
    // "detailed"). Optional and free-form: surrogate-produced observations
    // carry the surrogate's own error, so drift consumers need the tag.
    let tier = match req.get("tier") {
        None => None,
        Some(t) => match t.as_str() {
            Some(s) => Some(s.to_string()),
            None => return err_response("\"tier\" must be a string when present"),
        },
    };
    let base = art.id();
    // The active lane may be a promoted version file rather than the base
    // artifact: pair and score against what is actually serving. While a
    // canary is live, this observation also feeds the canary gate below.
    let lanes = state.with_rollout(&base, |e| {
        let canary = if e.state.phase == RolloutPhase::Canary {
            e.state.canary
        } else {
            None
        };
        (e.state.active, canary)
    });
    let (active_version, canary_version) = lanes.unwrap_or((0, None));
    let active_art = if active_version > 0 {
        state
            .registry
            .load_version(&base, active_version)
            .unwrap_or_else(|_| art.clone())
    } else {
        art.clone()
    };
    let id = version_id(&base, active_version);
    let mut quality = telemetry::lock_or_recover(&state.quality);
    // Pair against what the server actually answered for this point if the
    // prediction is still in the log; otherwise predict fresh (the model is
    // deterministic, so the value is identical unless the artifact was
    // republished in between).
    let (predicted, paired) = match quality.predictions.lookup(&id, &raw) {
        Some(p) => (p, true),
        None => (
            active_art.model.predict(&active_art.space.encode(&raw)),
            false,
        ),
    };
    quality.shadow.record(predicted, measured);
    let pairs = quality.shadow.len();
    let observed = quality.shadow.observed();
    let mape = quality.shadow.mape();
    let max_ape = quality.shadow.max_ape();
    drop(quality);
    telemetry::counter_add("serve.quality.observations", 1);
    if paired {
        telemetry::counter_add("serve.quality.shadow_hits", 1);
    }
    telemetry::gauge_set("serve.quality.shadow_pairs", pairs as f64);
    if let Some(m) = mape {
        telemetry::gauge_set("serve.quality.shadow_mape", m);
    }
    if let Some(m) = max_ape {
        telemetry::gauge_set("serve.quality.shadow_max_ape", m);
    }
    let ape = if measured != 0.0 {
        Some(((predicted - measured) / measured).abs() * 100.0)
    } else {
        None
    };
    let mut fields: Vec<(&str, telemetry::Value)> = vec![
        ("model", id.as_str().into()),
        ("predicted", predicted.into()),
        ("measured", measured.into()),
        ("paired", paired.into()),
    ];
    if let Some(a) = ape {
        fields.push(("ape", a.into()));
    }
    if let Some(m) = mape {
        fields.push(("shadow_mape", m.into()));
    }
    if let Some(t) = &tier {
        fields.push(("tier", t.as_str().into()));
    }
    telemetry::event("quality", "observation", &fields);
    // The canary gate runs after the legacy bookkeeping so a promote or
    // rollback triggered by this very observation is reflected in the
    // response's `rollout` block.
    let rollout =
        canary_version.map(|cv| observe_canary(state, &base, cv, &raw, measured, predicted));
    let mut out = vec![
        ("ok", Json::Bool(true)),
        ("model", id.into()),
        ("predicted", predicted.into()),
        ("measured", measured.into()),
        ("paired", Json::Bool(paired)),
        ("ape", ape.map_or(Json::Null, Json::Num)),
        ("shadow_pairs", pairs.into()),
        ("shadow_observed", observed.into()),
        ("shadow_mape", mape.map_or(Json::Null, Json::Num)),
        ("shadow_max_ape", max_ape.map_or(Json::Null, Json::Num)),
        ("tier", tier.map_or(Json::Null, Json::Str)),
    ];
    if let Some(r) = rollout {
        out.push(("rollout", r));
    }
    Json::obj(out)
}

fn cmd_tune(state: &ServerState, req: &Json) -> Json {
    let registry = &state.registry;
    // In a tune request "seed" seeds the GA; strip it before model
    // resolution so it is not mistaken for the artifact-selector seed.
    let selector = match req {
        Json::Obj(pairs) => Json::Obj(pairs.iter().filter(|(k, _)| k != "seed").cloned().collect()),
        other => other.clone(),
    };
    let art = match resolve_model(registry, &selector) {
        Ok(a) => a,
        Err(e) => return err_response(e),
    };
    // Tunes always serve the active lane (route = None): a canary earns
    // promotion on predict/observe traffic, not by steering flag search.
    let serving = select_serving(state, art, &selector, None);
    let art = &serving.art;
    let platform_name = req
        .get("platform")
        .and_then(Json::as_str)
        .unwrap_or("typical");
    let platform = match lookup_platform(platform_name) {
        Ok(p) => p,
        Err(e) => return err_response(e),
    };
    let seed = req.get("seed").and_then(Json::as_u64).unwrap_or(1);
    let tuned = search_flags_surrogate(&art.space, &art.model, &platform, seed);
    // The baseline the paper tunes against: the model's own prediction at
    // -O2 on the same platform (clamped like the GA objective).
    let o2_point = encode_point(&OptConfig::o2(), &platform);
    let o2_pred = art.model.predict(&art.space.encode(&o2_point)).max(1.0);
    let flags: Vec<(String, Json)> = art.space.parameters()[..COMPILER_PARAMS]
        .iter()
        .zip(&tuned.point)
        .map(|(p, &v)| (p.name().to_string(), Json::Num(v)))
        .collect();
    telemetry::counter_add("serve.tunes", 1);
    // The GA optimum is the query most likely to sit outside the training
    // design, so score it like a single predict and remember it for a later
    // `observe` with the measured cycles.
    let coded_best = art.space.encode(&tuned.point);
    let siblings = sibling_artifacts(registry, art);
    let sig = quality_signals(
        art,
        &siblings,
        &tuned.point,
        &coded_best,
        tuned.predicted_cycles,
    );
    log_prediction(
        state,
        &serving.key(),
        &tuned.point,
        tuned.predicted_cycles,
        &sig,
    );
    state.maybe_enqueue_refresh(&serving.base, &tuned.point, sig.extrapolation);
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("model", serving.base.as_str().into()),
    ];
    serving.push_fields(&mut fields);
    fields.extend(vec![
        ("platform", platform_name.into()),
        ("seed", seed.into()),
        ("flags", Json::Obj(flags)),
        (
            "point",
            Json::Arr(tuned.point.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("predicted_cycles", tuned.predicted_cycles.into()),
        ("o2_predicted_cycles", o2_pred.into()),
        (
            "improves_over_o2",
            Json::Bool(tuned.predicted_cycles < o2_pred),
        ),
        ("evaluations", tuned.evaluations.into()),
        ("quality", quality_json(&sig)),
    ]);
    Json::obj(fields)
}

/// `rollout`: report a base artifact's rollout status — phase, versions,
/// per-lane shadow accuracy, refresh-queue depth, and the event history.
fn cmd_rollout(state: &ServerState, req: &Json) -> Json {
    let art = match resolve_model(&state.registry, req) {
        Ok(a) => a,
        Err(e) => return err_response(e),
    };
    let base = art.id();
    let versions = state.registry.versions(&base).unwrap_or_default();
    let pending = state.refresh_dir.as_ref().and_then(|dir| {
        let path = emod_core::refresh::RefreshQueue::path_for(dir, &base);
        if !path.exists() {
            return Some(0);
        }
        emod_core::refresh::RefreshQueue::open(dir, &base)
            .ok()
            .map(|q| q.pending_len())
    });
    let rollout = state.with_rollout(&base, |entry| {
        let mut fields = match entry.state.to_json() {
            Json::Obj(f) => f,
            _ => Vec::new(),
        };
        fields.push((
            "active_shadow_mape".to_string(),
            entry.active_shadow.mape().map_or(Json::Null, Json::Num),
        ));
        fields.push((
            "canary_shadow_mape".to_string(),
            entry.canary_shadow.mape().map_or(Json::Null, Json::Num),
        ));
        fields.push((
            "shadow_pairs".to_string(),
            Json::from(entry.canary_shadow.len()),
        ));
        Json::Obj(fields)
    });
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("model", base.into()),
        ("rollout", rollout.unwrap_or(Json::Null)),
        (
            "versions",
            Json::Arr(versions.into_iter().map(Json::from).collect()),
        ),
        ("queue_pending", pending.map_or(Json::Null, Json::from)),
    ])
}

/// `promote`: operator-forced promotion of a live canary. Skips the
/// minimum-observation gate but still passes the `canary.promote` fault
/// probe and the state save — failure at either point auto-rolls-back.
fn cmd_promote(state: &ServerState, req: &Json) -> Json {
    let art = match resolve_model(&state.registry, req) {
        Ok(a) => a,
        Err(e) => return err_response(e),
    };
    let base = art.id();
    let result = state.with_rollout(&base, |entry| {
        if entry.state.phase != RolloutPhase::Canary {
            return Err(format!(
                "rollout for {} is {}, not canary",
                base,
                entry.state.phase.name()
            ));
        }
        promote_entry(&state.registry, entry, "operator")
            .map(|v| (v, entry.state.to_json()))
            .map_err(|e| format!("promote failed (rolled back to active): {}", e))
    });
    match result {
        None => err_response(format!("{} has no rollout", base)),
        Some(Err(e)) => err_response(e),
        Some(Ok((v, rollout))) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("model", base.into()),
            ("promoted", v.into()),
            ("rollout", rollout),
        ]),
    }
}

/// `rollback`: operator-forced rollback of a live canary to the active
/// version. An optional `"reason"` string lands in the event history.
fn cmd_rollback(state: &ServerState, req: &Json) -> Json {
    let art = match resolve_model(&state.registry, req) {
        Ok(a) => a,
        Err(e) => return err_response(e),
    };
    let base = art.id();
    let reason = req
        .get("reason")
        .and_then(Json::as_str)
        .unwrap_or("operator")
        .to_string();
    let result = state.with_rollout(&base, |entry| {
        rollback_entry(&state.registry, entry, &reason).map(|v| (v, entry.state.to_json()))
    });
    match result {
        None => err_response(format!("{} has no rollout", base)),
        Some(None) => err_response(format!("rollout for {} has no canary to roll back", base)),
        Some(Some((v, rollout))) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("model", base.into()),
            ("rolled_back", v.into()),
            ("rollout", rollout),
        ]),
    }
}

/// `refresh`: feed the closed loop by hand. `"enqueue"` (optional array
/// of points) adds design points to the base's refresh queue; unless
/// `"measure"` is `false`, one refresh cycle then measures the queue,
/// retrains, publishes a candidate version, and starts its canary.
fn cmd_refresh(state: &ServerState, req: &Json) -> Json {
    let art = match resolve_model(&state.registry, req) {
        Ok(a) => a,
        Err(e) => return err_response(e),
    };
    let base = art.id();
    let dir = match &state.refresh_dir {
        Some(d) => d.clone(),
        None => {
            return err_response("refresh loop disabled (set EMOD_REFRESH=1 or EMOD_REFRESH_DIR)")
        }
    };
    let mut enqueued = 0usize;
    if let Some(points) = req.get("enqueue").and_then(Json::as_array) {
        let dim = art.space.len();
        let mut raws = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            match parse_point(p, dim) {
                Ok(r) => raws.push(r),
                Err(e) => return err_response(format!("enqueue point {}: {}", i, e)),
            }
        }
        let mut queue = match emod_core::refresh::RefreshQueue::open(&dir, &base) {
            Ok(q) => q,
            Err(e) => return err_response(format!("refresh queue: {}", e)),
        };
        for raw in &raws {
            if queue.enqueue(raw) {
                enqueued += 1;
            }
        }
        telemetry::counter_add("serve.rollout.enqueued", enqueued as u64);
    }
    if !req.get("measure").and_then(Json::as_bool).unwrap_or(true) {
        return Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("model", base.into()),
            ("enqueued", enqueued.into()),
            ("cycle", Json::Bool(false)),
        ]);
    }
    match state.run_refresh(&base) {
        Ok(out) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("model", base.into()),
            ("enqueued", enqueued.into()),
            ("cycle", Json::Bool(true)),
            ("version", out.version.into()),
            ("measured", out.measured.into()),
            ("skipped", out.skipped.into()),
            ("train_size", out.train_size.into()),
            ("train_mape", out.train_mape.into()),
            ("test_mape", out.test_mape.into()),
            ("rollout", out.state.to_json()),
        ]),
        Err(e) => err_response(format!("refresh failed: {}", e)),
    }
}

/// A quantile as JSON: `null` for an empty histogram.
fn quantile_json(h: &telemetry::HistogramSnapshot, q: f64) -> Json {
    h.quantile(q).map_or(Json::Null, Json::Num)
}

fn cmd_stats(state: &ServerState) -> Json {
    // Publish burn-rate/rolling gauges before snapshotting so this very
    // response's `gauges` section already carries them.
    let slo = state.slo_snapshot();
    let snap = telemetry::snapshot();
    let counters: Vec<(String, Json)> = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("serve."))
        .map(|(name, &v)| (name.clone(), v.into()))
        .collect();
    let gauges: Vec<(String, Json)> = snap
        .gauges
        .iter()
        .filter(|(name, _)| name.starts_with("serve."))
        .map(|(name, &v)| (name.clone(), v.into()))
        .collect();
    let histograms: Vec<(String, Json)> = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("serve."))
        .map(|(name, h)| {
            let mean = if h.count > 0 {
                h.sum / h.count as f64
            } else {
                0.0
            };
            (
                name.clone(),
                Json::obj(vec![
                    ("count", h.count.into()),
                    ("sum", h.sum.into()),
                    ("min", h.min.into()),
                    ("max", h.max.into()),
                    ("mean", mean.into()),
                    ("p50", quantile_json(h, 0.50)),
                    ("p95", quantile_json(h, 0.95)),
                    ("p99", quantile_json(h, 0.99)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("uptime_s", state.uptime_s().into()),
        ("in_flight", state.in_flight.load(Ordering::SeqCst).into()),
        ("slo", slo.to_json(true)),
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(histograms)),
    ])
}

fn cmd_health(state: &ServerState) -> Json {
    let models = state.registry.list().map(|ids| ids.len()).unwrap_or(0);
    let rollouts = state.registry.rollouts().map(|r| r.len()).unwrap_or(0);
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("status", "ok".into()),
        ("version", env!("CARGO_PKG_VERSION").into()),
        ("artifact_format", u64::from(FORMAT_VERSION).into()),
        ("uptime_s", state.uptime_s().into()),
        ("models", models.into()),
        ("rollouts", rollouts.into()),
        ("in_flight", state.in_flight.load(Ordering::SeqCst).into()),
        ("slo", state.slo_snapshot().to_json(false)),
    ])
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline become `\\`, `\"`, and `\n`.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Appends one exposition line: `name{labels} value`.
fn push_metric(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}=\"{}\"", k, escape_label_value(v)));
        }
        out.push('}');
    }
    out.push(' ');
    if value.fract() == 0.0 && value.abs() < 1e15 {
        out.push_str(&format!("{}\n", value as i64));
    } else {
        out.push_str(&format!("{}\n", value));
    }
}

/// Renders the flat text metrics exposition (one `name{labels} value` per
/// line, Prometheus-style) from the `serve.*` slice of the telemetry
/// registry plus the uptime/in-flight gauges.
pub fn render_metrics(state: &ServerState) -> String {
    // Refresh the scrape-time SLO gauges first so they land in this
    // snapshot.
    state.slo_snapshot();
    let snap = telemetry::snapshot();
    let mut out = String::with_capacity(1024);
    push_metric(&mut out, "emod_serve_up", &[], 1.0);
    push_metric(&mut out, "emod_serve_uptime_seconds", &[], state.uptime_s());
    push_metric(
        &mut out,
        "emod_serve_in_flight",
        &[],
        state.in_flight.load(Ordering::SeqCst) as f64,
    );
    for (name, &v) in &snap.counters {
        let Some(rest) = name.strip_prefix("serve.") else {
            continue;
        };
        match rest.strip_prefix("requests.") {
            Some("total") => push_metric(&mut out, "emod_serve_requests_total", &[], v as f64),
            Some(kind @ ("errors" | "bad" | "slow")) => push_metric(
                &mut out,
                &format!("emod_serve_requests_{}_total", kind),
                &[],
                v as f64,
            ),
            Some(cmd) => push_metric(
                &mut out,
                "emod_serve_command_requests_total",
                &[("cmd", cmd)],
                v as f64,
            ),
            None => push_metric(
                &mut out,
                &format!("emod_serve_{}_total", rest.replace('.', "_")),
                &[],
                v as f64,
            ),
        }
    }
    for (name, &v) in &snap.gauges {
        let Some(rest) = name.strip_prefix("serve.") else {
            continue;
        };
        // The in-flight gauge is rendered from server state above.
        if rest == "in_flight" {
            continue;
        }
        // Rolling per-command latency gauges get proper labels instead of
        // a flattened name, so dashboards can select by cmd/quantile.
        if let Some(cmd) = rest.strip_prefix("rolling.p50_ms.") {
            push_metric(
                &mut out,
                "emod_serve_rolling_latency_ms",
                &[("cmd", cmd), ("quantile", "0.5")],
                v,
            );
            continue;
        }
        if let Some(cmd) = rest.strip_prefix("rolling.p99_ms.") {
            push_metric(
                &mut out,
                "emod_serve_rolling_latency_ms",
                &[("cmd", cmd), ("quantile", "0.99")],
                v,
            );
            continue;
        }
        push_metric(
            &mut out,
            &format!("emod_serve_{}", rest.replace('.', "_")),
            &[],
            v,
        );
    }
    for (name, h) in &snap.histograms {
        if let Some(cmd) = name.strip_prefix("serve.latency_us.") {
            let labels = [("cmd", cmd)];
            push_metric(
                &mut out,
                "emod_serve_command_latency_us_count",
                &labels,
                h.count as f64,
            );
            push_metric(
                &mut out,
                "emod_serve_command_latency_us_sum",
                &labels,
                h.sum,
            );
            for (q, tag) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                if let Some(value) = h.quantile(q) {
                    push_metric(
                        &mut out,
                        "emod_serve_command_latency_us",
                        &[("cmd", cmd), ("quantile", tag)],
                        value,
                    );
                }
            }
        } else if name == "serve.queue_wait_ms" {
            push_metric(
                &mut out,
                "emod_serve_queue_wait_ms_count",
                &[],
                h.count as f64,
            );
            push_metric(&mut out, "emod_serve_queue_wait_ms_sum", &[], h.sum);
            for (q, tag) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                if let Some(value) = h.quantile(q) {
                    push_metric(
                        &mut out,
                        "emod_serve_queue_wait_ms",
                        &[("quantile", tag)],
                        value,
                    );
                }
            }
        } else if let Some(signal) = name.strip_prefix("serve.quality.") {
            let base = format!("emod_serve_quality_{}", signal.replace('.', "_"));
            push_metric(&mut out, &format!("{}_count", base), &[], h.count as f64);
            push_metric(&mut out, &format!("{}_sum", base), &[], h.sum);
            for (q, tag) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                if let Some(value) = h.quantile(q) {
                    push_metric(&mut out, &base, &[("quantile", tag)], value);
                }
            }
        }
    }
    debug_assert!(out.ends_with('\n'), "exposition must end with a newline");
    out
}

fn cmd_metrics(state: &ServerState) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("format", "prometheus-text".into()),
        ("metrics", render_metrics(state).into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(tag: &str) -> ServerState {
        let dir =
            std::env::temp_dir().join(format!("emod-serve-ut-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ServerState::new(
            Arc::new(ModelRegistry::open(dir).unwrap()),
            Arc::new(AtomicBool::new(false)),
        )
    }

    #[test]
    fn malformed_request_gets_error_not_panic() {
        let state = test_state("malformed");
        for bad in ["not json", "{}", "{\"cmd\":7}", "{\"cmd\":\"nope\"}"] {
            let (resp, close) = handle_request(&state, bad);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{}", bad);
            assert!(!close);
        }
    }

    #[test]
    fn error_replies_carry_machine_readable_codes() {
        let state = test_state("codes");
        let (resp, _) = handle_request(&state, "not json");
        assert_eq!(resp.get("code").and_then(Json::as_str), Some("bad_request"));
        assert_eq!(resp.get("retryable"), Some(&Json::Bool(false)));
        let (resp, _) = handle_request(&state, "{\"cmd\":\"predict\"}");
        assert_eq!(resp.get("code").and_then(Json::as_str), Some("error"));
    }

    #[test]
    fn admission_gate_sheds_above_cap_but_admits_health() {
        let state = test_state("shed").with_max_inflight(1);
        // Simulate a stuck concurrent request holding the only slot.
        state.in_flight.fetch_add(1, Ordering::SeqCst);
        let (resp, close) = handle_request(&state, "{\"cmd\":\"list_models\"}");
        assert_eq!(resp.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(resp.get("retryable"), Some(&Json::Bool(true)));
        assert!(!close, "shed replies keep the connection open");
        let (resp, _) = handle_request(&state, "{\"cmd\":\"health\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
        state.in_flight.fetch_sub(1, Ordering::SeqCst);
        let (resp, _) = handle_request(&state, "{\"cmd\":\"list_models\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
    }

    #[test]
    fn stats_and_health_carry_an_slo_section() {
        let state = test_state("slo-sections");
        let (_, _) = handle_request(&state, "{\"cmd\":\"health\"}");
        let (stats, _) = handle_request(&state, "{\"cmd\":\"stats\"}");
        let slo = stats.get("slo").expect("stats has slo section");
        assert!(slo.get("window_requests").and_then(Json::as_u64).unwrap() >= 1);
        assert!(slo.get("rolling").and_then(|r| r.get("health")).is_some());
        // Without targets the burn rates are explicit nulls, not absent.
        assert_eq!(slo.get("latency_burn"), Some(&Json::Null));
        let (health, _) = handle_request(&state, "{\"cmd\":\"health\"}");
        let brief = health.get("slo").expect("health has slo section");
        assert!(brief.get("rolling").is_none(), "health slo stays brief");
    }

    #[test]
    fn slo_window_tracks_errors_and_metrics_render_rolling_gauges() {
        // Gauges only register when collection is on (Server::bind enables
        // it in production; unit tests must opt in).
        telemetry::enable();
        let state = test_state("slo-burn");
        for _ in 0..4 {
            let (resp, _) = handle_request(&state, "{\"cmd\":\"list_models\"}");
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        }
        let (resp, _) = handle_request(&state, "{\"cmd\":\"predict\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let (stats, _) = handle_request(&state, "{\"cmd\":\"stats\"}");
        let slo = stats.get("slo").unwrap();
        let n = slo.get("window_requests").and_then(Json::as_u64).unwrap();
        let frac = slo.get("error_fraction").and_then(Json::as_f64).unwrap();
        assert!(n >= 5);
        assert!(frac > 0.0, "the failed predict must land in the window");
        let text = render_metrics(&state);
        assert!(
            text.contains("emod_serve_rolling_latency_ms{cmd=\"predict\",quantile=\"0.99\"}"),
            "rolling gauges missing from exposition:\n{}",
            text
        );
        assert!(text.contains("emod_serve_slo_window_requests"));
        assert!(text.contains("emod_serve_slo_error_fraction"));
    }

    #[test]
    fn shutdown_command_sets_flag_and_closes() {
        let state = test_state("shutdown");
        let (resp, close) = handle_request(&state, "{\"cmd\":\"shutdown\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert!(close);
        assert!(state.shutting_down());
    }

    #[test]
    fn health_reports_ok_then_refuses_during_drain() {
        let state = test_state("health");
        let (resp, close) = handle_request(&state, "{\"cmd\":\"health\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        assert!(resp.get("uptime_s").and_then(Json::as_f64).is_some());
        assert!(!close);

        state.shutdown.store(true, Ordering::SeqCst);
        let (resp, close) = handle_request(&state, "{\"cmd\":\"health\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{}", resp);
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("shutting_down")
        );
        assert!(close);
        // Non-health commands are refused too while draining.
        let (resp, close) = handle_request(&state, "{\"cmd\":\"list_models\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(close);
    }

    #[test]
    fn metrics_exposition_is_flat_text() {
        let state = test_state("metrics");
        let (resp, _) = handle_request(&state, "{\"cmd\":\"metrics\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
        let text = resp.get("metrics").and_then(Json::as_str).unwrap();
        assert!(text.contains("emod_serve_up 1"), "{}", text);
        assert!(text.contains("emod_serve_uptime_seconds "), "{}", text);
        assert!(text.ends_with('\n'), "exposition must end with a newline");
        for line in text.lines() {
            let (name, value) = line.rsplit_once(' ').expect(line);
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "{}", line);
        }
    }

    #[test]
    fn label_values_are_prometheus_escaped() {
        // Backslash, double quote, and newline must escape per the
        // Prometheus text format, not be swapped for look-alikes.
        let mut out = String::new();
        push_metric(&mut out, "m", &[("k", "a\"b\\c\nd")], 1.0);
        assert_eq!(out, "m{k=\"a\\\"b\\\\c\\nd\"} 1\n");
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("q\"q"), "q\\\"q");
    }

    #[test]
    fn health_reports_version_and_artifact_format() {
        let state = test_state("version");
        let (resp, _) = handle_request(&state, "{\"cmd\":\"health\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
        assert_eq!(
            resp.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert_eq!(
            resp.get("artifact_format").and_then(Json::as_u64),
            Some(u64::from(crate::artifact::FORMAT_VERSION))
        );
    }

    #[test]
    fn explain_and_observe_are_known_commands() {
        let state = test_state("quality-cmds");
        // Both route (no "unknown command") and fail with the selector help
        // on an empty registry instead of panicking.
        for req in [
            "{\"cmd\":\"explain\",\"point\":\"o2@typical\"}",
            "{\"cmd\":\"observe\",\"point\":\"o2@typical\",\"measured\":5000.0}",
        ] {
            let (resp, close) = handle_request(&state, req);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{}", resp);
            let msg = resp.get("error").and_then(Json::as_str).unwrap();
            assert!(msg.contains("workload"), "{}", msg);
            assert!(!close);
        }
    }

    #[test]
    fn disagreement_helper_matches_quality_crate() {
        // The serve layer re-exports the crate's spread definition.
        let d = disagreement(&[90.0, 100.0, 110.0]).unwrap();
        assert!((d - 0.2).abs() < 1e-12, "{}", d);
    }

    #[test]
    fn list_models_on_empty_registry() {
        let state = test_state("list");
        let (resp, _) = handle_request(&state, "{\"cmd\":\"list_models\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("count").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn predict_without_model_reports_selector_help() {
        let state = test_state("predict");
        let (resp, _) = handle_request(&state, "{\"cmd\":\"predict\",\"point\":[1]}");
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("workload"), "{}", msg);
    }

    #[test]
    fn parse_point_shorthand_and_errors() {
        let p = parse_point(&Json::Str("o2@typical".into()), 25).unwrap();
        assert_eq!(p.len(), 25);
        assert!(parse_point(&Json::Str("o1@typical".into()), 25).is_err());
        assert!(parse_point(&Json::Str("o2@mars".into()), 25).is_err());
        assert!(parse_point(&Json::Str("o2typical".into()), 25).is_err());
        assert!(parse_point(&Json::Arr(vec![Json::Num(1.0)]), 25).is_err());
        assert!(parse_point(&Json::Null, 25).is_err());
    }
}
