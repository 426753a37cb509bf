//! Concurrent newline-delimited-JSON prediction/tuning server.
//!
//! [`Server`] binds a TCP listener and serves it with the front of
//! [`crate::reactor_front`] (Linux only): `--workers` threads share one
//! one-shot epoll poller, and the thread handed a ready connection runs
//! its request lines itself. Each request is one JSON object on one line;
//! each response is one JSON object on one line with an `"ok"` field,
//! written back in request order. Graceful shutdown on SIGTERM/SIGINT or
//! the `shutdown` command: each thread finishes its current pass (a
//! request it reads after the flag is set gets a refusal and its
//! connection closes), the listener closes, and unsent replies are
//! flushed for up to 5 s.
//!
//! Commands: `list_models`, `predict`, `predict_batch`, `explain`, `tune`,
//! `observe`, `stats`, `health`, `metrics`, `shutdown` — see the README
//! "Serving" section for the wire format.
//!
//! Observability: every request runs inside its own telemetry trace
//! ([`emod_telemetry::trace_root`]), so spans opened by the handler (the
//! GA during `tune`, model loads, …) stitch into one per-request trace in
//! the JSONL stream, and each request emits a structured `serve.access`
//! event (connection id, command, resolved model, status, latency, bytes).
//! `stats` reports per-command latency percentiles
//! (`serve.latency_us.<cmd>`); `metrics` renders a flat text exposition
//! an operator can scrape. Each request is timestamped when its bytes are
//! read: latency and deadlines count from that instant, and the part
//! spent waiting behind earlier lines of the same read is reported on its
//! own (`serve.queue_wait_ms`, a `queue_wait_ms` access-log field).
//!
//! Resilience (see DESIGN.md §10): `--workers` bounds running requests; a
//! backlog behind them waits unread in its socket and shows as
//! `in_flight` reaching `--workers`; request lines are capped at
//! [`MAX_LINE_BYTES`] (`request_too_large`, connection closes); handler
//! panics are isolated per request with `catch_unwind` (`internal_error`,
//! the thread survives); requests running past `EMOD_DEADLINE_MS` answer
//! `deadline_exceeded`. Error replies carry a machine-readable `"code"`
//! and a `"retryable"` hint the client-side retry loop keys off. Fault
//! probe: `serve.handle`.
//!
//! Model quality (see DESIGN.md §12): every `predict`/`explain` scores how
//! far the query extrapolates beyond the artifact's training design
//! (`serve.quality.extrapolation` histogram) and the spread between sibling
//! model families (`serve.quality.disagreement`); scores past
//! `EMOD_EXTRAP_WARN`/`EMOD_DISAGREE_WARN` emit `quality_warn` events and
//! tag the access log. `observe` feeds ground-truth measurements back into
//! a bounded shadow ring, exporting rolling-MAPE/max-error drift gauges.

use crate::artifact::{family_from_name, family_slug, ModelArtifact, FORMAT_VERSION};
use crate::json::Json;
use crate::registry::ModelRegistry;
use emod_compiler::OptConfig;
use emod_core::model::ModelFamily;
use emod_core::tune::{reference_configs, search_flags_surrogate};
use emod_core::vars::{encode_point, COMPILER_PARAMS};
use emod_faults as faults;
use emod_models::Regressor;
use emod_quality::{disagreement, PredictionLog, ShadowRing};
use emod_telemetry as telemetry;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default port the server binds when none is given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7733";

/// Longest accepted request line (1 MiB). Longer lines get a structured
/// `request_too_large` reply and the connection closes, instead of the
/// server buffering an attacker-controlled amount of memory.
pub const MAX_LINE_BYTES: u64 = 1 << 20;

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
    "stats",
    "health",
    "metrics",
    "shutdown",
];

/// Shared request-handling state: the model registry, the shutdown flag,
/// and the operational gauges (`uptime`, in-flight requests) that `stats`,
/// `health` and `metrics` report.
#[derive(Debug)]
pub struct ServerState {
    registry: Arc<ModelRegistry>,
    shutdown: Arc<AtomicBool>,
    start: Instant,
    in_flight: AtomicU64,
    deadline_ms: Option<u64>,
    quality: Mutex<QualityState>,
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
    /// request deadline comes from `EMOD_DEADLINE_MS` (read here, once per
    /// server).
    pub fn new(registry: Arc<ModelRegistry>, shutdown: Arc<AtomicBool>) -> ServerState {
        let deadline_ms = std::env::var("EMOD_DEADLINE_MS")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|&n| n > 0);
        let cap = emod_quality::shadow_capacity();
        ServerState {
            registry,
            shutdown,
            start: Instant::now(),
            in_flight: AtomicU64::new(0),
            deadline_ms,
            quality: Mutex::new(QualityState {
                predictions: PredictionLog::new(cap),
                shadow: ShadowRing::new(cap),
            }),
        }
    }

    /// Overrides the per-request deadline (tests; production uses
    /// `EMOD_DEADLINE_MS`).
    pub fn with_deadline_ms(mut self, ms: Option<u64>) -> ServerState {
        self.deadline_ms = ms;
        self
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

/// The prediction/tuning server: `workers` threads that share one epoll
/// poller and each run the requests of the connection they are handed
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
    /// models from `registry` with `workers` threads. The thread count
    /// bounds concurrent requests, not concurrent connections.
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
    /// [`Server::shutdown_handle`], or SIGTERM/SIGINT), then flushes
    /// unsent replies and returns.
    ///
    /// # Errors
    ///
    /// Propagates poller setup failures (`Unsupported` off Linux), thread
    /// spawn failures, and accept or poll errors other than
    /// `WouldBlock`/`Interrupted`; such an error shuts the server down.
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
/// `request_too_large`, `deadline_exceeded`, `internal_error`. The client
/// retry loop ([`crate::client`]) keys off `retryable`, so transient
/// server-side failures (panics, deadlines) are marked and semantic
/// errors are not.
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
    let (response, _, close) = handle_request_full(state, "", request, 0.0, Instant::now());
    (response, close)
}

/// The full request pipeline with the owning connection's id, the time
/// the request waited behind earlier lines of the same read, and the
/// instant it was read. Latency and the deadline both count from that
/// read, so the wait is part of every request's budget. Returns the
/// response, its serialized line (newline excluded; the access log's
/// `bytes_out` is its length) and whether the connection should close.
pub(crate) fn handle_request_full(
    state: &ServerState,
    conn_id: &str,
    request: &str,
    queue_wait_ms: f64,
    arrived: Instant,
) -> (Json, String, bool) {
    // The whole request is one trace: spans opened by the handler on this
    // thread (GA generations during tune, artifact loads, …) nest under it.
    let root = telemetry::trace_root("serve.request");
    let start = arrived;
    state.in_flight.fetch_add(1, Ordering::SeqCst);
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
    let line = response.to_string();
    if known {
        telemetry::observe(&format!("serve.latency_us.{}", cmd), latency_us);
    }
    let status_ok = response.get("ok") == Some(&Json::Bool(true));
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
            ("bytes_out", line.len().into()),
        ];
        if !quality_warn.is_empty() {
            fields.push(("quality_warn", quality_warn.into()));
        }
        telemetry::event("serve", "access", &fields);
    }
    state.in_flight.fetch_sub(1, Ordering::SeqCst);
    (response, line, close)
}

/// [`dispatch`] behind the fault probe and a per-request `catch_unwind`:
/// a panicking handler (a model-family bug, an injected `panic` fault)
/// answers `internal_error` and the serving thread survives to take the
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
    let id = art.id();
    // Predictions run inline on the handler thread: one costs well under a
    // microsecond, and a worker pool loses to this loop at the batch sizes
    // clients send (DESIGN.md §11).
    let predictions: Vec<f64> = raws
        .iter()
        .map(|raw| art.model.predict(&art.space.encode(raw)))
        .collect();
    telemetry::counter_add("serve.predictions", predictions.len() as u64);
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("model", id.as_str().into()),
        ("family", family_slug(art.meta.family).into()),
    ];
    if batch {
        // Batch replies carry predictions only: quality scoring (sibling
        // predicts, extrapolation, the prediction log) stays on single
        // predict/explain, which is the wire contract.
        let predictions = predictions.into_iter().map(Json::Num).collect();
        fields.push(("predictions", Json::Arr(predictions)));
    } else {
        let prediction = predictions[0];
        let raw = &raws[0];
        let coded = art.space.encode(raw);
        let siblings = sibling_artifacts(registry, &art);
        let sig = quality_signals(&art, &siblings, raw, &coded, prediction);
        log_prediction(state, &id, raw, prediction, &sig);
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
    let id = art.id();
    let coded = art.space.encode(&raw);
    let prediction = art.model.predict(&coded);
    let parts = art.model.explain(&coded);
    let reconstruction = emod_models::attribution_total(&parts);
    let siblings = sibling_artifacts(registry, &art);
    let sig = quality_signals(&art, &siblings, &raw, &coded, prediction);
    log_prediction(state, &id, &raw, prediction, &sig);
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
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("model", id.into()),
        ("family", family_slug(art.meta.family).into()),
        ("prediction", prediction.into()),
        ("reconstruction", reconstruction.into()),
        ("terms", attributions.len().into()),
        ("attributions", Json::Arr(attributions)),
        ("quality", quality_json(&sig)),
    ])
}

/// `observe`: feed a ground-truth measurement back for a point the server
/// predicted earlier. The pair enters the bounded shadow ring and refreshes
/// the rolling accuracy-drift gauges (`serve.quality.shadow_*`). An
/// optional, free-form `"tier"` string tags the observation with how it was
/// measured (for example `smarts` or `detailed`); it is echoed in the
/// response and the `quality.observation` event.
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
    // How this ground truth was measured. Optional and free-form: the server
    // only echoes it, so drift consumers can split observations by source.
    let tier = match req.get("tier") {
        None => None,
        Some(t) => match t.as_str() {
            Some(s) => Some(s.to_string()),
            None => return err_response("\"tier\" must be a string when present"),
        },
    };
    let id = art.id();
    let mut quality = telemetry::lock_or_recover(&state.quality);
    // Pair against what the server actually answered for this point if the
    // prediction is still in the log; otherwise predict fresh (the model is
    // deterministic, so the value is identical unless the artifact was
    // republished in between).
    let (predicted, paired) = match quality.predictions.lookup(&id, &raw) {
        Some(p) => (p, true),
        None => (art.model.predict(&art.space.encode(&raw)), false),
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
    Json::obj(vec![
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
    ])
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
    let id = art.id();
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
    let siblings = sibling_artifacts(registry, &art);
    let sig = quality_signals(
        &art,
        &siblings,
        &tuned.point,
        &coded_best,
        tuned.predicted_cycles,
    );
    log_prediction(state, &id, &tuned.point, tuned.predicted_cycles, &sig);
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("model", id.into()),
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
    ])
}

/// A quantile as JSON: `null` for an empty histogram.
fn quantile_json(h: &telemetry::HistogramSnapshot, q: f64) -> Json {
    h.quantile(q).map_or(Json::Null, Json::Num)
}

fn cmd_stats(state: &ServerState) -> Json {
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
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(histograms)),
    ])
}

fn cmd_health(state: &ServerState) -> Json {
    let models = state.registry.list().map(|ids| ids.len()).unwrap_or(0);
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("status", "ok".into()),
        ("version", env!("CARGO_PKG_VERSION").into()),
        ("artifact_format", u64::from(FORMAT_VERSION).into()),
        ("uptime_s", state.uptime_s().into()),
        ("models", models.into()),
        ("in_flight", state.in_flight.load(Ordering::SeqCst).into()),
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
            Some(cmd) if COMMANDS.contains(&cmd) => push_metric(
                &mut out,
                "emod_serve_command_requests_total",
                &[("cmd", cmd)],
                v as f64,
            ),
            // Outcomes: errors, bad, panicked, failed, deadline_exceeded,
            // too_large.
            Some(outcome) => push_metric(
                &mut out,
                &format!("emod_serve_requests_{}_total", outcome),
                &[],
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
    fn hundred_point_batch_matches_single_predicts_bit_for_bit() {
        use emod_core::model::SurrogateModel;
        use emod_models::Dataset;
        use rand::{rngs::StdRng, SeedableRng};

        let space = emod_core::vars::design_space();
        let mut rng = StdRng::seed_from_u64(5);
        let design = emod_doe::lhs(&space, 40, &mut rng);
        let xs: Vec<Vec<f64>> = design.iter().map(|p| space.encode(p)).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 4000.0 + x.iter().enumerate().map(|(i, v)| v * i as f64).sum::<f64>())
            .collect();
        let train = Dataset::new(xs, ys).unwrap();
        let art = ModelArtifact {
            meta: crate::artifact::ArtifactMeta {
                workload: "164.gzip".into(),
                input_set: "train".into(),
                metric: "cycles".into(),
                family: ModelFamily::Rbf,
                scale: "quick".into(),
                seed: 1,
                train_mape: 0.0,
                test_mape: 0.0,
                train_size: train.len(),
                test_size: train.len(),
            },
            model: SurrogateModel::fit(&train, ModelFamily::Rbf).unwrap(),
            quality: emod_quality::DesignSummary::from_design(&train),
            test: train.clone(),
            train,
            space,
            history: Vec::new(),
        };
        let state = test_state("batch100");
        state.registry.store(&art).unwrap();
        let id = art.id();

        let points: Vec<Json> = (0..100)
            .map(|_| {
                let raw = art.space.random_point(&mut rng);
                Json::Arr(raw.into_iter().map(Json::Num).collect())
            })
            .collect();
        let batch = format!(
            "{{\"cmd\":\"predict_batch\",\"model\":\"{}\",\"points\":{}}}",
            id,
            Json::Arr(points.clone())
        );
        let (resp, _) = handle_request(&state, &batch);
        let preds = resp.get("predictions").and_then(Json::as_array).unwrap();
        assert_eq!(preds.len(), 100, "{}", resp);
        for (i, (point, batched)) in points.iter().zip(preds).enumerate() {
            let single = format!(
                "{{\"cmd\":\"predict\",\"model\":\"{}\",\"point\":{}}}",
                id, point
            );
            let (resp, _) = handle_request(&state, &single);
            let want = resp.get("prediction").and_then(Json::as_f64).unwrap();
            assert_eq!(
                batched.as_f64().unwrap().to_bits(),
                want.to_bits(),
                "point {}",
                i
            );
        }
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
