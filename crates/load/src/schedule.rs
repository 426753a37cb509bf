//! Deterministic open-loop request schedules.
//!
//! A schedule is the full list of requests a load run will issue, computed
//! up front from the seed alone: for every request the *intended* send time
//! (an offset from the run's start), the connection that will carry it, and
//! the complete request line. Nothing about the schedule depends on wall
//! clock, `EMOD_THREADS`, or how fast the server answers — two runs with
//! the same [`LoadConfig`] produce byte-identical schedules, which is what
//! lets CI compare load summaries across server thread counts.
//!
//! Arrival processes: `fixed` spaces requests exactly `1/rate` apart;
//! `poisson` draws exponential inter-arrival gaps (inverse-transform
//! sampling on the offline `rand` stand-in), the standard open-system
//! model of independent clients.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How intended send times are spaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Deterministic spacing: request `i` is sent at exactly `i / rate`.
    Fixed,
    /// Exponential inter-arrival gaps with mean `1 / rate` (a Poisson
    /// process), seeded and therefore reproducible.
    Poisson,
}

impl Arrival {
    /// Parses `"fixed"` / `"poisson"`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for anything else.
    pub fn parse(s: &str) -> Result<Arrival, String> {
        match s {
            "fixed" => Ok(Arrival::Fixed),
            "poisson" => Ok(Arrival::Poisson),
            other => Err(format!(
                "unknown arrival process {:?} (fixed|poisson)",
                other
            )),
        }
    }

    /// The canonical spelling (`"fixed"` / `"poisson"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Arrival::Fixed => "fixed",
            Arrival::Poisson => "poisson",
        }
    }
}

/// The serving commands the generator can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Single-point `predict` (includes quality scoring server-side).
    Predict,
    /// `predict_batch` over [`LoadConfig::batch`] points (throughput path).
    PredictBatch,
    /// `explain` — prediction plus term attributions.
    Explain,
    /// `tune` — a GA search per request; by far the heaviest command.
    Tune,
}

impl CommandKind {
    /// All kinds, in mix-spec order.
    pub const ALL: [CommandKind; 4] = [
        CommandKind::Predict,
        CommandKind::PredictBatch,
        CommandKind::Explain,
        CommandKind::Tune,
    ];

    /// The wire command name.
    pub fn as_str(&self) -> &'static str {
        match self {
            CommandKind::Predict => "predict",
            CommandKind::PredictBatch => "predict_batch",
            CommandKind::Explain => "explain",
            CommandKind::Tune => "tune",
        }
    }

    fn parse(s: &str) -> Option<CommandKind> {
        CommandKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// A weighted per-command mix, e.g. `predict=8,predict_batch=1,explain=1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandMix {
    weights: Vec<(CommandKind, u32)>,
}

impl Default for CommandMix {
    /// Pure single-point `predict` traffic.
    fn default() -> CommandMix {
        CommandMix {
            weights: vec![(CommandKind::Predict, 1)],
        }
    }
}

impl CommandMix {
    /// Parses a comma-separated `command=weight` spec. A bare command name
    /// means weight 1; zero weights drop the command from the mix.
    ///
    /// # Errors
    ///
    /// Unknown commands, malformed weights, and an all-zero mix.
    pub fn parse(spec: &str) -> Result<CommandMix, String> {
        let mut weights = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, weight) = match part.split_once('=') {
                Some((n, w)) => {
                    let w: u32 = w
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad weight in mix entry {:?}", part))?;
                    (n.trim(), w)
                }
                None => (part, 1),
            };
            let kind = CommandKind::parse(name).ok_or_else(|| {
                format!(
                    "unknown command {:?} in mix (predict|predict_batch|explain|tune)",
                    name
                )
            })?;
            if weight > 0 {
                weights.push((kind, weight));
            }
        }
        if weights.is_empty() {
            return Err("mix has no commands with non-zero weight".to_string());
        }
        Ok(CommandMix { weights })
    }

    /// The canonical spec string, in the order given.
    pub fn spec(&self) -> String {
        self.weights
            .iter()
            .map(|(k, w)| format!("{}={}", k.as_str(), w))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Draws one command, consuming one uniform draw from `rng`.
    fn draw(&self, rng: &mut StdRng) -> CommandKind {
        let total: u32 = self.weights.iter().map(|(_, w)| w).sum();
        let mut pick = rng.gen_range(0..total);
        for (kind, w) in &self.weights {
            if pick < *w {
                return *kind;
            }
            pick -= w;
        }
        self.weights.last().expect("non-empty mix").0
    }
}

/// Everything a load run needs; the schedule is a pure function of this.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Target arrival rate, requests per second.
    pub rate: f64,
    /// Length of the arrival window in seconds; requests intended past it
    /// are not generated.
    pub duration_s: f64,
    /// Concurrent client connections (each is one driver thread).
    pub connections: usize,
    /// Seed for the arrival process and per-request draws.
    pub seed: u64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Per-command weights.
    pub mix: CommandMix,
    /// Workload selector substring sent with every request.
    pub workload: String,
    /// Points per `predict_batch` request.
    pub batch: usize,
    /// Per-request socket timeout, seconds. A server that stops answering
    /// turns into transport errors in the report instead of a wedged run.
    /// Not part of the schedule.
    pub timeout_s: f64,
    /// The `"bench"` label stamped on reports and history lines
    /// (`--bench-label`). Distinct labels keep scenario runs in their own
    /// `emod-trace bench` series instead of polluting the default `load`
    /// baseline. Not part of the schedule.
    pub bench_label: String,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: emod_serve::server::DEFAULT_ADDR.to_string(),
            rate: 100.0,
            duration_s: 2.0,
            connections: 2,
            seed: 1,
            arrival: Arrival::Poisson,
            mix: CommandMix::default(),
            workload: "gzip".to_string(),
            batch: 8,
            timeout_s: 30.0,
            bench_label: "load".to_string(),
        }
    }
}

/// One scheduled request: when it is *supposed* to leave, on which
/// connection, and the exact line that will be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledRequest {
    /// Intended send time as microseconds after the run starts. Latency is
    /// measured from this instant, not from the actual send — the
    /// coordinated-omission guard (DESIGN.md §14).
    pub at_us: u64,
    /// Index of the connection/driver that carries this request.
    pub conn: usize,
    /// Which command the request issues.
    pub kind: CommandKind,
    /// The full request line (newline excluded).
    pub line: String,
}

/// Shorthand query points the generator cycles through; every one is a
/// valid `"<opt>@<platform>"` the server expands itself, so request lines
/// stay small and model-dimension-agnostic.
const POINT_PRESETS: [&str; 6] = [
    "o0@constrained",
    "o2@typical",
    "o3@aggressive",
    "o2@constrained",
    "o3@typical",
    "o0@aggressive",
];

const PLATFORMS: [&str; 3] = ["constrained", "typical", "aggressive"];

/// Hard cap on schedule length so an absurd `rate * duration` cannot eat
/// the heap; the builder truncates (and the caller can see it did from the
/// schedule length).
pub const MAX_SCHEDULED: usize = 1_000_000;

fn request_line(cfg: &LoadConfig, kind: CommandKind, rng: &mut StdRng) -> String {
    use emod_serve::Json;
    let preset = |rng: &mut StdRng| POINT_PRESETS[rng.gen_range(0..POINT_PRESETS.len())];
    let req = match kind {
        CommandKind::Predict => Json::obj(vec![
            ("cmd", "predict".into()),
            ("workload", cfg.workload.as_str().into()),
            ("point", preset(rng).into()),
        ]),
        CommandKind::PredictBatch => {
            let points: Vec<Json> = (0..cfg.batch.max(1)).map(|_| preset(rng).into()).collect();
            Json::obj(vec![
                ("cmd", "predict_batch".into()),
                ("workload", cfg.workload.as_str().into()),
                ("points", Json::Arr(points)),
            ])
        }
        CommandKind::Explain => Json::obj(vec![
            ("cmd", "explain".into()),
            ("workload", cfg.workload.as_str().into()),
            ("point", preset(rng).into()),
        ]),
        CommandKind::Tune => Json::obj(vec![
            ("cmd", "tune".into()),
            ("workload", cfg.workload.as_str().into()),
            (
                "platform",
                PLATFORMS[rng.gen_range(0..PLATFORMS.len())].into(),
            ),
            ("seed", Json::from(rng.gen_range(0u64..1024))),
        ]),
    };
    req.to_string()
}

/// Builds the full request schedule for `cfg` — a pure function of the
/// config (no clocks, no environment), sorted by intended send time, with
/// connections assigned round-robin so every driver sees the same timeline
/// regardless of how many worker threads the *server* runs.
pub fn build_schedule(cfg: &LoadConfig) -> Vec<ScheduledRequest> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut schedule = Vec::new();
    let rate = cfg.rate.max(1e-9);
    let conns = cfg.connections.max(1);
    let horizon_us = (cfg.duration_s.max(0.0) * 1e6) as u64;
    let mut t_us = 0.0f64;
    let mut i = 0usize;
    loop {
        let at_us = match cfg.arrival {
            Arrival::Fixed => (i as f64 / rate * 1e6) as u64,
            Arrival::Poisson => {
                if i > 0 {
                    // Inverse-transform sampling: gap = -ln(1-U)/rate. The
                    // stand-in's uniform draw is in [0,1), so 1-U is in
                    // (0,1] and the log is finite.
                    let u: f64 = rng.gen();
                    t_us += -(1.0 - u).ln() / rate * 1e6;
                }
                t_us as u64
            }
        };
        if at_us >= horizon_us || schedule.len() >= MAX_SCHEDULED {
            break;
        }
        let kind = cfg.mix.draw(&mut rng);
        let line = request_line(cfg, kind, &mut rng);
        schedule.push(ScheduledRequest {
            at_us,
            conn: i % conns,
            kind,
            line,
        });
        i += 1;
    }
    schedule
}

/// FNV-1a 64 digest of the full schedule (intended times, connection
/// assignment, request bytes), hex-encoded. Two runs agree on the digest
/// iff they will send the same requests at the same intended times — the
/// value CI compares across server thread counts.
pub fn schedule_digest(schedule: &[ScheduledRequest]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for r in schedule {
        eat(&r.at_us.to_le_bytes());
        eat(&(r.conn as u64).to_le_bytes());
        eat(r.line.as_bytes());
        eat(b"\n");
    }
    format!("fnv1a:{:016x}", hash)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LoadConfig {
        LoadConfig {
            rate: 500.0,
            duration_s: 1.0,
            connections: 3,
            seed: 42,
            arrival: Arrival::Poisson,
            mix: CommandMix::parse("predict=8,predict_batch=2,explain=1,tune=1").unwrap(),
            ..LoadConfig::default()
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = build_schedule(&cfg());
        let b = build_schedule(&cfg());
        assert_eq!(a, b);
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = build_schedule(&cfg());
        let mut c = cfg();
        c.seed = 43;
        let b = build_schedule(&c);
        assert_ne!(schedule_digest(&a), schedule_digest(&b));
    }

    #[test]
    fn schedule_is_independent_of_thread_env() {
        // The determinism contract: EMOD_THREADS must not influence the
        // intended-send timeline. The builder never reads the environment,
        // but pin it with a test so a refactor cannot regress silently.
        std::env::set_var("EMOD_THREADS", "1");
        let a = build_schedule(&cfg());
        std::env::set_var("EMOD_THREADS", "8");
        let b = build_schedule(&cfg());
        std::env::remove_var("EMOD_THREADS");
        assert_eq!(a, b);
    }

    #[test]
    fn fixed_arrivals_are_evenly_spaced() {
        let mut c = cfg();
        c.arrival = Arrival::Fixed;
        c.rate = 1000.0;
        c.duration_s = 0.1;
        let s = build_schedule(&c);
        assert_eq!(s.len(), 100);
        for (i, r) in s.iter().enumerate() {
            assert_eq!(r.at_us, i as u64 * 1000);
            assert_eq!(r.conn, i % 3);
        }
    }

    #[test]
    fn poisson_arrivals_are_monotone_and_roughly_rate() {
        let s = build_schedule(&cfg());
        for w in s.windows(2) {
            assert!(w[0].at_us <= w[1].at_us);
        }
        // 500 req/s over 1 s: the count is Poisson(500), so ±40% is a
        // generous but non-vacuous band for a pinned seed.
        assert!(s.len() > 300 && s.len() < 700, "{} requests", s.len());
    }

    #[test]
    fn mix_parses_and_draws_every_command() {
        let s = build_schedule(&cfg());
        for kind in CommandKind::ALL {
            assert!(
                s.iter().any(|r| r.kind == kind),
                "{} never drawn",
                kind.as_str()
            );
        }
        assert!(CommandMix::parse("predict=0").is_err());
        assert!(CommandMix::parse("frobnicate=1").is_err());
        assert!(CommandMix::parse("predict=x").is_err());
        assert_eq!(CommandMix::parse("predict").unwrap().spec(), "predict=1");
    }

    #[test]
    fn request_lines_are_valid_json_with_the_right_cmd() {
        for r in build_schedule(&cfg()) {
            let v = emod_serve::Json::parse(&r.line).expect("schedule line parses");
            assert_eq!(
                v.get("cmd").and_then(emod_serve::Json::as_str),
                Some(r.kind.as_str())
            );
        }
    }
}
