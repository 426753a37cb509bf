//! `emod-load` — open-loop load generator CLI.
//!
//! ```text
//! emod-load [--addr HOST:PORT] [--rate RPS] [--duration S] [--conns N]
//!           [--seed N] [--arrivals fixed|poisson] [--mix SPEC]
//!           [--workload W] [--batch N] [--timeout S] [--out FILE]
//!           [--history FILE] [--print-schedule] [--max-error-rate X]
//!           [--bench-label NAME]
//! ```
//!
//! Flags are the only configuration: no environment variable changes the
//! schedule or its target. `--print-schedule` emits the deterministic
//! schedule (and its digest) without touching the network — the
//! determinism-smoke path. `--max-error-rate X` exits 1 when the measured
//! error rate exceeds `X`. `--bench-label NAME` stamps reports/history
//! lines with a scenario-specific `"bench"` label so a scenario's runs
//! trend in their own series.

use emod_load::{
    append_history, build_report, build_schedule, history_line, run, schedule_digest, Arrival,
    CommandMix, LoadConfig,
};
use emod_serve::Json;
use std::path::PathBuf;

struct Args {
    cfg: LoadConfig,
    out: Option<PathBuf>,
    history: Option<PathBuf>,
    print_schedule: bool,
    max_error_rate: Option<f64>,
}

fn die(msg: &str) -> ! {
    eprintln!("emod-load: {}", msg);
    std::process::exit(2);
}

fn parse_f64(s: &str, name: &str) -> f64 {
    s.trim()
        .parse()
        .unwrap_or_else(|_| die(&format!("{} needs a number, got {:?}", name, s)))
}

fn parse_usize(s: &str, name: &str) -> usize {
    s.trim()
        .parse()
        .unwrap_or_else(|_| die(&format!("{} needs a positive integer, got {:?}", name, s)))
}

fn parse_u64(s: &str, name: &str) -> u64 {
    s.trim()
        .parse()
        .unwrap_or_else(|_| die(&format!("{} needs an integer, got {:?}", name, s)))
}

fn usage() -> ! {
    println!(
        "usage: emod-load [--addr HOST:PORT] [--rate RPS] [--duration S] [--conns N]\n\
         \x20                [--seed N] [--arrivals fixed|poisson] [--mix SPEC]\n\
         \x20                [--workload W] [--batch N] [--timeout S] [--out FILE]\n\
         \x20                [--history FILE] [--print-schedule] [--max-error-rate X]\n\
         \x20                [--bench-label NAME]"
    );
    std::process::exit(0);
}

fn parse_args() -> Args {
    let mut args = Args {
        cfg: LoadConfig::default(),
        out: None,
        history: None,
        print_schedule: false,
        max_error_rate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{} needs a value", name)))
        };
        match arg.as_str() {
            "--addr" => args.cfg.addr = value("--addr"),
            "--rate" => args.cfg.rate = parse_f64(&value("--rate"), "--rate"),
            "--duration" => args.cfg.duration_s = parse_f64(&value("--duration"), "--duration"),
            "--conns" => args.cfg.connections = parse_usize(&value("--conns"), "--conns"),
            "--seed" => args.cfg.seed = parse_u64(&value("--seed"), "--seed"),
            "--arrivals" => {
                args.cfg.arrival = Arrival::parse(&value("--arrivals")).unwrap_or_else(|e| die(&e))
            }
            "--mix" => {
                args.cfg.mix = CommandMix::parse(&value("--mix")).unwrap_or_else(|e| die(&e))
            }
            "--workload" => args.cfg.workload = value("--workload"),
            "--batch" => args.cfg.batch = parse_usize(&value("--batch"), "--batch"),
            "--timeout" => args.cfg.timeout_s = parse_f64(&value("--timeout"), "--timeout"),
            "--bench-label" => {
                let v = value("--bench-label");
                if v.trim().is_empty() {
                    die("--bench-label needs a non-empty name");
                }
                args.cfg.bench_label = v;
            }
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--history" => args.history = Some(PathBuf::from(value("--history"))),
            "--print-schedule" => args.print_schedule = true,
            "--max-error-rate" => {
                args.max_error_rate =
                    Some(parse_f64(&value("--max-error-rate"), "--max-error-rate"))
            }
            "--help" | "-h" => usage(),
            other => die(&format!("unknown argument {:?} (try --help)", other)),
        }
    }
    if args.cfg.rate <= 0.0 {
        die("--rate must be positive");
    }
    if args.cfg.duration_s <= 0.0 {
        die("--duration must be positive");
    }
    args.cfg.connections = args.cfg.connections.max(1);
    args
}

fn main() {
    let args = parse_args();
    emod_telemetry::init_from_env();
    let schedule = build_schedule(&args.cfg);
    let digest = schedule_digest(&schedule);
    if schedule.is_empty() {
        die("schedule is empty (rate * duration rounds to zero requests)");
    }
    if args.print_schedule {
        for r in &schedule {
            println!("{}\t{}\t{}", r.at_us, r.conn, r.line);
        }
        println!("# requests={} digest={}", schedule.len(), digest);
        return;
    }
    eprintln!(
        "emod-load: {} requests over {:.1}s ({} {} arrivals/s, {} connection(s), seed {}) -> {}",
        schedule.len(),
        args.cfg.duration_s,
        args.cfg.rate,
        args.cfg.arrival.as_str(),
        args.cfg.connections,
        args.cfg.seed,
        args.cfg.addr
    );
    let result = run(&args.cfg, &schedule);
    let report = build_report(&args.cfg, &schedule, &digest, &result);
    let measured = report.get("measured").expect("report has measured section");
    let lat = measured.get("latency_ms");
    let q = |k: &str| {
        lat.and_then(|l| l.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let num = |k: &str| measured.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    eprintln!(
        "emod-load: {:.1} req/s  p50 {:.2}ms  p90 {:.2}ms  p99 {:.2}ms  p99.9 {:.2}ms  \
         errors {:.1}%",
        num("throughput_rps"),
        q("p50"),
        q("p90"),
        q("p99"),
        q("p999"),
        num("error_rate") * 100.0,
    );
    if let Some(path) = &args.out {
        let text = emod_load::report::render_pretty(&report);
        std::fs::write(path, text)
            .unwrap_or_else(|e| die(&format!("cannot write {:?}: {}", path, e)));
        eprintln!("emod-load: wrote {}", path.display());
    } else {
        println!("{}", report);
    }
    if let Some(path) = &args.history {
        append_history(path, &history_line(&report)).unwrap_or_else(|e| die(&e));
        eprintln!("emod-load: appended to {}", path.display());
    }
    if let Some(cap) = args.max_error_rate {
        let rate = num("error_rate");
        if rate > cap {
            eprintln!(
                "emod-load: FAIL error rate {:.3} exceeds --max-error-rate {:.3}",
                rate, cap
            );
            std::process::exit(1);
        }
    }
}
