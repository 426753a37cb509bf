//! The `emod-serve` binary: model server, or one-shot client with
//! `--client`.
//!
//! ```text
//! emod-serve [--addr HOST:PORT] [--registry DIR] [--workers N]
//! emod-serve --client [--addr HOST:PORT] [--retries N] '<json request>' [...]
//! ```
//!
//! The server runs one epoll event loop over every connection and
//! `--workers` (default 4) request-handler threads behind it; see
//! DESIGN.md §16. It needs Linux.
//!
//! In client mode each argument is sent as one request line and the response
//! line is printed to stdout; the exit code is nonzero if any response does
//! not carry `"ok": true`. Transport failures and `retryable` error replies
//! are retried with exponential backoff (`--retries`, default 3 attempts).

use emod_serve::client::Client;
use emod_serve::json::Json;
use emod_serve::registry::ModelRegistry;
use emod_serve::server::{self, Server, DEFAULT_ADDR};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = DEFAULT_ADDR.to_string();
    let mut registry_root: Option<String> = None;
    let mut workers = 4usize;
    let mut client = false;
    let mut retries = 3u32;
    let mut requests: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--client" => client = true,
            "--addr" => match args.get(i + 1) {
                Some(a) => {
                    addr = a.clone();
                    i += 1;
                }
                None => return usage("--addr needs a HOST:PORT value"),
            },
            "--registry" => match args.get(i + 1) {
                Some(r) => {
                    registry_root = Some(r.clone());
                    i += 1;
                }
                None => return usage("--registry needs a directory"),
            },
            "--workers" => match args.get(i + 1).and_then(|w| w.parse().ok()) {
                Some(w) => {
                    workers = w;
                    i += 1;
                }
                None => return usage("--workers needs a positive integer"),
            },
            "--retries" => match args.get(i + 1).and_then(|r| r.parse().ok()) {
                Some(r) => {
                    retries = r;
                    i += 1;
                }
                None => return usage("--retries needs a non-negative integer"),
            },
            "--version" | "-V" => {
                println!(
                    "emod-serve {} (artifact format v{})",
                    env!("CARGO_PKG_VERSION"),
                    emod_serve::artifact::FORMAT_VERSION
                );
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(""),
            other if other.starts_with("--") => return usage(&format!("unknown option {}", other)),
            request => requests.push(request.to_string()),
        }
        i += 1;
    }

    if let Err(e) = emod_faults::init_from_env() {
        eprintln!("error: {}: {}", emod_faults::FAULTS_ENV, e);
        return ExitCode::from(2);
    }
    if client {
        run_client(&addr, retries, &requests)
    } else if requests.is_empty() {
        run_server(&addr, registry_root.as_deref(), workers)
    } else {
        usage("positional arguments are only valid with --client")
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {}", error);
    }
    eprintln!("usage: emod-serve [--addr HOST:PORT] [--registry DIR] [--workers N]");
    eprintln!("       emod-serve --client [--addr HOST:PORT] [--retries N] '<json request>' [...]");
    eprintln!("       emod-serve --version");
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn run_server(addr: &str, registry_root: Option<&str>, workers: usize) -> ExitCode {
    emod_telemetry::init_from_env();
    let registry = match registry_root {
        Some(root) => ModelRegistry::open(root),
        None => ModelRegistry::open_env(),
    };
    let registry = match registry {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("error: {}", e);
            return ExitCode::FAILURE;
        }
    };
    server::install_signal_handlers();
    let srv = match Server::bind(registry.clone(), addr, workers) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bind {}: {}", addr, e);
            return ExitCode::FAILURE;
        }
    };
    match srv.local_addr() {
        Ok(local) => eprintln!(
            "emod-serve listening on {} (registry {}, {} workers)",
            local,
            registry.root().display(),
            workers
        ),
        Err(e) => eprintln!("emod-serve listening (addr unknown: {})", e),
    }
    let outcome = srv.run();
    // The JSONL sink buffers; without this the telemetry stream of a
    // cleanly shut-down server is lost (globals are not dropped at exit).
    emod_telemetry::flush();
    match outcome {
        Ok(()) => {
            eprintln!("emod-serve: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve: {}", e);
            ExitCode::FAILURE
        }
    }
}

fn run_client(addr: &str, retries: u32, requests: &[String]) -> ExitCode {
    if requests.is_empty() {
        return usage("--client needs at least one JSON request argument");
    }
    let mut client = Client::new(addr).with_attempts(retries);
    let mut all_ok = true;
    for request in requests {
        match client.request(request.trim()) {
            Ok(resp) => {
                println!("{}", resp);
                all_ok &= resp.get("ok").and_then(Json::as_bool).unwrap_or(false);
            }
            Err(e) => {
                eprintln!("error: {}", e);
                return ExitCode::FAILURE;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
