//! Fault-injection acceptance test: a live TCP server under an
//! `EMOD_FAULTS` plan that panics a handler, fails an artifact store, and
//! delays requests. The server must answer every non-faulted request
//! correctly, reply `internal_error` (never silently drop) to the faulted
//! ones, survive the panic, answer a request while a delayed one on
//! another connection is still pending, and report the panic counter through `stats` and
//! as an outcome series in `metrics`. The retrying client must absorb a
//! one-off panic transparently.
//!
//! A second test pins per-request deadlines on a pipelined connection:
//! an injected handler delay pushes each request past its deadline.
//!
//! The fault plan is process-global, so the two tests serialize on
//! [`PLAN_LOCK`] (this file is its own test binary — no other tests share
//! the process).

use emod_core::model::{ModelFamily, SurrogateModel};
use emod_core::vars::{design_space, COMPILER_PARAMS};
use emod_models::Dataset;
use emod_serve::artifact::{ArtifactMeta, ModelArtifact};
use emod_serve::json::Json;
use emod_serve::registry::ModelRegistry;
use emod_serve::server::Server;
use emod_serve::Client;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Held for the whole of each test: one fault plan at a time.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn plan_lock() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the next test still runs.
    PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A synthetic artifact over the real design space (no simulation needed).
fn synthetic_artifact() -> ModelArtifact {
    let space = design_space();
    let mut rng = StdRng::seed_from_u64(42);
    let raw_points = emod_doe::lhs(&space, 60, &mut rng);
    let xs: Vec<Vec<f64>> = raw_points.iter().map(|p| space.encode(p)).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 5000.0 + 100.0 * x[..COMPILER_PARAMS].iter().sum::<f64>())
        .collect();
    let train = Dataset::new(xs.clone(), ys.clone()).unwrap();
    let test = Dataset::new(xs[..10].to_vec(), ys[..10].to_vec()).unwrap();
    let model = SurrogateModel::fit(&train, ModelFamily::Linear).unwrap();
    ModelArtifact {
        meta: ArtifactMeta {
            workload: "181.mcf".into(),
            input_set: "train".into(),
            metric: "cycles".into(),
            family: ModelFamily::Linear,
            scale: "quick".into(),
            seed: 9001,
            train_mape: 0.1,
            test_mape: 0.2,
            train_size: 60,
            test_size: 10,
        },
        space,
        model,
        quality: emod_quality::DesignSummary::from_design(&train),
        train,
        test,
        history: vec![(60, 0.2)],
    }
}

struct RawClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawClient {
    fn connect(addr: std::net::SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).unwrap();
        RawClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, body: &str) -> Json {
        writeln!(self.writer, "{}", body).unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    }
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn injected_faults_get_structured_replies_and_the_server_survives() {
    let _plan = plan_lock();
    // The plan, through the real EMOD_FAULTS env path: the first two
    // handler dispatches panic, the first four are delayed 200ms, and the
    // first artifact store fails with an injected I/O error.
    std::env::set_var(
        emod_faults::FAULTS_ENV,
        "panic:serve.handle:2x,delay:serve.handle:200ms:4x,io_error:registry.store:once",
    );
    assert_eq!(emod_faults::init_from_env(), Ok(true));

    let dir = std::env::temp_dir().join(format!("emod-serve-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let art = synthetic_artifact();
    let id = art.id();

    // Artifact io_error: the first publish fails with the injected error;
    // the next publish succeeds (recovery needs no operator action).
    let err = registry.store(&art).unwrap_err();
    assert!(err.to_string().contains("injected"), "{}", err);
    registry.store(&art).unwrap();
    assert_eq!(registry.list().unwrap(), vec![id.clone()]);

    let server = Server::bind(Arc::clone(&registry), "127.0.0.1:0", 4).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    let mut raw = RawClient::connect(addr);

    // Dispatch 1: delay + panic. The reply is a structured internal_error
    // marked retryable — and the connection (and worker) survive it.
    let resp = raw.request("{\"cmd\":\"list_models\"}");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{}", resp);
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("internal_error")
    );
    assert_eq!(resp.get("retryable"), Some(&Json::Bool(true)));
    assert!(resp
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("panicked"));

    // Dispatches 2–3: the retrying client eats the second injected panic
    // (attempt 1 → internal_error, backoff, attempt 2 → delayed but OK).
    let mut retrying = Client::new(&addr.to_string()).with_attempts(3);
    let resp = retrying.request("{\"cmd\":\"list_models\"}").unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
    assert_eq!(resp.get("count").and_then(Json::as_u64), Some(1));
    drop(retrying); // frees its worker for the concurrent connection below

    // Dispatch 4 is delayed 200ms on a second connection; a request sent
    // on the first connection meanwhile answers normally, and before the
    // delayed one: a slow request holds only its own connection.
    let (sent, sent_rx) = std::sync::mpsc::channel();
    let held = std::thread::spawn(move || {
        let mut c = RawClient::connect(addr);
        c.writer.write_all(b"{\"cmd\":\"list_models\"}\n").unwrap();
        sent.send(()).unwrap();
        let mut line = String::new();
        c.reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    });
    sent_rx.recv().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let resp = raw.request("{\"cmd\":\"list_models\"}");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
    assert!(
        !held.is_finished(),
        "the request on the first connection waited for the delayed one"
    );
    let held_resp = held.join().unwrap();
    assert_eq!(
        held_resp.get("ok"),
        Some(&Json::Bool(true)),
        "delayed requests still answer: {}",
        held_resp
    );

    // The plan is exhausted: every remaining request answers correctly.
    let resp = raw.request("{\"cmd\":\"health\"}");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
    let resp = raw.request(&format!(
        "{{\"cmd\":\"predict\",\"model\":\"{}\",\"point\":\"o2@typical\"}}",
        id
    ));
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp);
    assert!(resp.get("prediction").and_then(Json::as_f64).is_some());

    // stats reports the panic counter.
    let stats = raw.request("{\"cmd\":\"stats\"}");
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(counter(&stats, "serve.requests.panicked"), 2, "{}", stats);
    // The metrics exposition names it as an outcome, not as a command.
    let metrics = raw.request("{\"cmd\":\"metrics\"}");
    let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
    assert!(
        text.lines()
            .any(|l| l == "emod_serve_requests_panicked_total 2"),
        "{}",
        text
    );
    assert!(!text.contains("cmd=\"panicked\""), "{}", text);
    assert!(
        emod_telemetry::counter_value("serve.client.retries") >= 1,
        "the retrying client should have recorded its retry"
    );

    let bye = raw.request("{\"cmd\":\"shutdown\"}");
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    handle.join().unwrap();

    emod_faults::clear();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn deadline_exceeded_is_per_request_on_a_pipelined_connection() {
    let _plan = plan_lock();
    // Each of the first three handler dispatches sleeps 100 ms, four times
    // the 25 ms deadline. Deadlines count from arrival, so the wait behind
    // the single handler thread adds to the later requests' overrun.
    emod_faults::install(emod_faults::FaultPlan::parse("delay:serve.handle:100ms:3x", 0).unwrap());

    let dir = std::env::temp_dir().join(format!("emod-serve-deadline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let art = synthetic_artifact();
    let id = art.id();
    registry.store(&art).unwrap();
    let server = Server::bind(registry, "127.0.0.1:0", 1)
        .unwrap()
        .with_deadline_ms(Some(25));
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut raw = RawClient::connect(addr);
    let predict = format!(
        "{{\"cmd\":\"predict\",\"model\":\"{}\",\"point\":\"o2@typical\"}}\n",
        id
    );
    raw.writer.write_all(predict.repeat(3).as_bytes()).unwrap();
    for _ in 0..3 {
        let mut line = String::new();
        raw.reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{}", resp);
        assert_eq!(
            resp.get("code").and_then(Json::as_str),
            Some("deadline_exceeded"),
            "{}",
            resp
        );
        assert_eq!(resp.get("retryable"), Some(&Json::Bool(true)), "{}", resp);
    }
    // The errors were per request: the connection survives, and with the
    // plan exhausted a fast command answers within the deadline.
    let listed = raw.request("{\"cmd\":\"list_models\"}");
    assert_eq!(listed.get("ok"), Some(&Json::Bool(true)), "{}", listed);

    let bye = raw.request("{\"cmd\":\"shutdown\"}");
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    handle.join().unwrap();

    emod_faults::clear();
    let _ = std::fs::remove_dir_all(dir);
}
