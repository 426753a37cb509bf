//! Wire tests for the serving front over real loopback TCP: replies
//! byte-identical to a golden transcript, sent one request at a time and
//! pipelined in one write; files left in a registry by the removed refresh
//! loop changing no reply; many open connections multiplexed onto two
//! threads; and a client that pipelines without reading, which stops being
//! served until it reads and then gets every reply in order.
//!
//! The transcript (`wire_transcript.txt`, `> request` / `< response`
//! line pairs) holds the replies of the earlier thread-per-connection
//! front to a fixed request mix, so it pins the wire format across the
//! change of front. Servers are configured through builders, never
//! process env, so the tests are safe under the parallel test runner.

use emod_core::model::{ModelFamily, SurrogateModel};
use emod_core::vars::{design_space, COMPILER_PARAMS};
use emod_models::Dataset;
use emod_serve::artifact::{ArtifactMeta, ModelArtifact};
use emod_serve::json::Json;
use emod_serve::registry::ModelRegistry;
use emod_serve::server::Server;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// A linear-family artifact over the real 25-parameter space with a known
/// response surface.
fn artifact_on(xs: &[Vec<f64>], ys: &[f64]) -> ModelArtifact {
    let train = Dataset::new(xs.to_vec(), ys.to_vec()).unwrap();
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
            train_size: xs.len(),
            test_size: 10,
        },
        space: design_space(),
        model,
        quality: emod_quality::DesignSummary::from_design(&train),
        train: train.clone(),
        test: Dataset::new(xs[..10].to_vec(), ys[..10].to_vec()).unwrap(),
        history: vec![(xs.len(), 0.2)],
    }
}

fn truth(x: &[f64]) -> f64 {
    let compiler: f64 = x[..COMPILER_PARAMS].iter().sum();
    let machine: f64 = x[COMPILER_PARAMS..].iter().sum();
    5000.0 + 100.0 * compiler - 10.0 * machine
}

/// Seeds a fresh registry at `dir` with one synthetic artifact; returns
/// its id and a batch of in-space query points.
fn seed_registry(dir: &Path) -> (String, Vec<Vec<f64>>) {
    let _ = std::fs::remove_dir_all(dir);
    let space = design_space();
    let mut rng = StdRng::seed_from_u64(42);
    let raw = emod_doe::lhs(&space, 60, &mut rng);
    let xs: Vec<Vec<f64>> = raw.iter().map(|p| space.encode(p)).collect();
    let ys: Vec<f64> = xs.iter().map(|x| truth(x)).collect();
    let art = artifact_on(&xs, &ys);
    let id = art.id();
    let registry = ModelRegistry::open(dir).unwrap();
    registry.store(&art).unwrap();
    let mut qrng = StdRng::seed_from_u64(99);
    let queries = emod_doe::lhs(&space, 48, &mut qrng);
    (id, queries)
}

struct TestClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TestClient {
    fn connect(addr: std::net::SocketAddr) -> TestClient {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        TestClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// One request, returning the raw response line (byte comparisons).
    fn request_raw(&mut self, body: &str) -> String {
        writeln!(self.writer, "{}", body).unwrap();
        self.writer.flush().unwrap();
        self.read_line()
    }

    fn request(&mut self, body: &str) -> Json {
        Json::parse(&self.request_raw(body)).unwrap()
    }

    /// Writes every line in one flush (pipelining), then reads that many
    /// response lines back in order.
    fn pipeline_raw(&mut self, bodies: &[String]) -> Vec<String> {
        let mut block = String::new();
        for b in bodies {
            block.push_str(b);
            block.push('\n');
        }
        self.writer.write_all(block.as_bytes()).unwrap();
        self.writer.flush().unwrap();
        (0..bodies.len()).map(|_| self.read_line()).collect()
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "server closed the connection early");
        line.trim_end_matches(['\n', '\r']).to_string()
    }
}

/// Binds a server on an ephemeral port and runs it on its own thread.
fn spawn_server(server: Server) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

fn shutdown(addr: std::net::SocketAddr) {
    let mut c = TestClient::connect(addr);
    let bye = c.request("{\"cmd\":\"shutdown\"}");
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
}

fn predict_body(id: &str, point: &[f64]) -> String {
    let pt: Vec<String> = point.iter().map(|v| format!("{}", v)).collect();
    format!(
        "{{\"cmd\":\"predict\",\"model\":\"{}\",\"point\":[{}]}}",
        id,
        pt.join(",")
    )
}

/// Registry root of the golden test. It is relative on purpose: the
/// `no-such-model` reply quotes the path, and the transcript was recorded
/// with exactly this root (tests run from the crate directory).
const GOLDEN_REGISTRY: &str = "../../target/golden-wire-registry";

/// The golden transcript as `(request, response)` line pairs.
fn golden_pairs() -> Vec<(String, String)> {
    let mut lines = include_str!("wire_transcript.txt").lines();
    let mut pairs = Vec::new();
    while let Some(request) = lines.next() {
        let response = lines.next().expect("request line without a response");
        let request = request.strip_prefix("> ").expect("request line");
        let response = response.strip_prefix("< ").expect("response line");
        pairs.push((request.to_string(), response.to_string()));
    }
    pairs
}

#[test]
fn replies_match_the_golden_transcript_sequential_and_pipelined() {
    let dir = Path::new(GOLDEN_REGISTRY);
    let (id, _) = seed_registry(dir);
    let (requests, expected): (Vec<String>, Vec<String>) = golden_pairs().into_iter().unzip();
    assert!(
        requests.iter().any(|r| r.contains(&id)),
        "the transcript addresses a different artifact than {}",
        id
    );

    let registry = Arc::new(ModelRegistry::open(dir).unwrap());
    let (addr, handle) = spawn_server(Server::bind(registry, "127.0.0.1:0", 2).unwrap());
    let mut sequential = TestClient::connect(addr);
    for (request, want) in requests.iter().zip(&expected) {
        assert_eq!(
            &sequential.request_raw(request),
            want,
            "reply to {}",
            request
        );
    }
    // The whole mix in one write: two handler threads may finish out of
    // order, yet every reply must come back in request order, unchanged.
    let mut pipelined = TestClient::connect(addr);
    assert_eq!(pipelined.pipeline_raw(&requests), expected);

    shutdown(addr);
    handle.join().unwrap();
}

/// The refresh loop (DESIGN.md §15) left three kinds of files behind: a
/// version artifact `<base>@v1.emod`, a `<base>.rollout` state file and a
/// `refresh/<base>.queue.jsonl` queue. A registry holding all three, with
/// the rollout mid-canary on a version fit to a different surface, must
/// answer every command exactly like the same registry without them.
#[test]
fn files_left_by_the_removed_refresh_loop_change_no_reply() {
    let space = design_space();
    let mut rng = StdRng::seed_from_u64(42);
    let raw = emod_doe::lhs(&space, 60, &mut rng);
    let xs: Vec<Vec<f64>> = raw.iter().map(|p| space.encode(p)).collect();
    let ys: Vec<f64> = xs.iter().map(|x| truth(x)).collect();
    let warped: Vec<f64> = ys
        .iter()
        .enumerate()
        .map(|(i, y)| y * (1.0 + 0.08 * ((i as f64) * 0.7).sin()))
        .collect();
    let active = artifact_on(&xs, &ys);
    let base = active.id();
    let dirs = ["clean", "leftover"].map(|tag| {
        let dir = std::env::temp_dir().join(format!("emod-reactor-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ModelRegistry::open(&dir).unwrap().store(&active).unwrap();
        dir
    });
    let leftover = &dirs[1];
    std::fs::write(
        leftover.join(format!("{}@v1.emod", base)),
        artifact_on(&xs, &warped).to_bytes(),
    )
    .unwrap();
    std::fs::write(
        leftover.join(format!("{}.rollout", base)),
        format!(
            "{{\"base\":\"{}\",\"phase\":\"canary\",\"active\":0,\"canary\":1,\"prev\":null,\"fraction\":1,\"events\":[]}}\n",
            base
        ),
    )
    .unwrap();
    std::fs::create_dir_all(leftover.join("refresh")).unwrap();
    std::fs::write(
        leftover
            .join("refresh")
            .join(format!("{}.queue.jsonl", base)),
        "{\"v\":1,\"base\":\"m\"}\n{\"point\":[0]}\n",
    )
    .unwrap();

    let mut qrng = StdRng::seed_from_u64(7);
    let queries = emod_doe::lhs(&space, 8, &mut qrng);
    let mut requests = vec!["{\"cmd\":\"list_models\"}".to_string()];
    requests.extend(queries.iter().map(|q| predict_body(&base, q)));
    requests.push(format!(
        "{{\"cmd\":\"explain\",\"model\":\"{}\",\"point\":\"o2@typical\"}}",
        base
    ));
    requests.push("{\"cmd\":\"tune\",\"workload\":\"mcf\",\"seed\":3}".to_string());
    requests.push(format!(
        "{{\"cmd\":\"observe\",\"model\":\"{}\",\"point\":\"o2@typical\",\"measured\":5000}}",
        base
    ));
    requests.push("{\"cmd\":\"health\"}".to_string());

    let replies = dirs.each_ref().map(|dir| {
        let registry = Arc::new(ModelRegistry::open(dir).unwrap());
        let (addr, handle) = spawn_server(Server::bind(registry, "127.0.0.1:0", 2).unwrap());
        let mut client = TestClient::connect(addr);
        let mut lines: Vec<String> = requests.iter().map(|r| client.request_raw(r)).collect();
        // Health differs between any two servers by uptime alone.
        let mut health = Json::parse(&lines.pop().unwrap()).unwrap();
        if let Json::Obj(fields) = &mut health {
            fields.retain(|(k, _)| k != "uptime_s");
        }
        lines.push(health.to_string());
        shutdown(addr);
        handle.join().unwrap();
        lines
    });
    for (request, (clean, left)) in requests.iter().zip(replies[0].iter().zip(&replies[1])) {
        assert!(clean.contains("\"ok\":true"), "{} -> {}", request, clean);
        assert_eq!(clean, left, "reply to {}", request);
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn reactor_multiplexes_many_connections_on_two_workers() {
    let dir = std::env::temp_dir().join(format!("emod-reactor-many-{}", std::process::id()));
    let (id, queries) = seed_registry(&dir);

    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let (addr, handle) = spawn_server(Server::bind(registry, "127.0.0.1:0", 2).unwrap());

    // 64 concurrently open connections on a 2-worker pool: no connection
    // holds a worker while idle, so every one is answered while they all
    // stay open.
    let mut clients: Vec<TestClient> = (0..64).map(|_| TestClient::connect(addr)).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let resp = client.request(&predict_body(&id, &queries[i % queries.len()]));
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(true)),
            "conn {}: {}",
            i,
            resp
        );
    }
    // Second round in reverse order — no connection was quietly dropped.
    for (i, client) in clients.iter_mut().enumerate().rev() {
        let resp = client.request("{\"cmd\":\"health\"}");
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(true)),
            "conn {}: {}",
            i,
            resp
        );
    }
    drop(clients);

    shutdown(addr);
    handle.join().unwrap();
}

/// The `cmd="metrics"` request count that a `metrics` reply renders, read
/// from the raw reply line (the exposition is a JSON string, so its quotes
/// arrive escaped).
fn rendered_metrics_count(raw: &str) -> u64 {
    let key = r#"emod_serve_command_requests_total{cmd=\"metrics\"} "#;
    let at = raw
        .find(key)
        .unwrap_or_else(|| panic!("no metrics count in {}", raw))
        + key.len();
    let digits: String = raw[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

#[test]
fn unsent_replies_are_bounded_and_still_arrive_in_order() {
    // Each `metrics` reply is a few KiB, so 20,000 of them hold far more
    // than 1 MiB plus both sockets' buffers.
    const LINES: u64 = 20_000;
    let dir = std::env::temp_dir().join(format!("emod-reactor-unread-{}", std::process::id()));
    seed_registry(&dir);
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let (addr, handle) = spawn_server(Server::bind(registry, "127.0.0.1:0", 2).unwrap());

    let mut greedy = TestClient::connect(addr);
    let mut writer = greedy.writer.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        writer
            .write_all("{\"cmd\":\"metrics\"}\n".repeat(LINES as usize).as_bytes())
            .unwrap();
    });

    // Watch the server answer through a second connection until it stops.
    // The `metrics` counter counts only this test's requests: the other
    // tests of this binary share the process-wide counters but send none.
    let mut watcher = TestClient::connect(addr);
    let answered = |watcher: &mut TestClient| {
        let stats = watcher.request("{\"cmd\":\"stats\"}");
        stats
            .get("counters")
            .and_then(|c| c.get("serve.requests.metrics"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let started = std::time::Instant::now();
    let (mut last, mut still) = (0, 0);
    while still < 3 {
        std::thread::sleep(Duration::from_millis(100));
        let now = answered(&mut watcher);
        still = if now == last && now > 0 { still + 1 } else { 0 };
        last = now;
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the server kept answering an unread connection: {} of {}",
            last,
            LINES
        );
    }
    assert!(
        last < LINES / 2,
        "{} of {} replies were produced for a client that reads none",
        last,
        LINES
    );

    // Once the client reads, every reply arrives, in request order: each
    // renders the count of `metrics` requests one higher than the last.
    let first = rendered_metrics_count(&greedy.read_line());
    for k in 1..LINES {
        assert_eq!(rendered_metrics_count(&greedy.read_line()), first + k);
    }
    sender.join().unwrap();
    assert_eq!(answered(&mut watcher), first + LINES - 1);

    drop(greedy);
    shutdown(addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
