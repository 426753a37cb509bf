//! Crash-safe refresh queue and incremental design augmentation — the
//! measurement-side half of the closed model-refresh loop.
//!
//! Serving-time quality signals (extrapolation past the training hull,
//! cross-family disagreement) enqueue *raw* design points here; a
//! background worker later measures them, augments the training design,
//! and retrains.
//!
//! The queue is a single append-only JSONL file per base model id
//! (`<sanitized-base>.queue.jsonl`), following the same durability recipe
//! as [`crate::checkpoint`]: a versioned header line, one self-contained
//! entry per line flushed on append, hand-rolled parsing that tolerates a
//! torn final line (the SIGKILL case — the entry simply isn't replayed),
//! and write failures that are counted, not fatal. Points are keyed by
//! their `f64::to_bits` patterns, so replay and deduplication are exact.
//!
//! A `pending` entry records an enqueued point; a `done` entry records
//! that the point's measurement landed in an artifact. Replaying the file
//! reconstructs the pending set deterministically, so a worker killed
//! mid-cycle resumes with exactly the points it had left (and the
//! measurement checkpoint makes the re-measurement itself bit-identical).

use emod_models::{Dataset, ModelError};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Environment variable naming the refresh-queue directory; setting it (or
/// `EMOD_REFRESH=1`) enables serve-side refresh enqueueing.
pub const REFRESH_DIR_ENV: &str = "EMOD_REFRESH_DIR";

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

fn bits_of(point: &[f64]) -> Vec<u64> {
    point.iter().map(|v| v.to_bits()).collect()
}

fn bits_json(bits: &[u64]) -> String {
    let parts: Vec<String> = bits.iter().map(u64::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// One parsed queue line: a newly pending point or a completion marker.
enum QueueLine {
    Pending(Vec<u64>),
    Done(Vec<u64>),
}

/// Parses one entry line. `None` for torn or foreign lines — the caller
/// skips them, which is exactly the torn-tail-after-SIGKILL behavior.
fn parse_line(line: &str) -> Option<QueueLine> {
    let line = line.trim();
    let (key, rest) = if let Some(rest) = line.strip_prefix("{\"point\":[") {
        (false, rest)
    } else if let Some(rest) = line.strip_prefix("{\"done\":[") {
        (true, rest)
    } else {
        return None;
    };
    let end = rest.find(']')?;
    if !rest[end..].starts_with("]}") {
        return None;
    }
    let mut bits = Vec::new();
    for part in rest[..end].split(',') {
        let part = part.trim();
        if part.is_empty() {
            return None;
        }
        bits.push(part.parse::<u64>().ok()?);
    }
    if bits.is_empty() {
        return None;
    }
    Some(if key {
        QueueLine::Done(bits)
    } else {
        QueueLine::Pending(bits)
    })
}

/// A crash-safe FIFO of design points awaiting background measurement.
///
/// Open it, [`enqueue`](RefreshQueue::enqueue) points as quality signals
/// fire, drain [`pending`](RefreshQueue::pending) in a refresh cycle, and
/// [`mark_done`](RefreshQueue::mark_done) each point once its measurement
/// is safely inside a published artifact. Every mutation is appended and
/// flushed before the call returns; reopening after any kill replays the
/// file to the identical pending set.
#[derive(Debug)]
pub struct RefreshQueue {
    base: String,
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    pending: Vec<Vec<u64>>,
    seen: HashSet<Vec<u64>>,
    done: HashSet<Vec<u64>>,
    write_errors: u64,
}

impl RefreshQueue {
    /// The queue file path for `base` under `dir`.
    pub fn path_for(dir: &Path, base: &str) -> PathBuf {
        dir.join(format!("{}.queue.jsonl", sanitize(base)))
    }

    /// Opens (creating if needed) the queue for `base` under `dir`,
    /// replaying any existing file. Torn trailing lines are skipped; a
    /// file whose header names a different base is started fresh (the
    /// sanitized filename collided).
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::Error`] if the directory cannot be created or
    /// the file cannot be opened.
    pub fn open(dir: &Path, base: &str) -> std::io::Result<RefreshQueue> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path_for(dir, base);
        let mut pending: Vec<Vec<u64>> = Vec::new();
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        let mut done: HashSet<Vec<u64>> = HashSet::new();
        let mut fresh = true;
        if let Ok(text) = std::fs::read_to_string(&path) {
            let mut lines = text.lines();
            if let Some(header) = lines.next() {
                if header.trim() == header_line(base) {
                    fresh = false;
                    for line in lines {
                        match parse_line(line) {
                            Some(QueueLine::Pending(bits)) if seen.insert(bits.clone()) => {
                                pending.push(bits);
                            }
                            Some(QueueLine::Pending(_)) => {} // duplicate enqueue
                            Some(QueueLine::Done(bits)) => {
                                done.insert(bits);
                            }
                            None => {} // torn tail or foreign line
                        }
                    }
                    pending.retain(|bits| !done.contains(bits));
                }
            }
        }
        let mut writer = BufWriter::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .truncate(false)
                .open(&path)?,
        );
        if fresh {
            // Start (or restart) the file with its header. Truncate first:
            // a mismatched header means the bytes belong to another base.
            drop(writer);
            let file = File::create(&path)?;
            writer = BufWriter::new(file);
            writeln!(writer, "{}", header_line(base))?;
            writer.flush()?;
        }
        Ok(RefreshQueue {
            base: base.to_string(),
            path,
            writer: Some(writer),
            pending,
            seen,
            done,
            write_errors: 0,
        })
    }

    /// The queue's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The base model id this queue feeds.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// Enqueues a raw design point. Returns `false` (and writes nothing)
    /// when the point was already enqueued or already measured — the queue
    /// deduplicates on exact f64 bit patterns.
    pub fn enqueue(&mut self, point: &[f64]) -> bool {
        if point.is_empty() {
            return false;
        }
        let bits = bits_of(point);
        if self.done.contains(&bits) || !self.seen.insert(bits.clone()) {
            return false;
        }
        self.append(&format!("{{\"point\":{}}}", bits_json(&bits)));
        self.pending.push(bits);
        true
    }

    /// Marks a point's measurement as landed; it will not be replayed.
    pub fn mark_done(&mut self, point: &[f64]) {
        let bits = bits_of(point);
        if self.done.insert(bits.clone()) {
            self.append(&format!("{{\"done\":{}}}", bits_json(&bits)));
            self.pending.retain(|p| *p != bits);
        }
    }

    /// The pending points, in enqueue order, decoded back to raw f64s.
    pub fn pending(&self) -> Vec<Vec<f64>> {
        self.pending
            .iter()
            .map(|bits| bits.iter().map(|b| f64::from_bits(*b)).collect())
            .collect()
    }

    /// Number of points awaiting measurement.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Append failures so far (durability degraded, queue still serves).
    pub fn write_error_count(&self) -> u64 {
        self.write_errors
    }

    fn append(&mut self, line: &str) {
        let Some(writer) = self.writer.as_mut() else {
            self.write_errors += 1;
            return;
        };
        let ok = writeln!(writer, "{}", line).is_ok() && writer.flush().is_ok();
        if !ok {
            self.write_errors += 1;
        }
    }
}

fn header_line(base: &str) -> String {
    format!("{{\"v\":1,\"base\":\"{}\"}}", sanitize(base))
}

/// Lists the bases with a queue file under `dir` and their pending counts
/// (replayed read-only; sanitized names come from the file headers).
pub fn list_queues(dir: &Path) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".queue.jsonl"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let mut lines = text.lines();
        let Some(header) = lines.next() else { continue };
        let Some(base) = header
            .trim()
            .strip_prefix("{\"v\":1,\"base\":\"")
            .and_then(|r| r.strip_suffix("\"}"))
        else {
            continue;
        };
        let mut pending: Vec<Vec<u64>> = Vec::new();
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        let mut done: HashSet<Vec<u64>> = HashSet::new();
        for line in lines {
            match parse_line(line) {
                Some(QueueLine::Pending(bits)) if seen.insert(bits.clone()) => {
                    pending.push(bits);
                }
                Some(QueueLine::Pending(_)) => {} // duplicate enqueue
                Some(QueueLine::Done(bits)) => {
                    done.insert(bits);
                }
                None => {}
            }
        }
        pending.retain(|bits| !done.contains(bits));
        out.push((base.to_string(), pending.len()));
    }
    out
}

/// Augments a training design with freshly measured points, deduplicating
/// on exact coded-point bit patterns (an existing point's response wins —
/// it is the one the served model was trained on).
///
/// Order is deterministic: existing points first in their original order,
/// then additions in the given order. Re-running an interrupted refresh
/// cycle therefore reproduces the augmented design byte for byte.
///
/// # Errors
///
/// Returns a [`ModelError`] if an addition's dimension disagrees with the
/// design's.
pub fn augment_design(
    train: &Dataset,
    additions: &[(Vec<f64>, f64)],
) -> Result<Dataset, ModelError> {
    let mut xs: Vec<Vec<f64>> = train.points().to_vec();
    let mut ys: Vec<f64> = train.responses().to_vec();
    let mut keys: HashSet<Vec<u64>> = xs.iter().map(|p| bits_of(p)).collect();
    for (point, response) in additions {
        if keys.insert(bits_of(point)) {
            xs.push(point.clone());
            ys.push(*response);
        }
    }
    Dataset::new(xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emod-refresh-queue-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn enqueue_dedup_and_replay() {
        let dir = temp_dir();
        let p1 = vec![0.5, -0.25];
        let p2 = vec![1.0, 2.0];
        {
            let mut q = RefreshQueue::open(&dir, "model-a").unwrap();
            assert!(q.enqueue(&p1));
            assert!(!q.enqueue(&p1), "duplicate enqueue is a no-op");
            assert!(q.enqueue(&p2));
            q.mark_done(&p1);
            assert_eq!(q.pending(), vec![p2.clone()]);
        }
        // Reopen: the replayed pending set is identical.
        let q = RefreshQueue::open(&dir, "model-a").unwrap();
        assert_eq!(q.pending(), vec![p2.clone()]);
        // A done point cannot be re-enqueued even after replay.
        let mut q = q;
        assert!(!q.enqueue(&p1));
        assert_eq!(list_queues(&dir), vec![("model-a".to_string(), 1)]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_is_skipped_on_replay() {
        let dir = temp_dir();
        let p1 = vec![3.0];
        let p2 = vec![4.0];
        {
            let mut q = RefreshQueue::open(&dir, "m").unwrap();
            q.enqueue(&p1);
            q.enqueue(&p2);
        }
        // Simulate SIGKILL mid-append: chop bytes off the last line.
        let path = RefreshQueue::path_for(&dir, "m");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let q = RefreshQueue::open(&dir, "m").unwrap();
        assert_eq!(q.pending(), vec![p1], "torn p2 line dropped, p1 intact");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn mismatched_header_starts_fresh() {
        let dir = temp_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = RefreshQueue::path_for(&dir, "m");
        std::fs::write(&path, "{\"v\":1,\"base\":\"other\"}\n{\"point\":[1]}\n").unwrap();
        let q = RefreshQueue::open(&dir, "m").unwrap();
        assert!(q.pending().is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"v\":1,\"base\":\"m\"}\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn parse_line_rejects_garbage() {
        assert!(parse_line("").is_none());
        assert!(parse_line("{\"point\":[]}").is_none());
        assert!(parse_line("{\"point\":[1,]}").is_none());
        assert!(parse_line("{\"point\":[1").is_none());
        assert!(parse_line("{\"other\":[1]}").is_none());
        assert!(matches!(
            parse_line("{\"point\":[1,2]}"),
            Some(QueueLine::Pending(_))
        ));
        assert!(matches!(
            parse_line("{\"done\":[3]}"),
            Some(QueueLine::Done(_))
        ));
    }

    #[test]
    fn augment_design_dedups_and_preserves_order() {
        let xs = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let ys = vec![10.0, 20.0];
        let train = Dataset::new(xs, ys).unwrap();
        let additions = vec![
            (vec![1.0, 1.0], 999.0), // duplicate of an existing point
            (vec![2.0, 2.0], 30.0),
            (vec![2.0, 2.0], 31.0), // duplicate addition
            (vec![3.0, 3.0], 40.0),
        ];
        let out = augment_design(&train, &additions).unwrap();
        assert_eq!(
            out.points(),
            &[
                vec![0.0, 0.0],
                vec![1.0, 1.0],
                vec![2.0, 2.0],
                vec![3.0, 3.0]
            ]
        );
        assert_eq!(out.responses(), &[10.0, 20.0, 30.0, 40.0]);
        // Dimension mismatch is an error, not a panic.
        assert!(augment_design(&train, &[(vec![1.0], 5.0)]).is_err());
    }
}
