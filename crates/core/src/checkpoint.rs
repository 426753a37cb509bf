//! JSONL measurement checkpoints: crash-tolerant persistence for campaign
//! responses.
//!
//! A paper-scale campaign is hundreds of design points, each a compile plus
//! a SMARTS-sampled simulation; a crash (OOM kill, power loss, SIGKILL)
//! must not lose the completed measurements. When `EMOD_CHECKPOINT` names a
//! directory, every [`crate::Measurer`] appends each freshly-simulated
//! response to `<dir>/<workload>__<set>.jsonl` and re-seeds its response
//! cache from that file on startup, so a restarted run replays only the
//! missing points — and, because responses are stored as raw `f64` bits
//! keyed by the exact design-point encoding, the resumed campaign is
//! **bit-identical** to an uninterrupted one.
//!
//! File format (one JSON object per line):
//!
//! ```text
//! {"v":1,"workload":"bzip2","set":"train","window":1000,"interval":40,"warmup":1500}
//! {"key":[4607182418800017408,...,0],"bits":4710765210229538816}
//! ```
//!
//! The header pins the sampling parameters: a checkpoint taken under
//! different SMARTS settings would *not* reproduce the same responses, so a
//! header mismatch discards the file and starts fresh. The `key` array is
//! the measurement-cache key (the `f64::to_bits` of each encoded design
//! value, then the metric discriminant); `bits` is `f64::to_bits` of the
//! response. A torn final line — the SIGKILL case — is skipped on load and
//! overwritten by subsequent appends. Any other line shape is skipped the
//! same way, including the `"tier"`-tagged entries older builds wrote: a
//! surrogate value is not a measurement, so such points are re-simulated
//! (DESIGN.md §10).

use emod_telemetry as telemetry;
use emod_uarch::SampleConfig;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Environment variable naming the checkpoint directory. Unset or empty
/// disables checkpointing.
pub const CHECKPOINT_ENV: &str = "EMOD_CHECKPOINT";

/// An append-only JSONL checkpoint of measured responses for one
/// workload/input-set pair.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    file: std::fs::File,
    write_errors: u64,
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

fn header_line(workload: &str, set: &str, sample: &SampleConfig) -> String {
    format!(
        "{{\"v\":1,\"workload\":\"{}\",\"set\":\"{}\",\"window\":{},\"interval\":{},\"warmup\":{}}}",
        sanitize(workload),
        set,
        sample.window,
        sample.interval,
        sample.warmup
    )
}

fn entry_line(key: &[u64], bits: u64) -> String {
    let mut s = String::with_capacity(32 + key.len() * 20);
    s.push_str("{\"key\":[");
    for (i, k) in key.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&k.to_string());
    }
    s.push_str("],\"bits\":");
    s.push_str(&bits.to_string());
    s.push('}');
    s
}

/// One entry recovered from a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// Response-cache key: `f64::to_bits` of each encoded design value,
    /// then the metric discriminant.
    pub key: Vec<u64>,
    /// `f64::to_bits` of the measured response.
    pub bits: u64,
}

/// Parses one entry line; `None` for anything malformed (notably a line
/// torn by a crash mid-append).
fn parse_entry(line: &str) -> Option<CheckpointEntry> {
    let rest = line.trim().strip_prefix("{\"key\":[")?;
    let (nums, rest) = rest.split_once(']')?;
    let mut key = Vec::new();
    for part in nums.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return None;
        }
        key.push(part.parse().ok()?);
    }
    let bits = rest
        .strip_prefix(",\"bits\":")?
        .strip_suffix('}')?
        .trim()
        .parse()
        .ok()?;
    Some(CheckpointEntry { key, bits })
}

/// Entries recovered from a checkpoint file, in recording order.
pub type CheckpointEntries = Vec<CheckpointEntry>;

impl Checkpoint {
    /// The checkpoint file for `workload`/`set` under `dir`.
    pub fn path_for(dir: &Path, workload: &str, set: &str) -> PathBuf {
        dir.join(format!("{}__{}.jsonl", sanitize(workload), set))
    }

    /// Opens (creating `dir` if needed) the checkpoint for `workload`/`set`,
    /// returning the handle plus every entry recoverable from an existing
    /// file. A missing file, or one whose header does not match the current
    /// sampling parameters, starts fresh; corrupt tail lines are skipped.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-open failures.
    pub fn open(
        dir: &Path,
        workload: &str,
        set: &str,
        sample: &SampleConfig,
    ) -> std::io::Result<(Checkpoint, CheckpointEntries)> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path_for(dir, workload, set);
        let header = header_line(workload, set, sample);
        let mut entries = Vec::new();
        let mut fresh = true;
        if let Ok(existing) = std::fs::File::open(&path) {
            let mut lines = BufReader::new(existing).lines();
            match lines.next() {
                Some(Ok(first)) if first.trim() == header => {
                    fresh = false;
                    let mut skipped = 0u64;
                    for line in lines {
                        let Ok(line) = line else { break };
                        if line.trim().is_empty() {
                            continue;
                        }
                        match parse_entry(&line) {
                            Some(entry) => entries.push(entry),
                            None => skipped += 1,
                        }
                    }
                    if skipped > 0 {
                        telemetry::counter_add("core.measure.checkpoint.corrupt_lines", skipped);
                        eprintln!(
                            "emod-core: checkpoint {}: skipped {} corrupt line(s) (torn write?)",
                            path.display(),
                            skipped
                        );
                    }
                }
                Some(_) => {
                    eprintln!(
                        "emod-core: checkpoint {} was taken under different settings; starting fresh",
                        path.display()
                    );
                }
                None => {}
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(!fresh)
            .truncate(fresh)
            .write(true)
            .open(&path)?;
        if fresh {
            writeln!(file, "{}", header)?;
            file.flush()?;
        }
        Ok((
            Checkpoint {
                path,
                file,
                write_errors: 0,
            },
            entries,
        ))
    }

    /// The file this checkpoint appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one measured response (flushed immediately, so a kill after
    /// this call cannot lose the measurement). Write failures are counted
    /// and reported, not fatal: losing checkpoint durability must not abort
    /// a running campaign.
    pub fn record(&mut self, key: &[u64], bits: u64) {
        let line = entry_line(key, bits);
        self.append(&line);
    }

    fn append(&mut self, line: &str) {
        let outcome = writeln!(self.file, "{}", line).and_then(|()| self.file.flush());
        if let Err(e) = outcome {
            self.write_errors += 1;
            telemetry::counter_add("core.measure.checkpoint.write_errors", 1);
            if self.write_errors == 1 {
                eprintln!(
                    "emod-core: checkpoint {}: write failed: {} (campaign continues without durability)",
                    self.path.display(),
                    e
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SampleConfig {
        SampleConfig {
            window: 500,
            interval: 100,
            warmup: 1000,
            fuel: u64::MAX,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("emod-ckpt-ut-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry(key: Vec<u64>, bits: u64) -> CheckpointEntry {
        CheckpointEntry { key, bits }
    }

    #[test]
    fn round_trips_entries_across_reopen() {
        let dir = temp_dir("roundtrip");
        let s = sample();
        let (mut ck, loaded) = Checkpoint::open(&dir, "bzip2", "train", &s).unwrap();
        assert!(loaded.is_empty());
        ck.record(&[1, 2, 3], 42);
        ck.record(&[4, 5, 6], 7);
        drop(ck);
        let (_, loaded) = Checkpoint::open(&dir, "bzip2", "train", &s).unwrap();
        assert_eq!(
            loaded,
            vec![entry(vec![1, 2, 3], 42), entry(vec![4, 5, 6], 7)]
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_line_is_skipped() {
        let dir = temp_dir("torn");
        let s = sample();
        let (mut ck, _) = Checkpoint::open(&dir, "gzip", "train", &s).unwrap();
        ck.record(&[9], 1);
        let path = ck.path().to_path_buf();
        drop(ck);
        // Simulate a crash mid-append: a truncated trailing record.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "{{\"key\":[10,11],\"bi").unwrap();
        drop(f);
        let (_, loaded) = Checkpoint::open(&dir, "gzip", "train", &s).unwrap();
        assert_eq!(loaded, vec![entry(vec![9], 1)]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sampling_parameter_mismatch_starts_fresh() {
        let dir = temp_dir("mismatch");
        let s = sample();
        let (mut ck, _) = Checkpoint::open(&dir, "mcf", "train", &s).unwrap();
        ck.record(&[1], 2);
        drop(ck);
        let denser = SampleConfig { interval: 10, ..s };
        let (_, loaded) = Checkpoint::open(&dir, "mcf", "train", &denser).unwrap();
        assert!(
            loaded.is_empty(),
            "entries measured under other sampling settings must not be reused"
        );
        // And the stale entries are really gone, not just ignored once.
        let (_, loaded) = Checkpoint::open(&dir, "mcf", "train", &denser).unwrap();
        assert!(loaded.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn entry_parser_rejects_malformed_lines() {
        assert_eq!(
            parse_entry("{\"key\":[1,2],\"bits\":3}"),
            Some(entry(vec![1, 2], 3))
        );
        for bad in [
            "",
            "{\"key\":[],\"bits\":3}",
            "{\"key\":[1,2],\"bits\":}",
            "{\"key\":[1,x],\"bits\":3}",
            "{\"key\":[1,2],\"bits\":3",
            "garbage",
            // Torn or malformed tiered tails.
            "{\"key\":[1],\"bits\":3,\"tier\":}",
            "{\"key\":[1],\"bits\":3,\"tier\":1,\"inst\":}",
            "{\"key\":[1],\"bits\":3,\"tier\":1,\"inst\":9,\"stack\":[1,2]}",
            "{\"key\":[1],\"bits\":3,\"tier\":1,\"inst\":9,\"stack\":[1,2,3,4,5,6,7]}",
            "{\"key\":[1],\"bits\":3,\"tier\":1,\"inst\":9,\"stack\":[1,2,3",
            // Complete tagged entries: surrogate, SMARTS and detailed. A
            // surrogate value must never enter a dataset as a measurement.
            "{\"key\":[1],\"bits\":3,\"tier\":0}",
            "{\"key\":[1],\"bits\":3,\"tier\":1,\"inst\":9,\"stack\":[1,2,3,4,5,6]}",
            "{\"key\":[1],\"bits\":3,\"tier\":2,\"inst\":9}",
        ] {
            assert_eq!(parse_entry(bad), None, "{:?}", bad);
        }
    }
}
