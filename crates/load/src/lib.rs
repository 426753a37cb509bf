//! `emod-load`: an open-loop load generator for the `emod-serve`
//! prediction server.
//!
//! Three pieces (DESIGN.md §14):
//!
//! * **[`schedule`]** — deterministic request schedules: fixed-rate or
//!   Poisson arrival processes seeded through the offline `rand` stand-in,
//!   a weighted per-command mix (`predict`/`predict_batch`/`explain`/
//!   `tune`), and an FNV digest over the whole timeline so two runs can
//!   prove they issued identical load.
//! * **[`runner`]** — multi-connection drivers over the existing TCP
//!   [`emod_serve::Client`] (retries disabled). Latency is measured from
//!   each request's *intended* send time, so a stalled server inflates the
//!   recorded tail instead of silently pausing the generator — the
//!   coordinated-omission guard. The closed-loop service time is recorded
//!   alongside for comparison.
//! * **[`report`]** — exact p50/p90/p99/p99.9 from the raw samples (the
//!   `emod-telemetry` histograms get the same series for scraping),
//!   throughput and error rate, a summary JSON whose
//!   deterministic prefix is byte-identical across server thread counts,
//!   and one-line `BENCH_HISTORY.jsonl` records for `emod-trace bench`.
//!
//! The `emod-load` binary wires these to a command-line interface; flags
//! are its only configuration.

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod schedule;

pub use report::{append_history, build_report, history_line, quantiles_ms, Quantiles, Tally};
pub use runner::{run, LoadResult, Outcome, Sample};
pub use schedule::{
    build_schedule, schedule_digest, Arrival, CommandKind, CommandMix, LoadConfig, ScheduledRequest,
};
