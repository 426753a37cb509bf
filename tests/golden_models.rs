//! Golden fitted models and tuned points: the quick-scale linear, MARS and
//! RBF models of two workloads and the GA's tuned flags, compared value by
//! value with `tests/golden_models.txt`.
//!
//! For gzip and mcf at `BuildConfig::quick(9001)`, one `ModelBuilder` per
//! workload builds the three families in a fixed order. Each model records
//! the FNV-1a digest of its `SurrogateModel::encode` payload and the bits of
//! its test MAPE. The GA (`tune::search_flags`) then tunes each RBF model
//! for the typical machine at a fixed seed, recording the 14 compiler
//! values it prescribes and the bits of its predicted cycles. Together with
//! `tests/golden_sim.rs` this pins the whole Figure 1 loop: a change to the
//! design, a fit or the search must leave every value unchanged. The file
//! changes only with an intended change of responses, and the change that
//! re-records it names each changed value.

use emod::core::builder::{BuildConfig, ModelBuilder};
use emod::core::model::ModelFamily;
use emod::core::tune::search_flags;
use emod::core::vars::COMPILER_PARAMS;
use emod::models::Writer;
use emod::uarch::UarchConfig;
use emod::workloads::{InputSet, Workload};
use emod_serve::artifact::fnv1a64;
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("golden_models.txt");
const SEED: u64 = 9001;

/// Renders every recorded value as `<workload> <subject> <field> <value>`
/// lines, in a fixed order.
fn render() -> String {
    let mut out = String::new();
    for name in ["164.gzip-graphic", "181.mcf"] {
        let w = Workload::by_name(name).expect("workload exists");
        let mut builder = ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(SEED));
        let mut line = |subject: &str, field: &str, value: String| {
            out.push_str(&format!("{} {} {} {}\n", name, subject, field, value));
        };
        for (family, subject) in [
            (ModelFamily::Linear, "linear"),
            (ModelFamily::Mars, "mars"),
            (ModelFamily::Rbf, "rbf"),
        ] {
            let built = builder.build(family).expect("quick model fits");
            let mut payload = Writer::new();
            built.model.encode(&mut payload);
            let digest = fnv1a64(&payload.into_bytes());
            line(subject, "digest", format!("{:#018x}", digest));
            line(
                subject,
                "test_mape_bits",
                format!("{:#018x}", built.test_mape.to_bits()),
            );
            if family != ModelFamily::Rbf {
                continue;
            }
            let tuned = search_flags(&built, &UarchConfig::typical(), SEED);
            let subject = "rbf_tuned@typical";
            for (param, value) in built.space.parameters()[..COMPILER_PARAMS]
                .iter()
                .zip(&tuned.point)
            {
                line(subject, param.name(), value.to_string());
            }
            line(
                subject,
                "predicted_cycles_bits",
                format!("{:#018x}", tuned.predicted_cycles.to_bits()),
            );
        }
    }
    out
}

/// Parses rendered lines into `key -> value`, where the key is everything
/// before the last space-separated field.
fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, value) = l.rsplit_once(' ').expect("`<key> <value>` line");
            (key.to_string(), value.to_string())
        })
        .collect()
}

#[test]
fn fitted_models_and_tuned_points_match_the_golden_file() {
    let actual_text = render();
    let expected = parse(GOLDEN);
    let actual = parse(&actual_text);
    let mut changed = Vec::new();
    for (key, want) in &expected {
        match actual.get(key) {
            Some(got) if got == want => {}
            Some(got) => changed.push(format!("  {}: expected {}, got {}", key, want, got)),
            None => changed.push(format!("  {}: expected {}, not produced", key, want)),
        }
    }
    for (key, got) in &actual {
        if !expected.contains_key(key) {
            changed.push(format!("  {}: not in the golden file, got {}", key, got));
        }
    }
    if changed.is_empty() {
        return;
    }
    let actual_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_models.txt");
    let _ = std::fs::write(&actual_path, &actual_text);
    panic!(
        "{} model value(s) differ from tests/golden_models.txt:\n{}\n\n\
         expected file (tests/golden_models.txt):\n{}\n\
         this build's values are written to {}\n",
        changed.len(),
        changed.join("\n"),
        GOLDEN,
        actual_path.display()
    );
}
