//! Golden simulator responses: every workload at two fixed design points,
//! compared value by value with `tests/golden_sim.txt`.
//!
//! The points are `-O2` on the typical machine and the first quick-scale
//! training-design point at seed 9001, both on the train input. Each point
//! records the quick SMARTS result (cycles, instructions, windows, exit
//! value, energy and relative-error bits, detailed dispatches); the `-O2`
//! point also records the functional emulator's retired count. Any speed
//! change to the emulator, caches or sampling loop must leave every value
//! unchanged. The file changes only with an intended change of responses,
//! and the change that re-records it names each changed value.

use emod::compiler::OptConfig;
use emod::core::builder::BuildConfig;
use emod::core::vars::{decode_point, design_space, encode_point};
use emod::doe::{lhs, DOptimal, ModelSpec};
use emod::isa::Emulator;
use emod::uarch::{simulate_sampled, UarchConfig};
use emod::workloads::{InputSet, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("golden_sim.txt");
const SEED: u64 = 9001;

/// The first point of the quick-scale D-optimal training design at `seed`,
/// drawn exactly as `ModelBuilder` draws it.
fn first_train_point(seed: u64) -> Vec<f64> {
    let cfg = BuildConfig::quick(seed);
    let space = design_space();
    let mut rng = StdRng::seed_from_u64(seed);
    let candidates = lhs(&space, cfg.candidates, &mut rng);
    let train = DOptimal::new(&space, ModelSpec::main_effects()).select(
        &candidates,
        cfg.train_size,
        &mut rng,
    );
    train[0].clone()
}

/// Renders every recorded value as `<workload> <point> <field> <value>`
/// lines, in a fixed order.
fn render() -> String {
    let sample = BuildConfig::quick(SEED).sample;
    let points = [
        (
            "o2@typical",
            encode_point(&OptConfig::o2(), &UarchConfig::typical()),
        ),
        ("train0@s9001", first_train_point(SEED)),
    ];
    let mut out = String::new();
    for w in Workload::all() {
        for (label, point) in &points {
            let (opt, uarch) = decode_point(point);
            let program = w.program(&opt, InputSet::Train).expect("workload compiles");
            let mut line = |field: &str, value: String| {
                out.push_str(&format!("{} {} {} {}\n", w.name(), label, field, value));
            };
            if *label == "o2@typical" {
                let mut emu = Emulator::new(&program);
                emu.run(u64::MAX).expect("workload halts");
                line("retired", emu.retired_count().to_string());
            }
            let res = simulate_sampled(&program, &uarch, &sample).expect("workload simulates");
            line("cycles", res.cycles.to_string());
            line("instructions", res.instructions.to_string());
            line("windows", res.windows.to_string());
            line("exit_value", res.exit_value.to_string());
            line("energy_bits", format!("{:#018x}", res.energy.to_bits()));
            line(
                "rel_error_bits",
                format!("{:#018x}", res.rel_error.to_bits()),
            );
            line("dispatches", res.pipe.dispatches.to_string());
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
fn simulator_responses_match_the_golden_file() {
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
    let actual_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_sim.txt");
    let _ = std::fs::write(&actual_path, &actual_text);
    panic!(
        "{} simulator value(s) differ from tests/golden_sim.txt:\n{}\n\n\
         expected file (tests/golden_sim.txt):\n{}\n\
         this build's values are written to {}\n",
        changed.len(),
        changed.join("\n"),
        GOLDEN,
        actual_path.display()
    );
}
