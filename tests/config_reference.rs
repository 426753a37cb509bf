//! docs/CONFIG.md is the authoritative list of `EMOD_*` variables. This
//! test keeps it honest in both directions: every `"EMOD_…"` string
//! literal in the workspace's program sources (`crates/*/src`, `src/`)
//! must have a row, and every row must name a variable some source still
//! reads. A removed knob cannot leave its row behind, and a new knob
//! cannot ship undocumented. It also holds the intro's startup rule to the
//! one variable that can abort startup, `EMOD_FAULTS`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `"EMOD_[A-Z0-9_]+"` string literal in `text`.
fn env_literals(text: &str, out: &mut BTreeSet<String>) {
    let mut rest = text;
    while let Some(at) = rest.find("\"EMOD_") {
        let tail = &rest[at + 1..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        if len > "EMOD_".len() && tail[len..].starts_with('"') {
            out.insert(tail[..len].to_string());
        }
        rest = tail;
    }
}

fn source_variables() -> BTreeSet<String> {
    let root = root();
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).unwrap().flatten() {
        rust_files(&krate.path().join("src"), &mut files);
    }
    assert!(!files.is_empty(), "no Rust sources found under {:?}", root);
    let mut vars = BTreeSet::new();
    for file in files {
        env_literals(&fs::read_to_string(&file).unwrap(), &mut vars);
    }
    vars
}

/// The variable of each `| \`EMOD_…\` | …` table row, in file order.
fn documented_rows() -> Vec<String> {
    fs::read_to_string(root().join("docs/CONFIG.md"))
        .unwrap()
        .lines()
        .filter_map(|line| line.strip_prefix("| `EMOD_"))
        .map(|rest| format!("EMOD_{}", &rest[..rest.find('`').unwrap()]))
        .collect()
}

#[test]
fn literal_scanner_takes_whole_names_only() {
    let mut found = BTreeSet::new();
    env_literals(
        r#"var("EMOD_A_1") "EMOD_" "EMOD_B=x" "EMOD_lower" X"EMOD_C""#,
        &mut found,
    );
    let want: BTreeSet<String> = ["EMOD_A_1", "EMOD_C"].map(String::from).into();
    assert_eq!(found, want);
}

#[test]
fn config_md_rows_match_the_variables_the_sources_read() {
    let rows = documented_rows();
    let documented: BTreeSet<String> = rows.iter().cloned().collect();
    assert_eq!(documented.len(), rows.len(), "duplicate rows: {:?}", rows);
    let read = source_variables();
    assert!(read.contains("EMOD_THREADS"), "scanner found {:?}", read);
    let undocumented: Vec<_> = read.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "docs/CONFIG.md is out of step with the sources.\n\
         read but not documented: {:?}\n\
         documented but never read: {:?}",
        undocumented,
        stale
    );
}

/// The prose above the table: the rules that apply to every variable.
fn intro() -> String {
    let text = fs::read_to_string(root().join("docs/CONFIG.md")).unwrap();
    let end = text.find("\n| Variable |").expect("the variable table");
    text[..end].split_whitespace().collect::<Vec<_>>().join(" ")
}

#[test]
fn config_md_intro_names_the_one_variable_that_aborts_startup() {
    // `repro` and `emod-serve` exit 2 on a malformed fault plan (DESIGN.md
    // §10); every other variable falls back to its default.
    let intro = intro();
    for claim in ["no variable can", "No variable can"] {
        assert!(
            !intro.contains(claim),
            "docs/CONFIG.md's intro still says {:?} abort startup: {}",
            claim,
            intro
        );
    }
    assert!(
        intro.contains("`EMOD_FAULTS`") && intro.contains("exit with status 2"),
        "docs/CONFIG.md's intro must name `EMOD_FAULTS` as the variable that \
         aborts startup (exit with status 2): {}",
        intro
    );
}
