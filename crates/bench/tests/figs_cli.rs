//! The results program's command line and its experiment table, driven
//! through the built binary: what `--list` declares against the goldens
//! that pin it, and the three ways a run refuses to start or to finish.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

/// A results directory of `test`'s own, not yet created.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccd-figs-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `figs` at quick scale with its results under `dir`.
fn figs(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figs"))
        .args(args)
        .env("CCD_SCALE", "quick")
        .env("CCD_RESULTS_DIR", dir)
        .output()
        .expect("figs starts")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("figs prints UTF-8")
}

/// `(name, files)` per line of `figs --list`.
fn listed() -> Vec<(String, Vec<String>)> {
    let output = figs(&scratch("list"), &["--list"]);
    assert!(output.status.success());
    text(&output.stdout)
        .lines()
        .map(|line| {
            let mut tokens = line.split(' ').map(str::to_string);
            (tokens.next().expect("a name"), tokens.collect())
        })
        .collect()
}

#[test]
fn list_prints_one_name_and_its_files_per_row_in_table_order() {
    let rows = listed();
    let names: BTreeSet<&String> = rows.iter().map(|(name, _)| name).collect();
    assert_eq!(names.len(), rows.len(), "experiment names are unique");
    for (name, files) in &rows {
        assert!(!name.contains('.') && !files.is_empty(), "{name} {files:?}");
        for file in files {
            assert!(file.ends_with(".json"), "{file}");
        }
    }
    // The table follows the paper: Table 2 first, the scenario sweep last.
    let line = |(name, files): &(String, Vec<String>)| format!("{name} {}", files.join(" "));
    assert_eq!(line(&rows[0]), "table2_workloads table2_workloads.json");
    assert_eq!(
        line(rows.last().unwrap()),
        "bench_scenarios BENCH_scenarios.json"
    );
}

#[test]
fn every_golden_has_one_owner_and_every_result_a_golden() {
    let golden_of = |file: &str| format!("{}.quick.json", file.to_lowercase());
    let declared: Vec<String> = listed()
        .into_iter()
        .flat_map(|(_, files)| files)
        .map(|file| golden_of(file.trim_end_matches(".json")))
        .collect();
    let owned: BTreeSet<&String> = declared.iter().collect();
    assert_eq!(owned.len(), declared.len(), "a result has one owner");

    let goldens: BTreeSet<String> = std::fs::read_dir(GOLDEN_DIR)
        .expect("tests/golden exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".quick.json"))
        .collect();
    assert_eq!(owned, goldens.iter().collect());
}

#[test]
fn a_misspelt_experiment_exits_2_quoting_the_token_and_runs_nothing() {
    for args in [
        &["fig8_ocupancy"][..],
        &["headline_ratios", "fig8_ocupancy"],
    ] {
        let dir = scratch("typo");
        let output = figs(&dir, args);
        assert_eq!(output.status.code(), Some(2));
        let stderr = text(&output.stderr);
        assert!(stderr.contains("`fig8_ocupancy`"), "{stderr}");
        assert!(output.stdout.is_empty() && !dir.exists(), "nothing ran");
    }
}

#[test]
fn no_argument_exits_2_with_the_usage_line() {
    let dir = scratch("usage");
    let output = figs(&dir, &[]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = text(&output.stderr);
    assert!(
        stderr.contains("usage: figs <experiment>… | all | --list"),
        "{stderr}"
    );
    assert!(output.stdout.is_empty() && !dir.exists(), "nothing ran");
}

#[test]
fn named_experiments_write_exactly_their_declared_files() {
    let dir = scratch("run");
    let output = figs(&dir, &["headline_ratios", "table2_workloads"]);
    assert!(output.status.success(), "{}", text(&output.stderr));
    let stdout = text(&output.stdout);
    let (first, second) = (
        stdout.find("== headline_ratios"),
        stdout.find("== table2_workloads"),
    );
    assert!(
        first.is_some() && first < second,
        "argument order:\n{stdout}"
    );
    let mut written = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("results directory was created") {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let golden = format!("{GOLDEN_DIR}/{}.quick.json", file.trim_end_matches(".json"));
        assert_eq!(
            std::fs::read(dir.join(&file)).unwrap(),
            std::fs::read(&golden).unwrap(),
            "{file} is its golden, byte for byte"
        );
        written.push(file);
    }
    written.sort();
    assert_eq!(written, ["headline_ratios.json", "table2_workloads.json"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_result_that_cannot_be_written_exits_1_naming_the_path() {
    // The results "directory" is a regular file: nothing can land under it.
    let blocker = scratch("unwritable");
    std::fs::write(&blocker, b"in the way").unwrap();
    let output = figs(&blocker, &["headline_ratios"]);
    std::fs::remove_file(&blocker).unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = text(&output.stderr);
    assert!(stderr.contains(blocker.to_str().unwrap()), "{stderr}");
}
