//! Every cheap deterministic `repro` output, pinned byte for byte.
//!
//! `golden/MANIFEST` at the repository root lists one row per line: a
//! name, then a `repro` argv. The rows run in order in one scratch
//! directory, so `diff` and `serve` read the records the `adoption` rows
//! wrote. Every row must exit 0 and its stdout must equal
//! `golden/<name>.stdout`; stderr carries wall-clock times and is not
//! compared. After the last row, the files left in the directory must be
//! exactly the other files in `golden/`, byte for byte.
//!
//! No pinned stdout or artifact may hold a whole-word `NaN`, `inf` or
//! `-inf`: such a number was computed over nothing, and pinning it would
//! bless it.
//!
//! On a mismatch the test leaves every actual output in the scratch
//! directory, names the first row that differs and prints the one `cp`
//! command that re-blesses. A re-bless gives its reason in CHANGES.md.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const STDOUT: &str = ".stdout";

struct Row {
    name: String,
    argv: Vec<String>,
}

/// The manifest's rows: blank lines and `#` comments skipped.
fn manifest(golden: &Path) -> Vec<Row> {
    let text = fs::read_to_string(golden.join("MANIFEST")).expect("read golden/MANIFEST");
    let rows: Vec<Row> = text
        .lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut words = line.split_whitespace().map(str::to_owned);
            let name = words.next().expect("a row starts with its name");
            Row {
                name,
                argv: words.collect(),
            }
        })
        .collect();
    for (i, row) in rows.iter().enumerate() {
        assert!(
            rows[..i].iter().all(|earlier| earlier.name != row.name),
            "golden/MANIFEST names `{}` twice",
            row.name
        );
    }
    rows
}

/// Every file in `dir` by name, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("list directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), fs::read(&path).expect("read file"))
        })
        .collect()
}

/// Does `bytes` hold a whole-word `NaN`, `inf` or `-inf` (as `grep -w`
/// reads words: letters, digits and `_`)?
fn non_finite(bytes: &[u8]) -> bool {
    String::from_utf8_lossy(bytes)
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|word| word == "NaN" || word == "inf")
}

#[test]
fn every_manifest_row_reproduces_its_golden_bytes() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../golden")
        .canonicalize()
        .expect("golden/ exists");
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    if work.exists() {
        fs::remove_dir_all(&work).expect("clear the scratch directory");
    }
    fs::create_dir_all(&work).expect("create the scratch directory");

    let rows = manifest(&golden);
    // The row that last created or changed each file, so that a file
    // mismatch names its row.
    let mut writer: BTreeMap<String, usize> = BTreeMap::new();
    let mut before = BTreeMap::new();
    let mut stdouts = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&row.argv)
            .current_dir(&work)
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "row `{}` (repro {}) exited with {}:\n{}",
            row.name,
            row.argv.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let after = files(&work);
        for (file, bytes) in &after {
            if before.get(file) != Some(bytes) {
                writer.insert(file.clone(), i);
            }
        }
        before = after;
        stdouts.push(out.stdout);
    }
    for (row, stdout) in rows.iter().zip(&stdouts) {
        fs::write(work.join(format!("{}{STDOUT}", row.name)), stdout).expect("write stdout");
    }

    let actual = files(&work);
    let mut expected = files(&golden);
    expected.remove("MANIFEST");
    for (file, bytes) in &expected {
        assert!(!non_finite(bytes), "golden/{file} pins a non-finite number");
    }
    // (row index, what differs); a golden no row writes sorts last.
    let mut mismatches: Vec<(usize, String)> = Vec::new();
    let names: BTreeSet<&String> = actual.keys().chain(expected.keys()).collect();
    for file in names {
        let (got, want) = (actual.get(file), expected.get(file));
        if got == want {
            continue;
        }
        let row = file.strip_suffix(STDOUT).map_or_else(
            || writer.get(file).copied(),
            |name| rows.iter().position(|row| row.name == name),
        );
        let what = match (got, want) {
            (Some(_), Some(_)) => "differs from its golden",
            (Some(_), None) => "has no golden",
            (None, _) => "is no longer written",
        };
        mismatches.push((row.unwrap_or(usize::MAX), format!("{file}: {what}")));
    }
    if mismatches.is_empty() {
        return;
    }
    mismatches.sort();
    let list: Vec<&str> = mismatches.iter().map(|(_, m)| m.as_str()).collect();
    let first = match rows.get(mismatches[0].0) {
        Some(row) => format!("row `{}` (repro {})", row.name, row.argv.join(" ")),
        None => "no row".to_owned(),
    };
    panic!(
        "golden outputs drifted, first at {first}:\n  {}\n\
         Inspect:   diff -r {g} {w}\n\
         Re-bless:  cp {w}/* {g}/\n\
         (delete a golden no row writes any more; give the reason in CHANGES.md)",
        list.join("\n  "),
        g = golden.display(),
        w = work.display(),
    );
}
