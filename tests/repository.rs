//! Facts about the repository itself rather than about running code:
//! every member crate inherits `[workspace.lints]`, every declared
//! dependency is used, and every atomic is `Relaxed`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The entries of `dir`, sorted; empty when it cannot be read.
fn sorted_entries(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default();
    entries.sort();
    entries
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The trimmed lines of `manifest` inside `[table]`. Not a TOML parser;
/// it reads the spellings these checks need.
fn table_lines<'a>(manifest: &'a str, table: &'a str) -> impl Iterator<Item = &'a str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(move |line| *line != table)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
}

/// `true` when a line of `manifest` inside `[table]` is `setting`
/// (`key=value`, compared with spaces removed).
fn manifest_sets(manifest: &str, table: &str, setting: &str) -> bool {
    table_lines(manifest, table).any(|line| line.replace(' ', "") == setting)
}

/// A dependency nothing names is build time and lockfile churn that
/// reads as a real edge: every `[dependencies]` and `[dev-dependencies]`
/// entry of the root package and of each member must appear as an
/// identifier on a code line (not a `//` comment) of that package's
/// `src/`, `tests/` or `examples/`.
#[test]
fn every_declared_dependency_is_used() {
    let root = repo_root();
    let mut packages = vec![root.clone()];
    for group in ["crates", "compat"] {
        packages.extend(sorted_entries(&root.join(group)));
    }
    let mut unused = Vec::new();
    for package in &packages {
        let manifest = read(&package.join("Cargo.toml"));
        let mut files = Vec::new();
        for dir in ["src", "tests", "examples"] {
            rust_files(&package.join(dir), &mut files);
        }
        let sources: Vec<String> = files.iter().map(|f| read(f)).collect();
        let identifiers: BTreeSet<&str> = sources
            .iter()
            .flat_map(|source| source.lines())
            .filter(|line| !line.trim_start().starts_with("//"))
            .flat_map(|line| line.split(|c: char| c != '_' && !c.is_alphanumeric()))
            .collect();
        for table in ["[dependencies]", "[dev-dependencies]"] {
            let lines =
                table_lines(&manifest, table).filter(|l| !l.is_empty() && !l.starts_with('#'));
            // The crate name is the key before `.workspace`, `=` or a space.
            for name in lines.filter_map(|line| line.split(['.', '=', ' ']).next()) {
                if !identifiers.contains(name.replace('-', "_").as_str()) {
                    unused.push(format!("{} {table} {name}", package.display()));
                }
            }
        }
    }
    assert!(unused.is_empty(), "declared but never used: {unused:#?}");
}

/// Panic-freedom, `unsafe` and wall-clock time are enforced through
/// `[workspace.lints]`; a member that does not inherit the table silently
/// leaves that coverage.
#[test]
fn every_member_manifest_inherits_workspace_lints() {
    let root = repo_root();
    assert!(manifest_sets(
        &read(&root.join("Cargo.toml")),
        "[workspace.lints.rust]",
        "unsafe_code=\"forbid\""
    ));
    let members: Vec<PathBuf> = ["crates", "compat"]
        .iter()
        .flat_map(|group| sorted_entries(&root.join(group)))
        .collect();
    assert!(!members.is_empty());
    let strays: Vec<&PathBuf> = members
        .iter()
        .filter(|dir| !manifest_sets(&read(&dir.join("Cargo.toml")), "[lints]", "workspace=true"))
        .collect();
    assert!(
        strays.is_empty(),
        "members without `[lints] workspace = true`: {strays:?}"
    );
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in sorted_entries(dir) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every atomic in the workspace is a commutative counter folded after
/// the workers join, a lattice join (`fetch_min`/`fetch_max`), a claim
/// cursor or a monotonic latch; the thread join publishes everything, so
/// none needs an acquire/release edge. A stronger ordering is a new
/// cross-thread protocol and must come with its own argument.
#[test]
fn atomics_use_only_relaxed_ordering() {
    const STRONGER: [&str; 4] = ["SeqCst", "Acquire", "Release", "AcqRel"];
    let root = repo_root();
    let mut files = Vec::new();
    for group in ["crates", "compat"] {
        for member in sorted_entries(&root.join(group)) {
            rust_files(&member.join("src"), &mut files);
        }
    }
    rust_files(&root.join("src"), &mut files);
    assert!(!files.is_empty());
    let mut uses = Vec::new();
    for path in &files {
        for (number, line) in read(path).lines().enumerate() {
            let mut words = line.split(|c: char| c != '_' && !c.is_alphanumeric());
            if words.any(|word| STRONGER.contains(&word)) {
                uses.push(format!(
                    "{}:{}: {}",
                    path.display(),
                    number + 1,
                    line.trim()
                ));
            }
        }
    }
    assert!(
        uses.is_empty(),
        "only `Ordering::Relaxed` is sanctioned:\n{}",
        uses.join("\n")
    );
}
