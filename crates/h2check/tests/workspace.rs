//! Facts about the repository itself rather than about running code: the
//! two spec registries match what they name, every member crate inherits
//! `[workspace.lints]`, and every atomic is `Relaxed`.

use std::path::{Path, PathBuf};

use h2check::spec::{PROBE_RULES, QUIRK_RULES};
use h2server::ServerBehavior;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
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

/// Binds every field of `ServerBehavior` by name, with no `..`: adding or
/// removing a field is a compile error here until the list is updated,
/// and the list must then equal the `QUIRK_RULES` keys.
macro_rules! behavior_fields {
    ($($field:ident),* $(,)?) => {{
        let ServerBehavior { $($field: _),* } = ServerBehavior::rfc7540();
        vec![$(stringify!($field)),*]
    }};
}

#[test]
fn quirk_registry_is_exactly_the_server_behavior_fields() {
    let fields = behavior_fields!(
        server_name,
        tls,
        multiplexing,
        fc_on_headers,
        headers_gated_at_zero_window,
        mute,
        extra_response_headers,
        zero_window_update_stream,
        zero_window_update_conn,
        zero_window_debug,
        large_window_update_stream,
        large_window_update_conn,
        push,
        push_policy,
        priority_mode,
        self_dependency,
        hpack_index_responses,
        ping,
        announced,
        zero_window_then_update,
        zero_len_data_when_blocked,
        cookie_injection,
        processing_delay,
        h2c_upgrade,
        honor_peer_header_table_size,
        byzantine,
        rst_rate_limit,
        settings_rate_limit,
        continuation_cap,
        stall_timeout,
        header_list_limit,
        oversized_header_list,
    );
    let registered: Vec<&str> = QUIRK_RULES.iter().map(|(field, _)| *field).collect();
    assert_eq!(
        fields, registered,
        "QUIRK_RULES must name every ServerBehavior field, in order"
    );
}

/// `module::name` of every `pub fn` in one probe file whose signature
/// (up to its first `{`) mentions `Target`; test code is not scanned.
fn probes_in(module: &str, source: &str) -> Vec<String> {
    let lines: Vec<&str> = source
        .lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .collect();
    let mut probes = Vec::new();
    for (at, line) in lines.iter().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
            continue;
        };
        let signature = lines[at..].join("\n");
        let signature = signature.split('{').next().unwrap_or_default();
        if signature.contains("Target") {
            let name: String = rest
                .chars()
                .take_while(|c| *c == '_' || c.is_alphanumeric())
                .collect();
            probes.push(format!("{module}::{name}"));
        }
    }
    probes
}

#[test]
fn probe_registry_is_exactly_the_public_probes() {
    let mut found = Vec::new();
    for path in sorted_entries(&repo_root().join("crates/h2scope/src/probes")) {
        match path.file_stem().and_then(|s| s.to_str()) {
            Some("mod") | None => {}
            Some(module) => found.extend(probes_in(module, &read(&path))),
        }
    }
    let mut registered: Vec<&str> = PROBE_RULES.iter().map(|(probe, _)| *probe).collect();
    found.sort();
    registered.sort();
    assert_eq!(
        found, registered,
        "PROBE_RULES must name every public h2scope probe"
    );
}

/// `true` when a line of `manifest` inside `[table]` is `setting`
/// (`key=value`, compared with spaces removed). Not a TOML parser; it
/// reads the two spellings this check needs.
fn manifest_sets(manifest: &str, table: &str, setting: &str) -> bool {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != table)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .any(|line| line.replace(' ', "") == setting)
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
