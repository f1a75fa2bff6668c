//! Schema-stability check: the exact header bytes of the `h2campaign-v2`
//! record format, pinned against a committed fixture. If this test
//! fails, the on-disk format changed — which is only acceptable together
//! with a schema bump (`h2campaign-v3`) and a deliberate regeneration of
//! the fixture:
//!
//! ```text
//! H2CAMPAIGN_BLESS=1 cargo test -p h2campaign --test golden_header
//! ```

use h2campaign::{CampaignMeta, CampaignRow, SCHEMA};
use webpop::{ExperimentSpec, Population};

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_header.txt")
}

fn golden_headers() -> String {
    let mut out = String::new();
    for (spec, faults, seed) in [
        (ExperimentSpec::first(), "none", 0u64),
        (ExperimentSpec::first(), "flaky", 0xfa17),
        (ExperimentSpec::second(), "chaos", 7),
    ] {
        let population = Population::new(spec, 0.001);
        out.push_str(&CampaignMeta::describe(&population, faults, seed).header());
    }
    out
}

#[test]
fn header_bytes_are_pinned() {
    let got = golden_headers();
    if std::env::var_os("H2CAMPAIGN_BLESS").is_some() {
        std::fs::write(fixture_path(), &got).expect("write fixture");
    }
    let want = std::fs::read_to_string(fixture_path())
        .expect("golden_header.txt fixture missing — run with H2CAMPAIGN_BLESS=1 to create it");
    assert_eq!(
        got, want,
        "h2campaign record header changed; this is a format break — bump SCHEMA \
         and re-bless the fixture only if the break is intentional"
    );
}

#[test]
fn schema_version_is_pinned() {
    assert_eq!(SCHEMA, "h2campaign-v2");
}

#[test]
fn row_layout_is_pinned() {
    // The row prefix (`r|i=<index>|f=<family code>|`) and the embedded
    // report line's leading field are part of the v2 schema.
    let population = Population::new(ExperimentSpec::first(), 0.001);
    let site = population.site(3);
    let row = CampaignRow {
        index: 3,
        family: site.family,
        report: h2scope::H2Scope::new().survey(&site.target()),
    };
    let line = row.encode();
    let prefix = format!("r|i=3|f={}|site=site-3.top1m|", site.family.code());
    assert!(
        line.starts_with(&prefix),
        "row line {line:?} lost its v2 prefix {prefix:?}"
    );
    assert_eq!(CampaignRow::decode(&line).expect("round-trip"), row);
}
