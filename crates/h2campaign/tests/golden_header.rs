//! Schema-stability checks of the `h2campaign-v2` record format: the
//! schema name and the row layout. The full bytes of three finalized
//! records (header, rows and trailer) are pinned by the `rec-*` rows of
//! `golden/MANIFEST`.

use h2campaign::{CampaignRow, SCHEMA};
use webpop::{ExperimentSpec, Population};

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
