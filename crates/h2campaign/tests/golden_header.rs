//! Schema-stability checks of the `h2campaign-v3` record format: the
//! schema name, the row layout and the refusal of the previous version.
//! The full bytes of three finalized records (header, rows and trailer)
//! are pinned by the `rec-*` rows of `golden/MANIFEST`.

use h2campaign::{finalize, load_finalized, CampaignMeta, CampaignRow, SCHEMA};
use webpop::{ExperimentSpec, Population};

#[test]
fn schema_version_is_pinned() {
    assert_eq!(SCHEMA, "h2campaign-v3");
}

#[test]
fn row_layout_is_pinned() {
    // The row prefix (`r|i=<index>|f=<family code>|`) and the embedded
    // report line's leading field are part of the v3 schema.
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
        "row line {line:?} lost its v3 prefix {prefix:?}"
    );
    assert_eq!(CampaignRow::decode(&line).expect("round-trip"), row);
}

/// A record in the previous format (`h2campaign-v2`, whose rows also
/// stored derivable values) is refused as unreadable, exit 2: there is
/// no v2 reader.
#[test]
fn a_v2_record_is_refused_with_exit_2() {
    let population = Population::new(ExperimentSpec::first(), 0.0002);
    let rows: Vec<CampaignRow> = (0..population.h2_count().min(2))
        .map(|i| {
            let site = population.site(i);
            CampaignRow {
                index: i,
                family: site.family,
                report: h2scope::H2Scope::new().survey(&site.target()),
            }
        })
        .collect();
    let mut meta = CampaignMeta::describe(&population, "none", 0);
    meta.sites = rows.len() as u64;
    let dir = std::env::temp_dir().join(format!("h2campaign-v2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("v2.h2c");
    finalize(&path, &meta, &rows).expect("finalize");
    let current = std::fs::read_to_string(&path).expect("read");
    let v2 = current.replacen(SCHEMA, "h2campaign-v2", 1);
    assert_ne!(current, v2, "the schema line is the first line");
    std::fs::write(&path, v2).expect("write");
    let err = load_finalized(&path).expect_err("a v2 record must not load");
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("bad schema line"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
