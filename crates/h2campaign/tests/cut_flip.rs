//! Every damaged copy of a finalized record is refused or reads back as
//! the original. The record is cut at every byte offset and each byte is
//! XORed with `0x01` and `0x80` in turn; `load_finalized` must return an
//! error or the very meta and rows that were written, and never panic.

use h2campaign::{finalize, load_finalized, CampaignMeta, CampaignRow};
use webpop::{ExperimentSpec, Population};

#[test]
fn every_cut_and_flip_is_refused_or_harmless() {
    let population = Population::new(ExperimentSpec::first(), 0.0005);
    let scope = h2scope::H2Scope::new();
    let rows: Vec<CampaignRow> = (0..8)
        .map(|i| {
            let site = population.site(i);
            CampaignRow {
                index: i,
                family: site.family,
                report: scope.survey(&site.target()),
            }
        })
        .collect();
    let mut meta = CampaignMeta::describe(&population, "flaky", 0xfa17);
    meta.sites = rows.len() as u64;

    let dir = std::env::temp_dir().join(format!("h2campaign-cut-flip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("record.h2c");
    finalize(&path, &meta, &rows).expect("finalize");
    let good = std::fs::read(&path).expect("read record");

    let cuts = (0..good.len()).map(|len| (format!("cut at {len}"), good[..len].to_vec()));
    let flips = (0..good.len()).flat_map(|at| {
        let good = &good;
        [0x01u8, 0x80].map(|bit| {
            let mut bytes = good.clone();
            bytes[at] ^= bit;
            (format!("byte {at} ^ {bit:#04x}"), bytes)
        })
    });
    for (what, bytes) in cuts.chain(flips) {
        std::fs::write(&path, &bytes).expect("write variant");
        if let Ok(stored) = load_finalized(&path) {
            assert_eq!(stored.meta, meta, "{what}: loaded with a different meta");
            assert_eq!(stored.rows, rows, "{what}: loaded with different rows");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
