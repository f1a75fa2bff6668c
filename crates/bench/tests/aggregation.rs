//! Integration tests for the table/figure generators: run a miniature
//! campaign and check the rendered aggregates carry the paper's shapes.

use h2ready_bench::{scan, wild};
use webpop::{ExperimentSpec, Population};

fn mini_campaign() -> (Population, Vec<h2campaign::CampaignRow>) {
    let population = Population::new(ExperimentSpec::first(), 0.003);
    let records = scan::Campaign::new(&population, 4).scan();
    (population, records)
}

#[test]
fn adoption_table_counts_the_funnel() {
    let (population, records) = mini_campaign();
    let rendered = wild::adoption(&records, &population);
    assert!(rendered.contains("NPN h2 sites"), "{rendered}");
    assert!(rendered.contains("HEADERS-returning sites"), "{rendered}");
    // The measured HEADERS count equals the population's generated quota.
    let headers = scan::headers_records(&records).len() as u64;
    assert_eq!(headers, population.headers_count());
}

#[test]
fn table4_ranks_litespeed_and_nginx_first() {
    let (population, records) = mini_campaign();
    let rendered = wild::table4(&records, &population);
    let litespeed_line = rendered.lines().find(|l| l.contains("Litespeed")).unwrap();
    let nginx_line = rendered
        .lines()
        .find(|l| l.trim_start().starts_with("Nginx"))
        .unwrap();
    let count = |line: &str| -> u64 {
        line.split_whitespace()
            .nth(1)
            .and_then(|v| v.replace(',', "").parse().ok())
            .unwrap_or(0)
    };
    // Experiment 1 ordering: Litespeed > Nginx > everything else.
    assert!(count(litespeed_line) > count(nginx_line), "{rendered}");
    assert!(count(nginx_line) > 10, "{rendered}");
}

#[test]
fn settings_tables_render_every_published_row() {
    let (population, records) = mini_campaign();
    let t5 = wild::table5(&records, &population);
    for value in ["NULL", "65,536", "1,048,576", "2,147,483,647"] {
        assert!(t5.contains(value), "Table V misses {value}: {t5}");
    }
    let t6 = wild::table6(&records, &population);
    assert!(t6.contains("16,777,215"), "{t6}");
    let t7 = wild::table7(&records, &population);
    assert!(t7.contains("unlimited"), "{t7}");
}

#[test]
fn fig2_reports_majority_at_or_above_100() {
    let (population, records) = mini_campaign();
    let rendered = wild::fig2(&records, &population);
    assert!(rendered.contains("majority >= 100: true"), "{rendered}");
}

#[test]
fn flow_control_summary_tracks_population_quotas() {
    let (population, records) = mini_campaign();
    let rendered = wild::flow_control(&records, &population);
    // The RST measured count appears and is within 25% of the scaled
    // paper count (sampling noise at 0.3% scale).
    assert!(rendered.contains("[V-D3]"), "{rendered}");
    let line = rendered
        .lines()
        .find(|l| l.trim_start().starts_with("RST_STREAM"))
        .unwrap();
    let measured: f64 = line
        .split_whitespace()
        .nth(2)
        .and_then(|v| v.replace(',', "").parse().ok())
        .unwrap();
    let expect = 23_673.0 * population.scale();
    assert!(
        (measured - expect).abs() / expect < 0.25,
        "measured {measured} vs scaled paper {expect}"
    );
}

#[test]
fn hpack_figure_separates_the_families() {
    let (population, records) = mini_campaign();
    let rendered = wild::hpack_figure(&records, &population);
    let gse = rendered
        .lines()
        .find(|l| l.trim_start().starts_with("GSE"))
        .unwrap();
    assert!(gse.contains("P(r<0.3)=1.00"), "{rendered}");
    let nginx = rendered
        .lines()
        .find(|l| l.trim_start().starts_with("nginx"))
        .unwrap();
    assert!(
        nginx.contains("median=1.000"),
        "nginx sits at ratio 1: {rendered}"
    );
}
