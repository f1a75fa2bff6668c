//! Internet scan: run a miniature version of the paper's top-1M campaign
//! against the synthetic population and print the adoption funnel plus a
//! Table IV-style server ranking.
//!
//! ```sh
//! cargo run --release --example internet_scan            # 0.5% of 1M
//! cargo run --release --example internet_scan -- 0.05    # 5%
//! ```

use std::collections::BTreeMap;

use h2ready::scope::H2Scope;
use h2ready::webpop::{ExperimentSpec, Population};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.005);
    let scope = H2Scope::new();

    for spec in ExperimentSpec::both() {
        let population = Population::new(spec, scale);
        let spec = population.spec();
        println!(
            "=== {} ({}) — scanning {} h2 sites of {} total (scale {scale}) ===",
            spec.name,
            spec.label,
            population.h2_count(),
            population.total_sites(),
        );

        let mut npn = 0u64;
        let mut alpn = 0u64;
        let mut headers = 0u64;
        let mut by_server: BTreeMap<String, u64> = BTreeMap::new();
        for site in population.iter_h2_sites() {
            let report = scope.survey(&site.target());
            if report.negotiation.npn_h2 {
                npn += 1;
            }
            if report.negotiation.alpn_h2 {
                alpn += 1;
            }
            if report.headers_received {
                headers += 1;
                let name = report
                    .server_name
                    .unwrap_or_else(|| "(no server header)".to_string());
                *by_server.entry(name).or_default() += 1;
            }
        }

        println!(
            "  NPN h2     : {npn:>7}  (paper {:>7} at full scale)",
            spec.npn_sites
        );
        println!(
            "  ALPN h2    : {alpn:>7}  (paper {:>7} at full scale)",
            spec.alpn_sites
        );
        println!(
            "  HEADERS    : {headers:>7}  (paper {:>7} at full scale)",
            spec.headers_sites
        );

        let mut ranking: Vec<(String, u64)> = by_server.into_iter().collect();
        ranking.sort_by_key(|r| std::cmp::Reverse(r.1));
        println!("  top servers:");
        for (name, count) in ranking.into_iter().take(8) {
            println!("    {count:>6}  {name}");
        }
        println!();
    }
}
