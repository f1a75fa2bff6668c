//! Figure 3 (page load time with/without push) and Figure 6 (RTT by four
//! estimators).

use std::fmt::Write as _;

use h2scope::pageload;
use h2scope::probes::ping::{compare_rtt, median};
use webpop::Population;

use crate::stats::{cdf_points, mean};

/// Figure 3: page load time for every push-capable site, push enabled vs
/// disabled, `loads` loads each (the paper uses 30).
pub fn fig3(population: &Population, loads: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "FIGURE 3 — Page load time with server push enabled/disabled ({}; {loads} loads/site)",
        population.spec().label
    )
    .unwrap();
    writeln!(
        out,
        "  {:<34}{:>14}{:>14}{:>10}",
        "site", "push (ms)", "no push (ms)", "saving"
    )
    .unwrap();
    let mut sites = 0;
    let mut improved = 0;
    for sample in population.iter_headers_sites() {
        if !sample.profile.behavior.push {
            continue;
        }
        sites += 1;
        let (enabled, disabled) = pageload::compare(&sample.target(), loads);
        let push_mean = mean(&enabled);
        let nopush_mean = mean(&disabled);
        if push_mean < nopush_mean {
            improved += 1;
        }
        writeln!(
            out,
            "  {:<34}{:>14.1}{:>14.1}{:>9.1}%",
            sample.site.authority,
            push_mean,
            nopush_mean,
            (1.0 - push_mean / nopush_mean) * 100.0
        )
        .unwrap();
    }
    writeln!(
        out,
        "  push reduced mean load time on {improved}/{sites} sites (paper: \"in most cases\")"
    )
    .unwrap();
    out
}

/// Figure 6: RTT CDFs from the four estimators over up to `sites`
/// HEADERS-returning sites (the paper samples 10 sites per popular
/// server); the header names how many were sampled.
pub fn fig6(population: &Population, sites: usize, samples_per_site: usize) -> String {
    let mut h2_ping = Vec::new();
    let mut icmp = Vec::new();
    let mut tcp = Vec::new();
    let mut h1 = Vec::new();
    let mut sampled = 0;
    for (k, sample) in population.iter_headers_sites().take(sites).enumerate() {
        sampled += 1;
        let comparison = compare_rtt(&sample.target(), samples_per_site, 0xf16 ^ k as u64);
        h2_ping.extend(comparison.h2_ping);
        icmp.extend(comparison.icmp);
        tcp.extend(comparison.tcp);
        h1.extend(comparison.h1_request);
    }
    let ticks: Vec<f64> = (0..=8).map(|i| i as f64 * 50.0).collect();
    let mut out = String::new();
    writeln!(
        out,
        "FIGURE 6 — RTT measured by ICMP, TCP, HTTP/1.1 and HTTP/2 PING ({sampled} sites)",
    )
    .unwrap();
    for (label, samples) in [
        ("h2-ping", &h2_ping),
        ("icmp", &icmp),
        ("tcp-rtt", &tcp),
        ("h2-request (HTTP/1.1)", &h1),
    ] {
        write!(
            out,
            "  {label:<22} median {:>8.2} ms   cdf:",
            median(samples)
        )
        .unwrap();
        for (x, f) in cdf_points(samples, &ticks) {
            write!(out, " {x:.0}ms:{f:.2}").unwrap();
        }
        writeln!(out).unwrap();
    }
    let (m_ping, m_icmp, m_tcp, m_h1) =
        (median(&h2_ping), median(&icmp), median(&tcp), median(&h1));
    writeln!(
        out,
        "  shape check: |h2-icmp| = {:.2} ms, |h2-tcp| = {:.2} ms, h1 - h2 = {:.2} ms \
         (paper: h2-ping ≈ tcp ≈ icmp < http/1.1)",
        (m_ping - m_icmp).abs(),
        (m_ping - m_tcp).abs(),
        m_h1 - m_ping
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpop::ExperimentSpec;

    #[test]
    fn fig3_finds_push_sites_and_push_wins() {
        let population = Population::new(ExperimentSpec::second(), 0.1);
        let rendered = fig3(&population, 3);
        assert!(
            rendered.contains("push reduced mean load time"),
            "{rendered}"
        );
        // At 10% of experiment 2 there are ~2 push sites; at least one
        // must appear and improve.
        let improved_line = rendered.lines().last().expect("summary line");
        assert!(!improved_line.contains("0/0"), "{rendered}");
    }

    #[test]
    fn fig6_orders_estimators_like_the_paper() {
        let population = Population::new(ExperimentSpec::first(), 0.01);
        let rendered = fig6(&population, 8, 5);
        // The h1 - h2 gap must be positive (processing delay).
        let line = rendered
            .lines()
            .find(|l| l.contains("shape check"))
            .unwrap();
        let gap: f64 = line
            .split("h1 - h2 = ")
            .nth(1)
            .and_then(|s| s.split(" ms").next())
            .and_then(|s| s.trim().parse().ok())
            .expect("parse gap");
        assert!(gap > 0.0, "{rendered}");
    }

    #[test]
    fn fig6_names_the_sites_it_sampled_not_the_sites_it_asked_for() {
        let population = Population::new(ExperimentSpec::first(), 0.00003);
        let available = population.headers_count();
        assert!(available < 60, "{available} HEADERS-returning sites");
        let rendered = fig6(&population, 60, 2);
        let header = rendered.lines().next().expect("a header line");
        let sampled = format!("({available} sites)");
        assert!(header.ends_with(&sampled), "{header}");
    }
}
