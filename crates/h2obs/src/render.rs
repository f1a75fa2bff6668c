//! Human-readable table and JSON rendering of a [`CampaignSnapshot`]; the
//! JSON layout is [`crate::json`]'s.

use std::fmt::Write as _;

use crate::json::{self, Object};
use crate::metrics::{HistogramSnapshot, FRAME_KINDS, FRAME_KIND_NAMES};
use crate::obs::CampaignSnapshot;

/// Marker line printed immediately before the metrics table so scripts
/// (and the CI no-op diff job) can strip everything from here down.
pub const TABLE_MARKER: &str = "=== h2obs campaign metrics ===";

/// Formats virtual nanoseconds with a human unit suffix.
fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!(
            "{}.{:03}s",
            n / 1_000_000_000,
            (n % 1_000_000_000) / 1_000_000
        )
    } else if n >= 1_000_000 {
        format!("{}.{:03}ms", n / 1_000_000, (n % 1_000_000) / 1_000)
    } else if n >= 1_000 {
        format!("{}.{:03}us", n / 1_000, n % 1_000)
    } else {
        format!("{n}ns")
    }
}

fn hist_row(label: &str, h: &HistogramSnapshot) -> String {
    if h.is_empty() {
        return format!("  {label:<14} (no samples)\n");
    }
    format!(
        "  {label:<14} n={:<7} mean={:<10} p50={:<10} p90={:<10} p99={:<10} max={}\n",
        h.count,
        fmt_nanos(h.mean()),
        fmt_nanos(h.percentile(50)),
        fmt_nanos(h.percentile(90)),
        fmt_nanos(h.percentile(99)),
        fmt_nanos(h.max),
    )
}

/// Renders the per-campaign metrics table shown by `repro --metrics`.
pub fn render_table(snap: &CampaignSnapshot) -> String {
    let mut out = String::new();
    out.push_str(TABLE_MARKER);
    out.push('\n');
    let _ = writeln!(out, "sites surveyed        {}", snap.sites_finished);
    if snap.sites_resumed > 0 {
        let _ = writeln!(
            out,
            "sites resumed         {} (preloaded from the campaign record)",
            snap.sites_resumed
        );
    }
    let _ = writeln!(out, "connections opened    {}", snap.conns_opened);
    let _ = writeln!(
        out,
        "wire bytes            {} to-server / {} to-client ({} in header blocks)",
        snap.bytes_to_server, snap.bytes_to_client, snap.header_block_octets
    );
    let _ = writeln!(out, "hpack evictions       {}", snap.hpack_evictions);
    let _ = writeln!(
        out,
        "retries               {} (timeouts {}, resets {}, malformed {})",
        snap.retries, snap.timeouts, snap.resets, snap.malformed
    );
    if !snap.backoff_nanos.is_empty() {
        let _ = writeln!(
            out,
            "backoff waited        {} total across {} pauses",
            fmt_nanos(snap.backoff_nanos.sum),
            snap.backoff_nanos.count
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>14}",
        "frames by kind", "client-sent", "client-recv", "server-handled"
    );
    for (i, name) in FRAME_KIND_NAMES.iter().enumerate() {
        let (s, r, h) = (
            snap.client_sent[i],
            snap.client_received[i],
            snap.server_handled[i],
        );
        if s == 0 && r == 0 && h == 0 {
            continue;
        }
        let _ = writeln!(out, "  {name:<14} {s:>12} {r:>12} {h:>14}");
    }
    out.push('\n');
    out.push_str("probe latency (virtual time per connection)\n");
    for (probe, h) in &snap.probe_latency {
        if h.is_empty() {
            continue;
        }
        out.push_str(&hist_row(probe.name(), h));
    }
    out.push_str("site latency (virtual time per site)\n");
    out.push_str(&hist_row("all sites", &snap.site_latency));
    // The serve block is elided entirely on pure-scan campaigns, keeping
    // pre-serve table output byte-stable (same pattern as sites-resumed).
    if snap.lookups > 0 {
        let _ = writeln!(
            out,
            "serve lookups         {} (cache hits {}, misses {}; {} body bytes)",
            snap.lookups, snap.cache_hits, snap.cache_misses, snap.bytes_served
        );
        out.push_str("query latency (virtual time per query)\n");
        out.push_str(&hist_row("all queries", &snap.query_latency));
    }
    if !snap.traces.is_empty() {
        let events: usize = snap.traces.iter().map(|t| t.events.len()).sum();
        let _ = writeln!(
            out,
            "traced sites          {} ({} events; see OBS_campaign.json)",
            snap.traces.len(),
            events
        );
    }
    out
}

fn json_hist(o: &mut Object<'_>, h: &HistogramSnapshot) {
    o.num("count", h.count);
    if !h.is_empty() {
        o.num("sum", h.sum)
            .num("min", h.min)
            .num("max", h.max)
            .num("mean", h.mean())
            .num("p50", h.percentile(50))
            .num("p90", h.percentile(90))
            .num("p99", h.percentile(99));
    }
}

fn json_frames(o: &mut Object<'_>, counts: &[u64; FRAME_KINDS]) {
    for (name, &n) in FRAME_KIND_NAMES.iter().zip(counts) {
        if n > 0 {
            o.num(name, n);
        }
    }
}

/// Renders the `OBS_campaign.json` document. Key order is fixed and all
/// inputs are order-independent aggregates (traces pre-sorted by site),
/// so the output is byte-identical at any worker thread count.
pub fn render_json(snap: &CampaignSnapshot) -> String {
    json::document(|doc| {
        doc.str("schema", "h2obs-campaign-v2")
            .num("sites_finished", snap.sites_finished)
            .num("sites_resumed", snap.sites_resumed)
            .num("conns_opened", snap.conns_opened)
            .object("wire_bytes", |o| {
                o.num("to_server", snap.bytes_to_server)
                    .num("to_client", snap.bytes_to_client)
                    .num("header_blocks_to_client", snap.header_block_octets);
            })
            .num("hpack_evictions", snap.hpack_evictions)
            .object("failures", |o| {
                o.num("timeouts", snap.timeouts)
                    .num("resets", snap.resets)
                    .num("malformed", snap.malformed);
            })
            .object("retries", |o| {
                o.num("total", snap.retries)
                    .object("backoff_nanos", |h| json_hist(h, &snap.backoff_nanos));
            })
            .object("frames", |o| {
                o.object("client_sent", |f| json_frames(f, &snap.client_sent))
                    .object("client_received", |f| json_frames(f, &snap.client_received))
                    .object("server_handled", |f| json_frames(f, &snap.server_handled));
            })
            .object("probe_latency_nanos", |o| {
                for (probe, h) in &snap.probe_latency {
                    if !h.is_empty() {
                        o.object(probe.name(), |o| json_hist(o, h));
                    }
                }
            })
            .object("site_latency_nanos", |h| json_hist(h, &snap.site_latency));
        // Elided on pure-scan campaigns so pre-serve JSON stays byte-stable.
        if snap.lookups > 0 {
            doc.object("serve", |o| {
                o.num("lookups", snap.lookups)
                    .num("cache_hits", snap.cache_hits)
                    .num("cache_misses", snap.cache_misses)
                    .num("bytes_served", snap.bytes_served)
                    .object("query_latency_nanos", |h| json_hist(h, &snap.query_latency));
            });
        }
        doc.lines("traces", |traces| {
            for t in &snap.traces {
                traces.object(|o| {
                    o.num("site", t.site)
                        .num("dropped", t.dropped)
                        .array("events", |events| {
                            for e in &t.events {
                                events.object(|o| {
                                    o.num("at", e.at_nanos).str("ev", e.kind.tag());
                                    let detail = e.kind.detail();
                                    if !detail.is_empty() {
                                        o.str("detail", detail);
                                    }
                                });
                            }
                        });
                });
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{Obs, ProbeKind};

    fn sample_snapshot() -> CampaignSnapshot {
        let obs = Obs::campaign(2);
        let site = obs.for_site(0);
        site.enter_probe(ProbeKind::Headers);
        site.frame_sent(0x4, 10);
        site.frame_received(0x1, 20);
        site.server_frame(0x4);
        site.wire_bytes(true, 100);
        site.wire_bytes(false, 250);
        site.conn_opened();
        site.conn_finished(5_000);
        site.retry(1, 2_000_000, 30);
        site.timeout(40);
        site.finish_site();
        obs.snapshot().expect("on")
    }

    #[test]
    fn table_contains_marker_and_counts() {
        let table = render_table(&sample_snapshot());
        assert!(table.starts_with(TABLE_MARKER));
        assert!(table.contains("SETTINGS"));
        assert!(table.contains("headers"));
        assert!(table.contains("retries               1"));
    }

    #[test]
    fn json_is_well_formed_and_stable() {
        let snap = sample_snapshot();
        let a = render_json(&snap);
        let b = render_json(&snap);
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"h2obs-campaign-v2\""));
        assert!(a.contains("\"sites_resumed\": 0"));
        assert!(a.contains("\"client_sent\":{\"SETTINGS\":1}"));
        assert!(a.contains("\"ev\":\"retry\""));
        // Balanced braces as a cheap well-formedness proxy.
        let opens = a.matches('{').count();
        let closes = a.matches('}').count();
        assert_eq!(opens, closes);
        let sq_open = a.matches('[').count();
        let sq_close = a.matches(']').count();
        assert_eq!(sq_open, sq_close);
    }

    #[test]
    fn resumed_sites_render_in_table_and_json() {
        let obs = Obs::campaign(0);
        let site = obs.for_site(0);
        site.conn_opened();
        site.finish_site();
        obs.sites_resumed(41);
        let snap = obs.snapshot().expect("on");
        assert_eq!(snap.sites_resumed, 41);
        let table = render_table(&snap);
        assert!(table.contains("sites resumed         41"));
        assert!(render_json(&snap).contains("\"sites_resumed\": 41,"));
        // The resumed line is elided entirely on non-resumed campaigns,
        // keeping pre-resume table output byte-stable.
        let fresh = Obs::campaign(0);
        fresh.for_site(0).finish_site();
        let fresh_table = render_table(&fresh.snapshot().expect("on"));
        assert!(!fresh_table.contains("sites resumed"));
    }

    #[test]
    fn serve_metrics_render_gated_and_sum_across_workers() {
        // A pure-scan snapshot shows no serve block at all.
        let scan_only = sample_snapshot();
        assert_eq!(scan_only.lookups, 0);
        assert!(!render_table(&scan_only).contains("serve lookups"));
        assert!(!render_json(&scan_only).contains("\"serve\""));

        // Queries recorded through different worker handles sum in the one
        // campaign registry.
        let obs = Obs::campaign(0);
        let worker_a = obs.worker_shard();
        let worker_b = obs.worker_shard();
        worker_a.query_served(true, 100, 5_000);
        worker_a.query_served(false, 900, 9_000);
        worker_b.query_served(true, 50, 1_000);
        let snap = obs.snapshot().expect("on");
        assert_eq!(snap.lookups, 3);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.bytes_served, 1050);
        assert_eq!(snap.query_latency.count, 3);
        assert_eq!(snap.query_latency.sum, 15_000);
        let table = render_table(&snap);
        assert!(table.contains("serve lookups         3 (cache hits 2, misses 1; 1050 body bytes)"));
        assert!(table.contains("all queries"));
        // The whole document: the serve member with its latency tail, and
        // the empty-traces form no golden row pins.
        assert_eq!(
            render_json(&snap),
            r#"{
  "schema": "h2obs-campaign-v2",
  "sites_finished": 0,
  "sites_resumed": 0,
  "conns_opened": 0,
  "wire_bytes": {"to_server":0,"to_client":0,"header_blocks_to_client":0},
  "hpack_evictions": 0,
  "failures": {"timeouts":0,"resets":0,"malformed":0},
  "retries": {"total":0,"backoff_nanos":{"count":0}},
  "frames": {"client_sent":{},"client_received":{},"server_handled":{}},
  "probe_latency_nanos": {},
  "site_latency_nanos": {"count":0},
  "serve": {"lookups":3,"cache_hits":2,"cache_misses":1,"bytes_served":1050,"query_latency_nanos":{"count":3,"sum":15000,"min":1000,"max":9000,"mean":5000,"p50":8191,"p90":9000,"p99":9000}},
  "traces": [
  ]
}
"#
        );
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(17), "17ns");
        assert_eq!(fmt_nanos(1_500), "1.500us");
        assert_eq!(fmt_nanos(2_000_000), "2.000ms");
        assert_eq!(fmt_nanos(3_250_000_000), "3.250s");
    }
}
