//! Parsers for the product's own output lines. The harness counts
//! operations from what `repro` prints, never from what it was asked to
//! do, so a run that silently does less work cannot look faster.

/// Sum of `N` over stderr lines `[experiment-1] scanned N h2 sites in 1.9s`.
pub fn scanned_sites(stderr: &str) -> Option<u64> {
    let mut total = None;
    for line in stderr.lines() {
        let Some((_, rest)) = line.split_once("] scanned ") else {
            continue;
        };
        let n: u64 = rest
            .strip_suffix('s')?
            .split(" h2 sites in ")
            .next()?
            .parse()
            .ok()?;
        total = Some(total.unwrap_or(0) + n);
    }
    total
}

/// `(sites scanned, ok)` summed over the `Scan resilience` sections a
/// faulted campaign prints on stdout.
pub fn resilience(stdout: &str) -> Option<(u64, u64)> {
    let field = |label: &str| -> Option<u64> {
        let mut total = None;
        for line in stdout.lines() {
            if let Some(rest) = line.strip_prefix(label) {
                // "  ok   401" must not match "  ok-ish …": a label ends
                // where the padding starts.
                if rest.starts_with(' ') {
                    total = Some(total.unwrap_or(0) + rest.trim().parse::<u64>().ok()?);
                }
            }
        }
        total
    };
    Some((field("  sites scanned")?, field("  ok")?))
}

/// `N` from `serve: N queries answered (A ok, B not-found)`.
pub fn queries_answered(stdout: &str) -> Option<u64> {
    stdout.lines().find_map(|line| {
        line.strip_prefix("serve: ")?
            .split_once(" queries answered")?
            .0
            .parse()
            .ok()
    })
}

/// `(complete, stalled)` page loads summed over the per-policy rows of
/// the push study's first table (the `loads` and `stalled` columns).
pub fn push_loads(stdout: &str) -> Option<(u64, u64)> {
    let mut rows = stdout
        .lines()
        .skip_while(|line| !(line.contains("policy") && line.contains("stalled")))
        .skip(1)
        .take_while(|line| !line.trim().is_empty())
        .peekable();
    rows.peek()?;
    let (mut complete, mut stalled) = (0, 0);
    for row in rows {
        let mut cols = row.split_whitespace().skip(1);
        complete += cols.next()?.parse::<u64>().ok()?;
        stalled += cols.next()?.parse::<u64>().ok()?;
    }
    Some((complete, stalled))
}

/// Rewrites the `threads=N` token of the `repro:` header line, the one
/// place a campaign's stdout may differ between thread counts.
pub fn normalize_threads(stdout: &str) -> String {
    let Some((header, rest)) = stdout.split_once('\n') else {
        return stdout.to_string();
    };
    let header: Vec<&str> = header
        .split(' ')
        .map(|token| {
            if token.starts_with("threads=") {
                "threads=*"
            } else {
                token
            }
        })
        .collect();
    format!("{}\n{rest}", header.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fixture lines below are copied from real `repro` output.

    #[test]
    fn scanned_sites_sums_both_experiments() {
        let stderr = "[experiment-1] finalized record out/f.experiment-1.h2c\n\
                      [experiment-1] scanned 2615 h2 sites in 1.9s\n\
                      [experiment-2] scanned 4250 h2 sites in 2.9s\n";
        assert_eq!(scanned_sites(stderr), Some(6865));
        assert_eq!(
            scanned_sites("[serve] answered 150000 queries in 4.3s\n"),
            None
        );
        assert_eq!(
            scanned_sites("[experiment-1] scanned many h2 sites in 1s\n"),
            None
        );
    }

    #[test]
    fn resilience_sums_scanned_and_ok() {
        let stdout = "[experiment-1 faults=flaky seed=7]\nScan resilience\n\
            \x20 sites scanned      523\n  ok                 401\n  timeout            0\n\
            \x20 gave-up-after-retries 122\n  attempts           837 total, 187 sites retried\n\n\
            [experiment-2 faults=flaky seed=7]\nScan resilience\n\
            \x20 sites scanned      850\n  ok                 504\n  gave-up-after-retries 346\n";
        assert_eq!(resilience(stdout), Some((1373, 905)));
        assert_eq!(
            resilience("§V-B1 — Adoption (Jul. 2016; scale 0.01)\n"),
            None
        );
    }

    #[test]
    fn queries_answered_reads_the_serve_summary() {
        let stdout = "repro: command=serve records=2 workers=1 queries=150000 seed=3 cache=true hostile=false\n\n\
                      serve: 150000 queries answered (141110 ok, 8890 not-found)\n\
                      serve: cache hits 17965 misses 6; virtual latency p50 1103936ns p99 1110720ns\n\
                      serve: response digest 32e8e9c88c7cb282\n";
        assert_eq!(queries_answered(stdout), Some(150_000));
        assert_eq!(queries_answered("serve: response digest 32e8\n"), None);
    }

    #[test]
    fn push_loads_sums_the_policy_rows() {
        let stdout = "PUSH QOE STUDY  (96 sites x 6 links x 4 policies, 5 loads each)\n\n\
            \x20 policy                loads stalled   mean ms    p10 ms    p50 ms    p90 ms\n\
            \x20 push-none              2280     600    1710.1     315.5    1407.0    3622.8\n\
            \x20 push-all               2280     600    1673.5     313.2    1352.5    3521.8\n\
            \x20 push-critical-path     2280     600    1674.1     312.7    1354.9    3516.3\n\
            \x20 over-push              2280     600    4284.5     923.4    4623.0    8007.6\n\n\
            \x20 help/hurt vs push-none, by rtt\n\
            \x20 policy                          lan           metro             wan\n\
            \x20 push-all               +104/-16/=32     +129/-9/=14     +129/-9/=14\n";
        assert_eq!(push_loads(stdout), Some((9120, 2400)));
        assert_eq!(push_loads("no table here\n"), None);
    }

    #[test]
    fn thread_count_is_the_only_header_difference() {
        let one = "repro: command=adoption scale=0.05 threads=1\n\n§V-B1 — Adoption\n";
        let two = "repro: command=adoption scale=0.05 threads=2\n\n§V-B1 — Adoption\n";
        assert_ne!(one, two);
        assert_eq!(normalize_threads(one), normalize_threads(two));
        let other = "repro: command=adoption scale=0.01 threads=2\n\n§V-B1 — Adoption\n";
        assert_ne!(normalize_threads(one), normalize_threads(other));
    }
}
