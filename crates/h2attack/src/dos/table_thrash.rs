//! HPACK dynamic-table memory pressure (§VI, fifth concern): "attackers
//! might exploit this feature to launch DoS attacks, such as setting
//! SETTINGS_HEADER_TABLE_SIZE ... to a large value, and then using
//! randomly-generated headers to fill up the table."

use h2scope::{ProbeConn, Target};
use h2server::{ServerProfile, SiteSpec};
use h2wire::{SettingId, Settings};

/// Result of one table-thrash engagement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableThrashReport {
    /// The table ceiling the attacker announced.
    pub announced_table_size: u32,
    /// Octets the victim's response encoder table holds afterwards.
    pub encoder_table_octets: u64,
    /// Requests the attacker issued.
    pub requests: u32,
}

/// Announces a huge `SETTINGS_HEADER_TABLE_SIZE` and issues requests whose
/// responses carry ever-changing `set-cookie` values — each one another
/// incremental-indexing insertion into the victim's encoder table.
pub fn attack(target: &Target, table_size: u32, requests: u32) -> TableThrashReport {
    let settings = Settings::new().with(SettingId::HeaderTableSize, table_size);
    let mut conn = ProbeConn::establish(target, settings, 0x7ab1e);
    conn.exchange();
    for k in 0..requests {
        conn.fetch(1 + 2 * k, "/");
    }
    TableThrashReport {
        announced_table_size: table_size,
        encoder_table_octets: conn.server().encoder_table_octets(),
        requests,
    }
}

/// A victim profile that honors any peer table size (the vulnerable
/// configuration) and varies its response headers per request.
pub fn vulnerable_victim() -> Target {
    let mut profile = ServerProfile::rfc7540();
    profile.behavior.honor_peer_header_table_size = true;
    profile.behavior.cookie_injection = true; // fresh set-cookie per response
    Target::testbed(profile, SiteSpec::benchmark())
}

/// A victim that caps its encoder table at the protocol default
/// regardless of what the peer announces — the mitigation.
pub fn capped_victim() -> Target {
    let mut profile = ServerProfile::rfc7540();
    profile.behavior.honor_peer_header_table_size = false;
    profile.behavior.cookie_injection = true;
    Target::testbed(profile, SiteSpec::benchmark())
}

#[cfg(test)]
mod tests {
    use super::*;

    const HUGE: u32 = 64 * 1024 * 1024; // the attacker asks for 64 MiB

    #[test]
    fn obedient_victim_grows_without_bound() {
        let report = attack(&vulnerable_victim(), HUGE, 200);
        // Each response inserts a fresh ~50-octet cookie entry; nothing is
        // ever evicted because the ceiling is astronomically high.
        assert!(
            report.encoder_table_octets > 10_000,
            "table should balloon: {report:?}"
        );
    }

    #[test]
    fn capped_victim_stays_within_the_default() {
        let report = attack(&capped_victim(), HUGE, 200);
        assert!(
            report.encoder_table_octets <= 4_096,
            "mitigated table must respect the 4 KiB default: {report:?}"
        );
    }

    #[test]
    fn growth_scales_with_request_count_on_vulnerable_victims() {
        let small = attack(&vulnerable_victim(), HUGE, 20);
        let large = attack(&vulnerable_victim(), HUGE, 200);
        assert!(
            large.encoder_table_octets > 5 * small.encoder_table_octets,
            "{small:?} vs {large:?}"
        );
    }

    #[test]
    fn non_indexing_servers_are_immune() {
        // Nginx never inserts response headers into the table at all.
        let mut profile = ServerProfile::nginx();
        profile.behavior.honor_peer_header_table_size = true;
        profile.behavior.cookie_injection = true;
        let target = Target::testbed(profile, SiteSpec::benchmark());
        let report = attack(&target, HUGE, 100);
        assert_eq!(report.encoder_table_octets, 0);
    }
}
