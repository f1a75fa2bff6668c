//! `h2scope` — the measurement tool as a command-line binary, mirroring
//! the tool the paper released.
//!
//! ```text
//! h2scope characterize --server <name>     full probe suite (a Table III column)
//! h2scope probe <probe> --server <name>    one probe: negotiation | settings |
//!                                          multiplex | flowcontrol | priority |
//!                                          push | hpack | ping | h2c
//! h2scope survey --exp 1|2 --scale S [--limit N]
//!                                          scan the synthetic population
//! h2scope rtt --server <name> --delay MS   the Figure 6 estimator comparison
//! h2scope list-servers                     available server profiles
//! ```

use h2ready::netsim::LinkSpec;
use h2ready::scope::pageload;
use h2ready::scope::probes::{
    flow_control, hpack, multiplexing, negotiation, ping, priority, push, settings,
};
use h2ready::scope::testbed::Testbed;
use h2ready::scope::{storage, trace, H2Scope, ProbeConn, Target};
use h2ready::server::{ServerProfile, SiteSpec};
use h2ready::webpop;

fn server_names() -> Vec<&'static str> {
    ServerProfile::all().iter().map(|&(name, _)| name).collect()
}

struct Args {
    positional: Vec<String>,
    server: String,
    exp: u8,
    scale: f64,
    limit: usize,
    delay_ms: u64,
    samples: usize,
    save: Option<String>,
    path: String,
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// The next argument, parsed as a flag's value; a missing or unparsable
/// one is a usage error saying what the flag `needs`.
fn value<T: std::str::FromStr>(iter: &mut impl Iterator<Item = String>, needs: &str) -> T {
    iter.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(needs))
}

fn parse() -> Args {
    let mut args = Args {
        positional: Vec::new(),
        server: "rfc7540".into(),
        exp: 1,
        scale: 0.001,
        limit: 10,
        delay_ms: 25,
        samples: 10,
        save: None,
        path: "/".into(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--server" => args.server = iter.next().unwrap_or_default(),
            "--exp" => {
                const NEEDS: &str = "--exp needs 1 or 2";
                args.exp = value(&mut iter, NEEDS);
                if !matches!(args.exp, 1 | 2) {
                    usage_error(NEEDS);
                }
            }
            "--scale" => {
                const NEEDS: &str = "--scale needs a number in (0, 1]";
                args.scale = value(&mut iter, NEEDS);
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    usage_error(NEEDS);
                }
            }
            "--limit" => args.limit = value(&mut iter, "--limit needs a site count"),
            "--delay" => args.delay_ms = value(&mut iter, "--delay needs milliseconds"),
            "--samples" => args.samples = value(&mut iter, "--samples needs a sample count"),
            "--save" => args.save = iter.next(),
            "--path" => args.path = iter.next().unwrap_or_else(|| "/".into()),
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other if !other.starts_with('-') => args.positional.push(other.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn print_usage() {
    println!(
        "h2scope — HTTP/2 feature probing (reproduction of the ICDCS'17 tool)\n\n\
         USAGE:\n  h2scope characterize --server <name>\n  h2scope probe <probe> --server <name>\n  \
         h2scope survey [--exp 1|2] [--scale S] [--limit N]\n  h2scope rtt [--server <name>] [--delay MS] [--samples N]\n  \
         h2scope pageload [--server <name>] [--delay MS]\n  h2scope list-servers"
    );
}

fn resolve_profile(args: &Args) -> ServerProfile {
    ServerProfile::by_name(&args.server).unwrap_or_else(|| {
        usage_error(&format!(
            "unknown server '{}'; try: {}",
            args.server,
            server_names().join(", ")
        ))
    })
}

fn resolve_target(args: &Args) -> Target {
    Target::testbed(resolve_profile(args), SiteSpec::benchmark())
}

fn characterize(args: &Args) {
    let profile = resolve_profile(args);
    let scope = H2Scope::new();
    let report = scope.characterize(&Testbed::new(profile.clone(), SiteSpec::benchmark()));
    let push_report = push::probe(
        &Target::testbed(profile.clone(), SiteSpec::page_with_assets(3, 2_000)),
        &["/"],
    );
    let h2c = negotiation::h2c_upgrade(&Target::testbed(profile, SiteSpec::benchmark()));
    println!(
        "server                       : {} {}",
        report.server, report.version
    );
    println!(
        "ALPN h2 / NPN h2 / h2c       : {} / {} / {}",
        report.negotiation.alpn_h2, report.negotiation.npn_h2, h2c
    );
    println!(
        "request multiplexing         : {}",
        report.multiplexing.parallel
    );
    println!(
        "max concurrent streams       : {:?}",
        report.multiplexing.max_concurrent_streams
    );
    println!(
        "announced initial window     : {:?}",
        report.settings.initial_window_size
    );
    println!(
        "zero-window-then-update      : {}",
        report.settings.zero_window_then_update
    );
    println!(
        "1-octet window outcome       : {:?}",
        report.flow_control.small_window
    );
    println!(
        "HEADERS at zero window       : {}",
        report.flow_control.headers_at_zero_window
    );
    println!(
        "zero WINDOW_UPDATE (stream)  : {}",
        report.flow_control.zero_update_stream
    );
    println!(
        "zero WINDOW_UPDATE (conn)    : {}",
        report.flow_control.zero_update_conn
    );
    println!(
        "window overflow (stream)     : {}",
        report.flow_control.large_update_stream
    );
    println!(
        "window overflow (conn)       : {}",
        report.flow_control.large_update_conn
    );
    println!(
        "priority Algorithm 1         : {}",
        if report.priority.passes() {
            "pass"
        } else {
            "fail"
        }
    );
    println!(
        "  by first / last / both     : {} / {} / {}",
        report.priority.by_first_frame, report.priority.by_last_frame, report.priority.by_both
    );
    println!(
        "self-dependent stream        : {}",
        report.priority.self_dependency
    );
    println!("server push                  : {}", push_report.supported);
    println!("HPACK compression ratio      : {:.3}", report.hpack.ratio);
    println!(
        "HTTP/2 PING                  : {} ({:.3} ms median)",
        report.ping.supported,
        ping::median(&report.ping.rtt_ms)
    );
}

fn run_probe(args: &Args, which: &str) {
    let target = resolve_target(args);
    match which {
        "negotiation" => {
            let report = negotiation::probe(&target);
            println!(
                "ALPN h2: {}  NPN h2: {}  h2: {}",
                report.alpn_h2,
                report.npn_h2,
                report.h2()
            );
        }
        "settings" => println!("{:#?}", settings::probe(&target)),
        "multiplex" => println!("{:#?}", multiplexing::probe(&target, 4)),
        "flowcontrol" => println!("{:#?}", flow_control::probe(&target)),
        "priority" => println!("{:#?}", priority::algorithm1(&target)),
        "push" => {
            let push_target = Target::testbed(target.profile, SiteSpec::page_with_assets(3, 2_000));
            println!("{:#?}", push::probe(&push_target, &["/"]));
        }
        "hpack" => {
            let report = hpack::probe(&target, 8);
            println!(
                "H = {}   sizes = {:?}   r = {:.4}",
                report.h, report.sizes, report.ratio
            );
        }
        "ping" => {
            let report = ping::probe(&target, args.samples);
            println!(
                "supported: {}  median RTT: {:.3} ms  samples: {:?}",
                report.supported,
                ping::median(&report.rtt_ms),
                report.rtt_ms
            );
        }
        "h2c" => println!("h2c upgrade: {}", negotiation::h2c_upgrade(&target)),
        other => {
            eprintln!("unknown probe '{other}'");
            std::process::exit(2);
        }
    }
}

fn survey(args: &Args) {
    let spec = if args.exp == 2 {
        webpop::ExperimentSpec::second()
    } else {
        webpop::ExperimentSpec::first()
    };
    let population = webpop::Population::new(spec, args.scale);
    let scope = H2Scope::new();
    println!(
        "surveying {} h2 sites ({} at full scale)...",
        population.h2_count(),
        population.spec().h2_sites
    );
    let mut stored = Vec::new();
    for site in population.iter_h2_sites().take(args.limit) {
        let report = scope.survey(&site.target());
        if args.save.is_some() {
            stored.push(report.clone());
        }
        let server = report.server_name.as_deref().unwrap_or("-");
        let status = if !report.negotiation.h2() {
            "no-h2"
        } else if !report.headers_received {
            "mute"
        } else {
            "ok"
        };
        let (fc, prio, ratio) = match (&report.flow_control, &report.priority, &report.hpack) {
            (Some(fc), Some(p), Some(h)) => (
                format!("{}", fc.zero_update_stream),
                if p.passes() { "prio" } else { "fcfs" }.to_string(),
                format!("{:.2}", h.ratio),
            ),
            _ => ("-".into(), "-".into(), "-".into()),
        };
        println!(
            "  {:<28} {:<6} {:<22} zwu={:<12} {:<5} r={}",
            report.authority, status, server, fc, prio, ratio
        );
    }
    if let Some(path) = &args.save {
        let data = storage::write_reports(&stored);
        match std::fs::write(path, data) {
            Ok(()) => println!("saved {} records to {path}", stored.len()),
            Err(e) => eprintln!("failed to save {path}: {e}"),
        }
    }
}

fn trace_cmd(args: &Args) {
    let target = resolve_target(args);
    let mut conn = ProbeConn::establish(&target, h2ready::wire::Settings::new(), 0x7ace);
    conn.exchange();
    conn.fetch(1, &args.path);
    print!("{}", trace::render(&conn.received));
}

fn rtt(args: &Args) {
    let mut target = resolve_target(args);
    target.link = LinkSpec::wan(args.delay_ms);
    let comparison = ping::compare_rtt(&target, args.samples, 0xc11);
    println!("estimator      median (ms)");
    println!("h2-ping        {:>10.2}", ping::median(&comparison.h2_ping));
    println!("icmp           {:>10.2}", ping::median(&comparison.icmp));
    println!("tcp-rtt        {:>10.2}", ping::median(&comparison.tcp));
    println!(
        "h1-request     {:>10.2}",
        ping::median(&comparison.h1_request)
    );
}

fn pageload_cmd(args: &Args) {
    let mut target = Target::testbed(resolve_profile(args), SiteSpec::page_with_assets(8, 20_000));
    target.link = LinkSpec::wan(args.delay_ms);
    let with_push = pageload::page_load(&target, true, 1);
    let without_push = pageload::page_load(&target, false, 1);
    println!(
        "push: {:.1} ms ({} assets pushed)   no push: {:.1} ms",
        with_push.load_time.as_millis_f64(),
        with_push.pushed_assets,
        without_push.load_time.as_millis_f64()
    );
}

fn main() {
    let args = parse();
    match args.positional.first().map(String::as_str) {
        Some("characterize") => characterize(&args),
        Some("probe") => {
            let which = args.positional.get(1).cloned().unwrap_or_default();
            run_probe(&args, &which);
        }
        Some("survey") => survey(&args),
        Some("rtt") => rtt(&args),
        Some("pageload") => pageload_cmd(&args),
        Some("trace") => trace_cmd(&args),
        Some("list-servers") => println!("{}", server_names().join("\n")),
        _ => print_usage(),
    }
}
