//! The `repro` binary's usage errors: an unparsable `--threads`/`--loads`
//! value, `--loads 0`, a flag without its value (`--exp` included), a
//! `--scale` outside `(0, 1]` or too small to leave the command a site,
//! an unknown command, a flag the command does not read, a positional
//! argument a command does not take and an unknown `probe` profile all
//! exit 2 with a message and no report; `--threads 0` runs on one worker; an
//! artifact that cannot be written is exit 2 as well; `--out-dir` routes
//! what a run writes, never the records `diff` and `serve` read.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn unparsable_threads_and_loads_are_usage_errors() {
    // `--loads 0` parses, but every page-load mean it feeds would be NaN.
    for (flag, value) in [
        ("--threads", "x"),
        ("--loads", "many"),
        ("--threads", "-1"),
        ("--loads", "0"),
    ] {
        let out = repro(&["adoption", "--scale", "0.0005", "--exp", "1", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        assert!(out.stdout.is_empty(), "{flag} {value} still ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} needs")),
            "{flag} {value}: unhelpful message {stderr:?}"
        );
    }
    // A flag with its value missing altogether fails the same way —
    // `--exp` too, which used to read as "both" and scan everything.
    let out = repro(&["adoption", "--loads"]);
    assert_eq!(out.status.code(), Some(2));
    let out = repro(&["adoption", "--scale", "0.0005", "--exp"]);
    assert_eq!(out.status.code(), Some(2), "--exp without a value");
    assert!(out.stdout.is_empty(), "--exp without a value still ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--exp needs"),
        "unhelpful message {stderr:?}"
    );
}

#[test]
fn unknown_commands_and_out_of_range_scales_are_usage_errors() {
    // A typo, and `trend`, which read an interpolation back and is gone.
    for command in ["tabel4", "trend"] {
        let out = repro(&[command, "--scale", "0.0005"]);
        assert_eq!(out.status.code(), Some(2), "{command} must not succeed");
        assert!(
            out.stdout.is_empty(),
            "{command} still printed a report header"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        let refusal = format!("unknown command \"{command}\"");
        assert!(stderr.contains(&refusal), "{stderr:?}");
        assert!(stderr.contains("table4") && stderr.contains("push-study"));
    }

    // A flag the command does not read is refused, not silently ignored:
    // a scan flag on `serve`, a record flag on `table3` (which used to
    // run a full scan nobody asked for), a study flag on `abuse`, and
    // the seed, scale and thread count `abuse`'s fixed matrices ignore.
    for (command, flag, value) in [
        ("serve", "--scale", "0.5"),
        ("table3", "--record", "x.h2c"),
        ("abuse", "--loads", "3"),
        ("abuse", "--seed", "1"),
        ("abuse", "--threads", "2"),
        ("abuse", "--scale", "0.5"),
    ] {
        let out = repro(&[command, flag, value]);
        assert_eq!(out.status.code(), Some(2), "{command} {flag}");
        assert!(out.stdout.is_empty(), "{command} {flag} still ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let refusal = format!("{flag} is not valid for `{command}`");
        assert!(stderr.contains(&refusal), "{command} {flag}: {stderr:?}");
    }
    // The campaign's traffic-mix and vector-filter flags are gone.
    for (flag, value) in [("--mix", "3:1"), ("--vectors", "slow-read")] {
        let out = repro(&["abuse", flag, value]);
        assert_eq!(out.status.code(), Some(2), "abuse {flag}");
        assert!(out.stdout.is_empty(), "abuse {flag} still ran");
    }

    for scale in ["0", "-1", "nan"] {
        let out = repro(&["table4", "--exp", "1", "--scale", scale]);
        assert_eq!(out.status.code(), Some(2), "--scale {scale}");
        assert!(out.stdout.is_empty(), "--scale {scale} still ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--scale needs a number in (0, 1]"));
        assert!(!stderr.contains("panicked"), "--scale {scale}: {stderr}");
    }

    // A scale in range that rounds the population the command reads to
    // zero sites (every CDF and mean would be 0/0) is refused too, with
    // the smallest scale that is not — which then runs without a NaN.
    for (args, too_small, smallest) in [
        (&["all", "--exp", "1"][..], "1e-5", "1.13e-5"),
        (
            &["push-study", "--sites", "4", "--loads", "1"],
            "4e-6",
            "5.89e-6",
        ),
    ] {
        let dir = std::env::temp_dir().join(format!("h2ready-cli-tiny-{}", std::process::id()));
        let out_dir = ["--threads", "1", "--out-dir", dir.to_str().expect("utf-8")];
        let out = repro(&[args, &out_dir, &["--scale", too_small]].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?} --scale {too_small}");
        assert!(out.stdout.is_empty(), "{args:?} --scale {too_small} ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let needs = format!("--scale needs at least {smallest} for `{}`", args[0]);
        assert!(stderr.contains(&needs), "{stderr:?}");
        let out = repro(&[args, &out_dir, &["--scale", smallest]].concat());
        assert!(out.status.success(), "{args:?} --scale {smallest}");
        let mut printed = String::from_utf8(out.stdout).expect("utf-8 report");
        if let Ok(artifact) = std::fs::read_to_string(dir.join("PUSH_campaign.json")) {
            printed.push_str(&artifact);
        }
        let mut words = printed.split(|c: char| !c.is_alphanumeric());
        assert!(!words.any(|w| w == "NaN" || w == "inf"), "{printed}");
        std::fs::remove_dir_all(&dir).ok();
    }

    // The command the typo meant still runs, and an admissible scale
    // prints the same bytes however it is spelled.
    let run = |scale: &str| {
        let out = repro(&["table4", "--exp", "1", "--threads", "1", "--scale", scale]);
        assert!(out.status.success(), "--scale {scale} failed");
        out.stdout
    };
    let report = run("0.0005");
    assert!(String::from_utf8_lossy(&report).contains("TABLE IV"));
    assert_eq!(report, run("5e-4"));
}

#[test]
fn stray_positionals_and_unknown_profiles_are_usage_errors() {
    // Only `diff`, `serve` and `probe` read positionals.
    for args in [&["table3", "nginx"][..], &["adoption", "x"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} still ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("takes no arguments"),
            "{args:?}: {stderr:?}"
        );
    }
    for args in [
        &["probe"][..],
        &["probe", "iis"],
        &["probe", "nginx", "extra"],
        &["probe", "nginx", "--scale", "0.1"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} still ran");
    }
    let stderr = String::from_utf8_lossy(&repro(&["probe", "iis"]).stderr).into_owned();
    assert!(stderr.contains("nginx, litespeed") && stderr.contains("tengine-aserver"));
}

#[test]
fn zero_threads_runs_on_one_worker() {
    let run = |threads: &str| {
        let out = repro(&[
            "--threads",
            threads,
            "adoption",
            "--scale",
            "0.0005",
            "--exp",
            "1",
        ]);
        assert!(out.status.success(), "--threads {threads} failed");
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let (zero, one) = (run("0"), run("1"));
    let below_header = |s: &str| s.split_once('\n').map(|(_, rest)| rest.to_string());
    assert!(zero.starts_with("repro: command=adoption"));
    assert!(one.contains("NPN"), "report missing: {one}");
    assert_eq!(below_header(&zero), below_header(&one));
}

#[test]
fn an_unwritable_metrics_artifact_is_exit_2() {
    // A directory squats on the artifact's path, so the write must fail.
    let dir = std::env::temp_dir().join(format!("h2ready-cli-obs-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("OBS_campaign.json")).expect("scratch dir");
    let out = repro(&[
        "adoption",
        "--scale",
        "0.0005",
        "--exp",
        "1",
        "--threads",
        "1",
        "--metrics",
        "--out-dir",
        dir.to_str().expect("utf-8 temp dir"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("[obs] failed to write"), "{stderr:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_dir_leaves_the_records_diff_and_serve_read_alone() {
    let cwd = std::env::temp_dir().join(format!("h2ready-cli-read-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    for args in [
        "adoption --exp 1 --scale 0.0005 --threads 1 --record a.h2c",
        "diff a.h2c a.h2c --out-dir d",
        "serve a.h2c --queries 20 --threads 1 --out-dir d",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args.split(' '))
            .current_dir(&cwd)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args}: {stderr}");
    }
    std::fs::remove_dir_all(&cwd).ok();
}
