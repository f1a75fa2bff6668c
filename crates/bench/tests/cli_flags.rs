//! The `repro` binary's handling of `--threads` and `--loads`: an
//! unparsable value is a usage error (exit 2 with a message naming the
//! flag) like every other numeric flag, and `--threads 0` runs on one
//! worker.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn unparsable_threads_and_loads_are_usage_errors() {
    for (flag, value) in [("--threads", "x"), ("--loads", "many"), ("--threads", "-1")] {
        let out = repro(&["adoption", "--scale", "0.0005", "--exp", "1", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        assert!(out.stdout.is_empty(), "{flag} {value} still ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} needs")),
            "{flag} {value}: unhelpful message {stderr:?}"
        );
    }
    // A flag with its value missing altogether fails the same way.
    let out = repro(&["adoption", "--loads"]);
    assert_eq!(out.status.code(), Some(2));
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
