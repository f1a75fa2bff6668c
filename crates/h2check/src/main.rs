//! CLI for the h2check static-analysis suite.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut check_file: Option<PathBuf> = None;
    let mut workspace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--check-file" => match args.next() {
                Some(path) => check_file = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--check-file requires a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: h2check [--workspace] [--check-file <path>]");
                return ExitCode::from(2);
            }
        }
    }
    let report = match check_file {
        Some(path) => h2check::workspace::check_file(&path),
        None => {
            if !workspace {
                eprintln!("usage: h2check [--workspace] [--check-file <path>]");
                return ExitCode::from(2);
            }
            h2check::workspace::run_workspace(&h2check::workspace::repo_root())
        }
    };
    print!("{}", report.render());
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
