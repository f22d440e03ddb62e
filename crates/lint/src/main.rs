//! `cargo run -p haec-lint` — scan the workspace and report invariant
//! violations with `file:line` positions. Exit code 1 when anything is
//! found, so CI's `verify` job fails the push.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // The lint crate lives at `<root>/crates/lint`; the workspace root
    // is two levels up from its manifest.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate must live under <root>/crates/")
        .to_path_buf();
    match haec_lint::scan_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            // The per-line rules, plus the cross-file `dead-pub` pass.
            println!("haec-lint: clean ({} rules, 0 findings)", haec_lint::rules().len() + 1);
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("haec-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("haec-lint: failed to scan workspace: {e}");
            ExitCode::FAILURE
        }
    }
}
