//! A flag the command does not read is refused before the command runs, by
//! name: a typo, a flag of another command, or one the CLI no longer has
//! must not run at the default it meant to change.

use std::process::Command;

/// `stq argv` exits 1 with a usage error naming `--flag`, having printed
/// nothing.
fn assert_refused(argv: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_stq")).args(argv).output().expect("stq runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{argv:?}: {err}");
    assert!(out.stdout.is_empty(), "{argv:?}: nothing ran");
    let command = argv[0];
    assert_eq!(err.trim_end(), format!("{command} does not take --{flag}"), "{argv:?}");
}

#[test]
fn a_typo_is_refused_by_name() {
    assert_refused(&["generate", "--junctions", "120", "--bogus-flag", "9"], "bogus-flag");
    assert_refused(&["serve", "--junctions", "100", "--shard", "2"], "shard");
    // A flag another command reads.
    assert_refused(&["generate", "--junctions", "120", "--shards", "2"], "shards");
    assert_refused(&["recover", "--wal-dir", "wal", "--ingest", "10"], "ingest");
}

#[test]
fn the_removed_seed_alias_is_refused() {
    assert_refused(&["serve", "--fault-seed", "5"], "fault-seed");
    assert_refused(&["audit", "--dead", "0.1", "--fault-seed", "7"], "fault-seed");
}
