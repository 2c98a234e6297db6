//! The `edkm` command line rejects an unknown command, a flag it does not
//! list for the subcommand, and a flag whose value is missing or does not
//! parse: it names the command or flag, prints the usage text and exits 2,
//! instead of ignoring the flag or running with its default.

use std::process::Command;

fn edkm(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_edkm"))
        .args(args)
        .output()
        .expect("run the edkm binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

fn assert_usage_error(args: &[&str], named: &str) {
    let (code, stderr) = edkm(args);
    assert_eq!(code, Some(2), "edkm {args:?} must exit 2:\n{stderr}");
    assert!(
        stderr.contains(named),
        "edkm {args:?} must name {named}:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: edkm"),
        "edkm {args:?} must print usage:\n{stderr}"
    );
}

#[test]
fn unknown_commands_exit_2_with_usage() {
    for (args, command) in [
        (&["bogus"][..], "bogus"),
        (&["bench"][..], "bench"),
        (&["bench", "bogus"][..], "bogus"),
        (&["table1", "--bogus-flag", "7"][..], "table1"),
        (&["ablate", "--bits", "3"][..], "ablate"),
        (&["ablate", "--learners", "-1"][..], "ablate"),
        (&["ablate", "--d-model", "24"][..], "ablate"),
    ] {
        assert_usage_error(args, command);
    }
}

#[test]
fn unknown_flags_exit_2_with_the_flag_and_usage() {
    for (args, flag) in [
        (&["compress", "--bogus"][..], "--bogus"),
        (&["sweep", "--group-rows", "2"][..], "--group-rows"),
        (&["inspect", "--epochs", "2"][..], "--epochs"),
        (&["serve", "--profile"][..], "--profile"),
        (&["serve", "--new", "4", "--reqests", "2"][..], "--reqests"),
        (&["serve", "--affinity=yes"][..], "--affinity"),
        (&["serve", "--shards", "2"][..], "--shards"),
        (&["serve", "--draft-bits", "2"][..], "--draft-bits"),
        (&["serve", "--draft-k", "4"][..], "--draft-k"),
        (&["bench", "workload", "--new", "4"][..], "--new"),
    ] {
        assert_usage_error(args, flag);
    }
}

#[test]
fn malformed_flag_values_exit_2_with_the_flag_and_usage() {
    for (args, flag) in [
        (&["serve", "--requests", "abc"][..], "--requests"),
        (&["serve", "--temp=hot"][..], "--temp"),
        (&["serve", "--new"][..], "--new"),
        (&["serve", "--requests", "--new", "4"][..], "--requests"),
        (&["serve", "--chaos-seed", "x"][..], "--chaos-seed"),
        (
            &["serve", "--chaos-profile", "meteor"][..],
            "--chaos-profile",
        ),
        (&["compress", "--bits", "three"][..], "--bits"),
        (&["sweep", "--bits", "2,x,4"][..], "--bits"),
        (&["compress", "--bits", "0"][..], "--bits"),
        (&["sweep", "--bits", "0,3"][..], "--bits"),
        (&["inspect", "--bits", "12"][..], "--bits"),
        (&["serve", "--bits", "9"][..], "--bits"),
        (&["serve", "--batch", "0"][..], "--batch"),
        (&["serve", "--replicas", "0"][..], "--replicas"),
        (&["serve", "--requests", "0"][..], "--requests"),
        (
            &["serve", "--chaos-seed", "1", "--requests", "0"][..],
            "--requests",
        ),
        (&["compress", "--learners", "0"][..], "--learners"),
        (&["compress", "--dim", "0"][..], "--dim"),
        (&["sweep", "--dim", "0"][..], "--dim"),
        (&["inspect", "--dim", "0"][..], "--dim"),
        (
            &["serve", "--kv-block-tokens", "0"][..],
            "--kv-block-tokens",
        ),
        (&["bench", "workload", "--trace", "bogus"][..], "--trace"),
        (&["bench", "workload", "--seed", "0x10"][..], "--seed"),
        (&["bench", "workload", "--requests", "0"][..], "--requests"),
        (&["bench", "workload", "--batch", "0"][..], "--batch"),
    ] {
        assert_usage_error(args, flag);
    }
}
