//! The paper-table bins reject an unparsable or extra argument: they print
//! a usage line and exit 2 instead of running at their default size.
//! `table1` and `figures` take no argument at all.

use std::process::Command;

#[test]
fn table_bins_exit_2_on_bad_arguments() {
    for (bin, name, args) in [
        (env!("CARGO_BIN_EXE_table2"), "table2", &["abc"][..]),
        (
            env!("CARGO_BIN_EXE_table2"),
            "table2",
            &["256", "extra"][..],
        ),
        (env!("CARGO_BIN_EXE_table2"), "table2", &["24"][..]),
        (env!("CARGO_BIN_EXE_table2"), "table2", &["0"][..]),
        (env!("CARGO_BIN_EXE_table3"), "table3", &["abc"][..]),
        (env!("CARGO_BIN_EXE_table3"), "table3", &["10", "extra"][..]),
        (env!("CARGO_BIN_EXE_table1"), "table1", &["bogus"][..]),
        (env!("CARGO_BIN_EXE_figures"), "figures", &["bogus"][..]),
    ] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("run {name}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} {args:?} must exit 2:\n{stderr}"
        );
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name} {args:?} must print its usage line:\n{stderr}"
        );
    }
}
