//! `ext_fabric_pkt --dump PATH` writes the run's rows to `PATH`, replacing
//! whatever was there: a second run to the same path leaves the same
//! file, not the first run's rows twice.

use std::process::Command;

#[test]
fn fabric_dump_replaces_an_existing_file() {
    let path =
        std::env::temp_dir().join(format!("ext_fabric_pkt_dump_{}.jsonl", std::process::id()));
    let dump = || {
        let out = Command::new(env!("CARGO_BIN_EXE_ext_fabric_pkt"))
            .args(["--pods", "2", "--horizon-us", "100", "--dump"])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&path).expect("dump written")
    };
    let first = dump();
    let second = dump();
    std::fs::remove_file(&path).ok();
    assert!(first.lines().count() > 2, "both policies dumped rows");
    assert_eq!(second.lines().count(), first.lines().count());
    assert_eq!(second, first);
}
