//! `guardctl` on lines written to break a reader: exit status 1 and
//! the line number on stderr, never a signal; whitespace-only lines
//! are blank.

use std::path::PathBuf;
use std::process::{Command, Output};

const EVENT: &str = "{\"type\":\"guard_event\",\"t_ps\":10,\"seq\":1,\"run\":\"r\",\"link\":3,\
    \"action\":\"enable\",\"state\":\"degraded\",\"rate\":1e-3,\"budget\":1,\"budget_used\":1,\
    \"cause\":[],\"beat\":[]}";

fn status_of(name: &str, lines: &[&str]) -> (String, Output) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, lines.join("\n") + "\n").expect("write journal");
    let path = path.to_str().expect("UTF-8 path").to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_guardctl"))
        .args([&path, "status"])
        .output()
        .expect("guardctl runs");
    (path, out)
}

#[test]
fn hostile_lines_fail_with_a_line_number() {
    let deep = format!(
        "{{\"type\":\"meta\",\"schema\":3,\"bin\":\"x\",\"a\":{}{}}}",
        "[".repeat(20_000),
        "]".repeat(20_000)
    );
    let signed = "{\"type\":\"meta\",\"schema\":3,\"bin\":\"a\\u+041b\"}";
    for (name, line, why) in [
        (
            "hostile_deep.jsonl",
            deep.as_str(),
            "nesting deeper than 128 at byte 167",
        ),
        ("hostile_escape.jsonl", signed, "bad \\u escape"),
    ] {
        let (path, out) = status_of(name, &[EVENT, line]);
        assert_eq!(out.status.code(), Some(1), "{name}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("{path}: line 2: not valid JSON: {why}\n")
        );
    }
}

#[test]
fn whitespace_only_lines_are_blank() {
    let (_, out) = status_of("hostile_blank.jsonl", &["   ", EVENT, "\t"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("run \"r\": 1 decisions, 1 protected"));
}
