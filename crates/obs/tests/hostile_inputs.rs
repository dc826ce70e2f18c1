//! `obs_validate` and `obs_analyze` on lines written to break a
//! reader: each must fail like any other malformed line — exit status
//! 1 and the line number on stderr, never a signal — and both must
//! agree on which lines are blank.

use std::path::PathBuf;
use std::process::{Command, Output};

const SCHEMA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../schema/obs-schema.json");
const META: &str = "{\"type\":\"meta\",\"schema\":3,\"bin\":\"x\"}";

fn dump(name: &str, lines: &[&str]) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, lines.join("\n") + "\n").expect("write dump");
    path.to_str().expect("UTF-8 path").to_string()
}

fn validate(path: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_validate"))
        .args([path, SCHEMA])
        .output()
        .expect("obs_validate runs")
}

fn analyze(path: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_analyze"))
        .arg(path)
        .output()
        .expect("obs_analyze runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn deep_nesting_is_an_error_with_a_line_number_not_a_stack_overflow() {
    let deep = format!(
        "{{\"type\":\"meta\",\"schema\":3,\"bin\":\"x\",\"a\":{}{}}}",
        "[".repeat(20_000),
        "]".repeat(20_000)
    );
    let path = dump("hostile_deep.jsonl", &[META, &deep]);
    let out = validate(&path);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(
        stderr(&out),
        format!("{path}: line 2: not valid JSON: nesting deeper than 128 at byte 167\n")
    );
    let out = analyze(&path);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(
        stderr(&out),
        format!("{path}:2: nesting deeper than 128 at byte 167\n")
    );
}

#[test]
fn a_signed_unicode_escape_is_rejected() {
    let line = "{\"type\":\"meta\",\"schema\":3,\"bin\":\"a\\u+041b\"}";
    let path = dump("hostile_escape.jsonl", &[META, META, line]);
    let out = validate(&path);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(
        stderr(&out),
        format!("{path}: line 3: not valid JSON: bad \\u escape\n")
    );
    let out = analyze(&path);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(stderr(&out), format!("{path}:3: bad \\u escape\n"));
}

#[test]
fn whitespace_only_lines_are_blank_to_both_tools() {
    let path = dump("hostile_blank.jsonl", &[META, "   ", "\t", "", META]);
    let out = validate(&path);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{path}: OK, 2 records (meta=2)\n")
    );
    let out = analyze(&path);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn a_line_that_is_not_utf8_is_an_error_with_its_line_number() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("hostile_utf8.jsonl");
    let mut bytes = format!("{META}\n").into_bytes();
    bytes.extend_from_slice(b"{\"type\":\"meta\",\"schema\":3,\"bin\":\"\xff\"}\n");
    std::fs::write(&path, bytes).expect("write dump");
    let path = path.to_str().expect("UTF-8 path");
    let why = "invalid UTF-8 in input line: invalid utf-8 sequence of 1 bytes from index 33";
    let out = validate(path);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(stderr(&out), format!("{path}: line 2: {why}\n"));
    let out = analyze(path);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(stderr(&out), format!("{path}:2: {why}\n"));
}
