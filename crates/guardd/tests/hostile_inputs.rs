//! `guardctl` on lines written to break a reader: exit status 1 and
//! the line number on stderr, never a signal; whitespace-only lines
//! are blank. `GuardManager::restore` on snapshots edited, truncated or
//! bit-flipped since they were written: an `Err` naming the field,
//! never a panic and never a manager over its budget.

use lg_guardd::query::parse_journal;
use lg_guardd::{GuardConfig, GuardInput, GuardManager, LinkHealth};
use std::path::PathBuf;
use std::process::{Command, Output};

const EVENT: &str = "{\"type\":\"guard_event\",\"t_ps\":10,\"seq\":1,\"run\":\"r\",\"link\":3,\
    \"action\":\"enable\",\"state\":\"degraded\",\"rate\":1e-3,\"budget\":1,\"budget_used\":1,\
    \"cause\":[],\"beat\":[]}";

fn status_of(name: &str, lines: &[&str], extra: &[&str]) -> (String, Output) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, lines.join("\n") + "\n").expect("write journal");
    let path = path.to_str().expect("UTF-8 path").to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_guardctl"))
        .args([&path, "status"])
        .args(extra)
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
        let (path, out) = status_of(name, &[EVENT, line], &[]);
        assert_eq!(out.status.code(), Some(1), "{name}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("{path}: line 2: not valid JSON: {why}\n")
        );
    }
}

#[test]
fn whitespace_only_lines_are_blank() {
    let (_, out) = status_of("hostile_blank.jsonl", &["   ", EVENT, "\t"], &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("run \"r\": 1 decisions, 1 protected"));
}

#[test]
fn a_first_event_without_its_run_names_its_line() {
    let bare = EVENT.replace(",\"run\":\"r\"", "");
    let (path, out) = status_of("hostile_no_run.jsonl", &["{\"type\":\"meta\"}", &bare], &[]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("{path}: line 2: missing string field \"run\"\n")
    );
}

/// `--run` narrows by the decoded label: errors carry the file's line
/// numbers, and a line of no run is an error, not filtered away.
#[test]
fn run_filter_keeps_file_line_numbers() {
    let other = EVENT.replace("\"run\":\"r\"", "\"run\":\"o\"");
    let bare = EVENT.replace(",\"run\":\"r\"", "");
    let cut = &EVENT[..EVENT.len() - 1];
    let run_r = ["--run", "r"];
    let (_, out) = status_of("run_filter.jsonl", &[&other, EVENT, &other], &run_r);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("run \"r\": 1 decisions, 1 protected"));
    for (name, line, why) in [
        (
            "run_filter_bare.jsonl",
            bare.as_str(),
            "missing string field \"run\"",
        ),
        ("run_filter_cut.jsonl", cut, "not valid JSON: "),
    ] {
        let (path, out) = status_of(name, &[&other, &other, line], &run_r);
        assert_eq!(out.status.code(), Some(1), "{name}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.starts_with(&format!("{path}: line 3: {why}")),
            "{name}: {err}"
        );
    }
}

/// Every prefix of a three-event journal: the complete lines' events,
/// or an error naming the line the cut fell in — never a panic.
#[test]
fn a_journal_truncated_anywhere_fails_on_the_cut_line() {
    let journal = full_budget_manager().take_journal();
    let lines = &journal[..3];
    let text = lines.join("\n") + "\n";
    let whole = parse_journal(&text)
        .expect("the whole journal parses")
        .events;
    assert_eq!(whole.len(), 3);
    for cut in 0..=text.len() {
        let prefix = &text[..cut];
        let complete = prefix.matches('\n').count();
        let in_line = prefix.len() - prefix.rfind('\n').map_or(0, |i| i + 1);
        let line_done = in_line == 0 || in_line == lines[complete].len();
        match parse_journal(prefix) {
            Ok(j) => {
                let n = complete + usize::from(in_line > 0);
                assert!(line_done, "cut {cut}: a partial line parsed");
                assert_eq!(j.events, whole[..n], "cut {cut}");
            }
            Err(e) => {
                assert!(!line_done, "cut {cut}: {e}");
                assert!(
                    e.starts_with(&format!("line {}: ", complete + 1)),
                    "cut {cut}: {e}"
                );
            }
        }
    }
}

/// Budget 3, four corrupting links (one deferred), two transitions of
/// history on link 2.
fn full_budget_manager() -> GuardManager {
    let cfg = GuardConfig {
        budget: 3,
        ..GuardConfig::default()
    };
    let mut m = GuardManager::new("r", cfg);
    let (h, d, c) = (
        LinkHealth::Healthy,
        LinkHealth::Degraded,
        LinkHealth::Corrupting,
    );
    for (t_ps, window_id, link, from, to, rate) in [
        (1_000_000, 1, 2, h, d, 1e-6),
        (2_000_000, 2, 2, d, c, 1e-3),
        (3_000_000, 1, 5, h, c, 2e-3),
        (4_000_000, 1, 7, h, c, 3e-3),
        (5_000_000, 1, 9, h, c, 4e-3),
    ] {
        m.ingest(GuardInput {
            t_ps,
            window_id,
            link,
            from,
            to,
            rate,
        });
    }
    assert_eq!((m.budget_used(), m.config().budget), (3, 3));
    m
}

#[test]
fn honest_snapshot_of_a_full_budget_manager_restores() {
    let m = full_budget_manager();
    let snap = m.snapshot_line();
    let restored = GuardManager::restore(&snap).expect("own snapshot restores");
    assert_eq!(restored.snapshot_line(), snap);
    assert_eq!(restored.protected_links(), m.protected_links());
    assert_eq!(restored.seq(), m.seq());
}

#[test]
fn edited_truncated_and_bit_flipped_snapshots_are_refused() {
    let snap = full_budget_manager().snapshot_line();
    // (what the honest line says, what the hostile one says, what the
    // error must name)
    for (honest, hostile, names) in [
        ("\"budget\":3,", "\"budget\":1,", "over a \"budget\" of 1"),
        ("\"budget\":3,", "\"budget\":-5,", "\"budget\""),
        ("\"budget\":3,", "\"budget\":4294967296,", "\"budget\""),
        (
            "\"budget_used\":3,",
            "\"budget_used\":2,",
            "\"budget_used\" is 2",
        ),
        (
            "\"budget_used\":3,",
            "\"budget_used\":\"3\",",
            "\"budget_used\"",
        ),
        ("[{\"link\":2,", "[{\"link\":4294967297.5,", "\"link\""),
        ("\"seq\":4,", "\"seq\":1e30,", "\"seq\""),
        ("\"seq\":4,", "\"seq\":18014398509481984,", "\"seq\""),
        (
            "\"t_ps\":5000000,\"seq\"",
            "\"t_ps\":-1,\"seq\"",
            "\"t_ps\"",
        ),
        (
            "\"rate\":0.001,\"protected\"",
            "\"rate\":-5,\"protected\"",
            "\"rate\"",
        ),
        (
            "\"rate\":0.001,\"protected\"",
            "\"rate\":1e999,\"protected\"",
            "\"rate\"",
        ),
        (
            "\"hold_until_ps\":0,",
            "\"hold_until_ps\":0.5,",
            "\"hold_until_ps\"",
        ),
        (
            "\"window_ps\":1000000,",
            "\"window_ps\":1e300,",
            "\"window_ps\"",
        ),
        (
            "\"history_cap\":16,",
            "\"history_cap\":1,",
            "\"history\" is longer",
        ),
        (
            "\"history_cap\":16,",
            "\"history_cap\":1e30,",
            "\"history_cap\"",
        ),
        (
            "\"hold_down_windows\":16,",
            "\"hold_down_windows\":-16,",
            "\"hold_down_windows\"",
        ),
        ("\"window_id\":2,", "\"window_id\":2.25,", "\"window_id\""),
        ("\"state\":\"corrupting\"", "\"state\":\"sick\"", "sick"),
    ] {
        assert!(snap.contains(honest), "{honest} not in {snap}");
        let line = snap.replacen(honest, hostile, 1);
        let err = GuardManager::restore(&line).expect_err(hostile);
        assert!(err.contains(names), "{hostile}: {err}");
    }
    assert!(snap.len() > 201, "{snap}");
    for cut in [10, 60, 200, snap.len() - 1] {
        let err = GuardManager::restore(&snap[..cut]).expect_err("truncated");
        assert!(
            err.starts_with("snapshot is not valid JSON"),
            "{cut}: {err}"
        );
    }
    // One bit of the `3` in `"budget_used":3`: 0x33 -> 0x32, 0x31, 0x37,
    // 0x3b (`;`), ... — another count or no longer a number.
    let at = snap.find("\"budget_used\":3").expect("field present") + "\"budget_used\":".len();
    for bit in 0..7 {
        let mut bytes = snap.clone().into_bytes();
        bytes[at] ^= 1 << bit;
        let line = String::from_utf8(bytes).expect("ASCII stays ASCII");
        assert!(GuardManager::restore(&line).is_err(), "bit {bit}: {line}");
    }
}
