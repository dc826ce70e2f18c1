//! `guardctl` — interrogate a guardian decision journal.
//!
//! ```text
//! guardctl <journal.jsonl> status   [--run <label>]
//! guardctl <journal.jsonl> timeline [--run <label>]
//! guardctl <journal.jsonl> history <link> [--run <label>]
//! guardctl <journal.jsonl> why <link> [--run <label>]
//! ```
//!
//! The journal is the `guard_event` JSONL stream a [`lg_guardd`]
//! manager emits (a whole session dump works too — foreign record
//! types are skipped). `status` folds it to the current protected set
//! and budget pressure; `timeline` lists every decision; `history`
//! narrows to one link; `why` is the decision postmortem — the health
//! transitions that triggered the latest decision about the link and
//! the candidate scores it was ranked against. A file holding several
//! runs' journals (e.g. `fig15_fabric_week --guardd --guard-log`)
//! folds them together unless `--run` narrows to one label.

use lg_guardd::query;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: guardctl <journal.jsonl> <status|timeline|history <link>|why <link>> \
         [--run <label>]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let run = args.iter().position(|a| a == "--run").map(|i| {
        if i + 1 >= args.len() {
            eprintln!("--run needs a label");
            std::process::exit(2);
        }
        let label = args.remove(i + 1);
        args.remove(i);
        label
    });
    let (Some(path), Some(cmd)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let journal = match query::parse_run_journal(&text, run.as_deref()) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let link = || -> Option<u32> { args.get(2).and_then(|s| s.parse().ok()) };
    let report = match (cmd.as_str(), link()) {
        ("status", _) => query::render_status(&journal),
        ("timeline", _) => query::render_timeline(&journal),
        ("history", Some(l)) => query::render_history(&journal, l),
        ("why", Some(l)) => query::render_why(&journal, l),
        _ => return usage(),
    };
    print!("{report}");
    ExitCode::SUCCESS
}
