//! Validate an observability JSONL file against a schema.
//!
//! ```text
//! obs_validate <file.jsonl> <schema.json> [--expect <type>]...
//! ```
//!
//! Exits 0 when every line conforms (and every `--expect`ed record type
//! appears at least once); prints the first violation and exits 1
//! otherwise. Used by CI after running a figure binary with
//! `--trace --metrics-out`.
//!
//! The document streams through [`LineReader`] into an incremental
//! [`Schema::validator`], so memory stays O(record types + telemetry
//! streams) however large the dump — fabric-scale dumps run to
//! hundreds of megabytes.

use lg_obs::schema::Schema;
use lg_obs::LineReader;
use std::io::ErrorKind;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut expected = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--expect" {
            if i + 1 >= args.len() {
                eprintln!("--expect needs a record type");
                return ExitCode::FAILURE;
            }
            expected.push(args[i + 1].clone());
            i += 2;
        } else {
            paths.push(args[i].clone());
            i += 1;
        }
    }
    if paths.len() != 2 {
        eprintln!("usage: obs_validate <file.jsonl> <schema.json> [--expect <type>]...");
        return ExitCode::FAILURE;
    }
    let (doc_path, schema_path) = (&paths[0], &paths[1]);
    let schema_text = match std::fs::read_to_string(schema_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {schema_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let schema = match Schema::parse(&schema_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{schema_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match std::fs::File::open(doc_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot read {doc_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reader = LineReader::new(file);
    let mut validator = schema.validator();
    let mut line_no = 0usize;
    let counts = loop {
        let next = reader.next_line();
        line_no += 1;
        match next {
            Ok(Some(line)) => {
                if let Err(e) = validator.feed(line) {
                    eprintln!("{doc_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Ok(None) => break validator.finish(),
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                eprintln!("{doc_path}: line {line_no}: {e}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("cannot read {doc_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    match counts {
        Ok(counts) => {
            for ty in &expected {
                if !counts.iter().any(|(t, _)| t == ty) {
                    eprintln!("{doc_path}: no \"{ty}\" records (expected at least one)");
                    return ExitCode::FAILURE;
                }
            }
            let total: usize = counts.iter().map(|(_, n)| n).sum();
            let breakdown: Vec<String> = counts.iter().map(|(t, n)| format!("{t}={n}")).collect();
            println!("{doc_path}: OK, {total} records ({})", breakdown.join(", "));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{doc_path}: {e}");
            ExitCode::FAILURE
        }
    }
}
