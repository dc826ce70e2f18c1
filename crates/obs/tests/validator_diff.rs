//! Differential property test: the compiled schema validator equals
//! the per-field validator it replaced.
//!
//! The oracle is `src/schema/reference.rs`, compiled into this test (it
//! is not part of the library): one `Scanned::get` walk per required
//! field, field types compared as strings, a `String`-keyed stream map.
//! Generated documents hold every stream record type of the repository
//! schema plus `meta`, `trace` and unknown types, with duplicate keys,
//! escaped key and value spellings, missing and mistyped fields, blank
//! lines, and stream fields drawn from small domains so that `t_ps`
//! goes back and `window_id`/`seq` repeat. Both validators see every
//! line (a rejected line leaves no state behind, so feeding continues)
//! and must return the same `Ok`/`Err` with the same text, line by line
//! and at `finish`.

use lg_obs::json::{parse, JsonValue, Scanned, Scanner};
use lg_obs::schema::Schema;
use proptest::prelude::*;

#[path = "../src/schema/reference.rs"]
mod reference;

const SCHEMA: &str = include_str!("../../../schema/obs-schema.json");

struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len() as u64) as usize]
    }

    /// A JSON string literal for `text`, sometimes with one character
    /// spelled as a `\u` escape (same text once unescaped).
    fn spell(&mut self, text: &str) -> String {
        let chars: Vec<char> = text.chars().collect();
        let at = (!chars.is_empty() && self.one_in(4)).then(|| self.below(chars.len() as u64));
        let mut out = String::from("\"");
        for (i, c) in chars.into_iter().enumerate() {
            if Some(i as u64) == at {
                out.push_str(&format!("\\u{:04x}", c as u32));
            } else {
                out.push(c);
            }
        }
        out.push('"');
        out
    }

    /// A value of a random JSON type.
    fn any_value(&mut self) -> String {
        match self.below(6) {
            0 => "null".into(),
            1 => "true".into(),
            2 => self.below(5).to_string(),
            3 => "\"s\"".into(),
            4 => "[]".into(),
            _ => "{\"t_ps\":1}".into(),
        }
    }
}

/// How a field is filled in a well-formed record.
#[derive(Clone, Copy)]
enum Kind {
    /// A small number, so streams collide.
    Small,
    /// A string from a small set.
    Text(&'static [&'static str]),
    /// An empty array.
    List,
}

const RUNS: &[&str] = &["a", "b"];
const INSTS: &[&str] = &["x", "y", "link:7"];
const NAMES: &[&str] = &["q", "r"];
const ANY: &[&str] = &["s", "healthy", "enable"];

fn template(ty: &str) -> Vec<(&'static str, Kind)> {
    use Kind::*;
    let stream = [
        ("t_ps", Small),
        ("window_id", Small),
        ("run", Text(RUNS)),
        ("comp", Text(&["c"])),
        ("inst", Text(INSTS)),
    ];
    match ty {
        "timeseries" => [
            &stream[..],
            &[("name", Text(NAMES)), ("value", Small), ("ewma", Small)],
        ]
        .concat(),
        "health_event" => [
            &stream[..],
            &[
                ("from", Text(ANY)),
                ("to", Text(ANY)),
                ("rate", Small),
                ("name", Text(NAMES)),
            ],
        ]
        .concat(),
        "guard_event" => vec![
            ("t_ps", Small),
            ("seq", Small),
            ("run", Text(RUNS)),
            ("link", Small),
            ("action", Text(ANY)),
            ("state", Text(ANY)),
            ("rate", Small),
            ("budget", Small),
            ("budget_used", Small),
            ("cause", List),
            ("beat", List),
        ],
        "trace" => vec![
            ("t_ps", Small),
            ("comp", Text(&["link"])),
            ("kind", Text(&["corrupt_drop"])),
            ("inst", Small),
            ("uid", Small),
            ("seq", Small),
            ("aux", Small),
        ],
        "meta" => vec![("schema", Small), ("bin", Text(&["x"]))],
        _ => vec![("t_ps", Small)],
    }
}

/// One generated line: a record of a random type, perturbed.
fn line(g: &mut Gen) -> String {
    match g.below(40) {
        0 => return g.pick(&["", "  ", "\t"]).to_string(),
        1 => return "{\"type\":".into(),
        _ => {}
    }
    let ty = g.pick(&[
        "timeseries",
        "timeseries",
        "health_event",
        "guard_event",
        "trace",
        "meta",
        "bogus",
    ]);
    let mut members: Vec<(String, String)> = Vec::new();
    for (key, kind) in template(ty) {
        if key == "name" && ty == "health_event" && g.one_in(2) {
            continue; // optional there: the stream key reads it if present
        }
        let value = match kind {
            Kind::Small => g.below(4).to_string(),
            Kind::Text(set) => {
                let text = g.pick(set);
                g.spell(text)
            }
            Kind::List => "[]".into(),
        };
        members.push((key.to_string(), value));
    }
    for _ in 0..g.below(3) {
        if members.is_empty() {
            break;
        }
        let i = g.below(members.len() as u64) as usize;
        match g.below(5) {
            // Missing.
            0 => {
                members.remove(i);
            }
            // Mistyped.
            1 => members[i].1 = g.any_value(),
            // Duplicated, before or after, with a value of any type.
            2 => {
                let dup = (members[i].0.clone(), g.any_value());
                let at = g.below(members.len() as u64 + 1) as usize;
                members.insert(at, dup);
            }
            // Moved.
            3 => {
                let m = members.remove(i);
                members.push(m);
            }
            // An unknown extra member.
            _ => members.push(("extra".into(), g.any_value())),
        }
    }
    let type_value = match g.below(30) {
        0 => None,
        1 => Some("7".to_string()),
        2 => Some(g.spell("trace_summary")),
        _ => Some(g.spell(ty)),
    };
    if let Some(v) = type_value {
        let at = if g.one_in(4) {
            g.below(members.len() as u64 + 1) as usize
        } else {
            0
        };
        members.insert(at, ("type".into(), v));
    }
    if g.one_in(12) {
        // A second `type`, which wins.
        members.push(("type".into(), g.spell("meta")));
    }
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}:{v}", g.spell(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The generator's escapes are real: every spelled key reads back as
/// its text through the borrowed accessors.
fn assert_spelled_keys_read_back(line: &str) {
    if let Ok(JsonValue::Obj(m)) = parse(line) {
        let mut scanner = Scanner::default();
        let v: Scanned<'_> = scanner.scan(line).expect("parsed once");
        for key in m.keys() {
            assert!(v.get(key).is_some(), "{key} in {line}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Line by line and at the end, the compiled validator accepts and
    /// rejects exactly as the per-field one, with the same words.
    #[test]
    fn compiled_validator_equals_reference(seed in any::<u64>(), len in 0usize..80) {
        let (schema, oracle) = (
            Schema::parse(SCHEMA).expect("schema"),
            reference::Schema::parse(SCHEMA).expect("schema"),
        );
        let mut g = Gen(seed);
        let (mut got, mut want) = (schema.validator(), oracle.validator());
        let mut doc = String::new();
        for _ in 0..len {
            let line = line(&mut g);
            assert_spelled_keys_read_back(&line);
            prop_assert_eq!(got.feed(&line), want.feed(&line), "line {:?}", line);
            if !line.trim().is_empty() {
                prop_assert_eq!(
                    schema.validate_line(&line),
                    oracle.validate_line(&line),
                    "line {:?}",
                    line
                );
            }
            doc.push_str(&line);
            doc.push('\n');
        }
        prop_assert_eq!(got.finish(), want.finish());
        let mut whole = oracle.validator();
        let want = doc.lines().try_for_each(|l| whole.feed(l)).and_then(|_| whole.finish());
        prop_assert_eq!(schema.validate(&doc), want, "{}", doc);
    }
}

/// The generator reaches every verdict the validators can give.
#[test]
fn generator_covers_every_verdict() {
    let schema = Schema::parse(SCHEMA).expect("schema");
    let mut seen = [false; 8];
    let mut g = Gen(1);
    let mut v = schema.validator();
    for _ in 0..20_000 {
        let r = v.feed(&line(&mut g));
        let i = match r {
            Ok(()) => 0,
            Err(e) if e.contains("not valid JSON") => 1,
            Err(e) if e.contains("missing \"type\"") => 2,
            Err(e) if e.contains("unknown record type") => 3,
            Err(e) if e.contains("missing field") => 4,
            Err(e) if e.contains("(want ") => 5,
            Err(e) if e.contains("out-of-order t_ps") => 6,
            Err(e) if e.contains("non-monotone") => 7,
            Err(e) => panic!("unexpected verdict {e}"),
        };
        seen[i] = true;
    }
    assert_eq!(seen, [true; 8]);
}
