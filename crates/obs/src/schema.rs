//! JSONL schema validation (used by the `obs_validate` binary and CI).
//!
//! The schema is itself JSON (checked in at `schema/obs-schema.json`):
//!
//! ```json
//! {
//!   "version": 1,
//!   "records": {
//!     "metric":  { "required": { "t_ps": "number", "comp": "string" } },
//!     "trace":   { "required": { ... } }
//!   }
//! }
//! ```
//!
//! Every JSONL line must parse as an object with a `"type"` string field
//! naming a record class in the schema; each required field must be
//! present with the declared JSON type (`"number"`, `"string"`,
//! `"boolean"`, `"object"`, `"array"` or `"null"`).
//!
//! [`Schema::parse`] compiles each record type to a plan: its fields'
//! names in one [`Names`] set and their types as [`JsonType`]s, so a
//! line's type lookup is followed by a single walk over its members
//! that fills every slot the checks read — required fields, stream key,
//! `t_ps` and counter — rather than one walk per field.

use crate::json::{parse, Found, JsonType, JsonValue, Names, Scanned, Scanner, Slots};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A loaded schema, compiled to one [`Plan`] per record type.
#[derive(Debug)]
pub struct Schema {
    plans: Vec<Plan>,
}

/// What one record type's lines are checked against, read in one walk
/// over the line: slot `i` of `names` is the `i`-th required field (in
/// the schema's key order, the order errors are found in) for
/// `i < want.len()`, then the stream fields the record does not
/// require.
#[derive(Debug)]
struct Plan {
    ty: String,
    names: Names,
    /// Declared type of each required field.
    want: Vec<JsonType>,
    stream: Option<StreamPlan>,
}

/// Slots of a stream record's key fields, `t_ps` and counter.
#[derive(Debug)]
struct StreamPlan {
    key: Vec<usize>,
    t_ps: usize,
    counter: usize,
    counter_name: &'static str,
}

/// The records that are streams: key fields and the counter that must
/// strictly increase within a stream.
fn stream_fields(ty: &str) -> Option<(&'static [&'static str], &'static str)> {
    match ty {
        "timeseries" | "health_event" => Some((&["run", "comp", "inst", "name"], "window_id")),
        "guard_event" => Some((&["run"], "seq")),
        _ => None,
    }
}

impl Plan {
    fn compile(ty: &str, required: Vec<(&str, JsonType)>) -> Plan {
        let mut names: Vec<&str> = required.iter().map(|&(f, _)| f).collect();
        let mut slot = |name: &'static str| match names.iter().position(|&f| f == name) {
            Some(i) => i,
            None => {
                names.push(name);
                names.len() - 1
            }
        };
        let stream = stream_fields(ty).map(|(key, counter)| StreamPlan {
            key: key.iter().map(|&f| slot(f)).collect(),
            t_ps: slot("t_ps"),
            counter: slot(counter),
            counter_name: counter,
        });
        Plan {
            ty: ty.to_string(),
            names: Names::new(names),
            want: required.iter().map(|&(_, t)| t).collect(),
            stream,
        }
    }
}

impl Schema {
    /// Parse a schema document. Every field type must be one of the six
    /// JSON type names and every `"required"` an object: a schema that
    /// no line could satisfy is refused here, naming the record.
    pub fn parse(text: &str) -> Result<Schema, String> {
        let doc = parse(text).map_err(|e| format!("schema is not valid JSON: {e}"))?;
        let records = match doc.get("records") {
            Some(JsonValue::Obj(m)) => m,
            _ => return Err("schema missing \"records\" object".into()),
        };
        let mut plans = Vec::new();
        for (ty, spec) in records {
            let mut required = Vec::new();
            match spec.get("required") {
                None => {}
                Some(JsonValue::Obj(fields)) => {
                    for (field, want) in fields {
                        let want = want.as_str().ok_or_else(|| {
                            format!("record {ty}: field {field}: type not a string")
                        })?;
                        let want = JsonType::from_name(want).ok_or_else(|| {
                            format!(
                                "record {ty}: field {field}: unknown type {want:?} (want null, \
                                 boolean, number, string, array or object)"
                            )
                        })?;
                        required.push((field.as_str(), want));
                    }
                }
                Some(other) => {
                    return Err(format!(
                        "record {ty}: \"required\" is {} (want object)",
                        other.type_name()
                    ))
                }
            }
            plans.push(Plan::compile(ty, required));
        }
        Ok(Schema { plans })
    }

    /// Validate one JSONL line. Returns the record type on success.
    pub fn validate_line(&self, line: &str) -> Result<String, String> {
        let mut scanner = Scanner::default();
        let v = scanner
            .scan(line)
            .map_err(|e| format!("not valid JSON: {e}"))?;
        let (p, _) = self.check_fields(v, &mut Slots::default())?;
        Ok(self.plans[p].ty.clone())
    }

    /// Check a scanned line's `type` and required fields, in one walk
    /// after the `type` lookup; returns the record's plan index and
    /// the filled slots.
    fn check_fields<'a, 's>(
        &self,
        v: Scanned<'a>,
        slots: &'s mut Slots,
    ) -> Result<(usize, Found<'a, 's>), String> {
        let ty = v
            .get("type")
            .and_then(|t| t.as_str())
            .ok_or("missing \"type\" string field")?;
        let p = self
            .plans
            .iter()
            .position(|p| p.ty == *ty)
            .ok_or_else(|| format!("unknown record type \"{ty}\""))?;
        let plan = &self.plans[p];
        let found = v.fill(&plan.names, slots);
        for (i, &want) in plan.want.iter().enumerate() {
            let field = plan.names.name(i);
            let got = found
                .get(i)
                .ok_or_else(|| format!("record type \"{ty}\": missing field \"{field}\""))?;
            if got.json_type() != want {
                return Err(format!(
                    "record type \"{ty}\": field \"{field}\" is {} (want {})",
                    got.type_name(),
                    want.name()
                ));
            }
        }
        Ok((p, found))
    }

    /// Validate a whole JSONL document (blank lines skipped). Returns
    /// per-record-type counts, or the first error with its line number.
    ///
    /// Beyond per-line field checks, `timeseries` and `health_event`
    /// records are streams: within one `(run, comp, inst[, name])`
    /// stream, sim timestamps must be non-decreasing and window ids
    /// strictly increasing — out-of-order telemetry means a producer
    /// leaked wall-clock or thread-scheduling order into the dump.
    /// Guardian journals are streams too: within one `run`, decision
    /// `seq` must be strictly increasing (a gap or repeat means a
    /// journal was truncated or stitched wrong) and `t_ps` must be
    /// non-decreasing.
    pub fn validate(&self, text: &str) -> Result<Vec<(String, usize)>, String> {
        let mut v = self.validator();
        for line in text.lines() {
            v.feed(line)?;
        }
        v.finish()
    }

    /// An incremental validator over the same rules as
    /// [`Schema::validate`], for line-at-a-time callers (`obs_validate`
    /// streams multi-hundred-MB dumps through one of these with O(1)
    /// memory in the file size).
    pub fn validator(&self) -> Validator<'_> {
        Validator {
            schema: self,
            scanner: Scanner::default(),
            slots: Slots::default(),
            counts: Vec::new(),
            streams: Streams::default(),
            line_no: 0,
        }
    }
}

/// Incremental state of one document validation: per-type counts plus
/// the last `(t_ps, window_id)` of every telemetry stream seen. Memory
/// is O(record types + streams), independent of document length, and a
/// line that adds neither costs no allocation: it is scanned in place,
/// its fields found in one walk into a reused slot array, and its
/// stream found through a reused key buffer.
#[derive(Debug)]
pub struct Validator<'a> {
    schema: &'a Schema,
    scanner: Scanner,
    slots: Slots,
    /// `(plan index, count)` per record type, in first-seen order.
    counts: Vec<(usize, usize)>,
    streams: Streams,
    line_no: usize,
}

impl Validator<'_> {
    /// Validate the next line (blank lines count toward line numbers
    /// but are otherwise skipped). Errors are prefixed `line N:`.
    pub fn feed(&mut self, line: &str) -> Result<(), String> {
        self.line_no += 1;
        if line.trim().is_empty() {
            return Ok(());
        }
        let n = self.line_no;
        let v = self
            .scanner
            .scan(line)
            .map_err(|e| format!("line {n}: not valid JSON: {e}"))?;
        let (p, found) = self
            .schema
            .check_fields(v, &mut self.slots)
            .map_err(|e| format!("line {n}: {e}"))?;
        let plan = &self.schema.plans[p];
        if let Some(stream) = &plan.stream {
            self.streams
                .check_order(&plan.ty, &found, stream)
                .map_err(|e| format!("line {n}: {e}"))?;
        }
        match self.counts.iter_mut().find(|(q, _)| *q == p) {
            Some((_, c)) => *c += 1,
            None => self.counts.push((p, 1)),
        }
        Ok(())
    }

    /// Final per-record-type counts; an empty document is an error.
    pub fn finish(self) -> Result<Vec<(String, usize)>, String> {
        if self.counts.is_empty() {
            return Err("no records found".into());
        }
        let plans = &self.schema.plans;
        Ok(self
            .counts
            .into_iter()
            .map(|(p, c)| (plans[p].ty.clone(), c))
            .collect())
    }
}

/// FxHash, rustc's hasher: a rotate, xor and multiply per 8-byte word.
/// The stream map is never iterated, so its hash reaches no output, and
/// the keys are a dump's own stream names, not a network peer's.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.add(u64::from(b));
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes by the low ones.
        self.0.rotate_left(26)
    }
}

/// The last `(t_ps, window_id or seq)` of every stream seen, keyed
/// `ty|run|comp|inst|name` (`guard_event|run` for journals).
#[derive(Debug, Default)]
struct Streams {
    last: HashMap<String, (u64, u64), BuildHasherDefault<FxHasher>>,
    /// The current line's key, rebuilt in place.
    key: String,
}

impl Streams {
    /// Enforce per-stream ordering: within the stream named by `ty` and
    /// the record's key fields, `t_ps` must not go back and the counter
    /// (`window_id`, or a journal's `seq`) must strictly increase.
    fn check_order(&mut self, ty: &str, f: &Found<'_, '_>, s: &StreamPlan) -> Result<(), String> {
        let key = &mut self.key;
        key.clear();
        key.push_str(ty);
        for &i in &s.key {
            key.push('|');
            if let Some(text) = f.get(i).and_then(|x| x.as_str()) {
                key.push_str(&text);
            }
        }
        let num = |i: usize| f.get(i).and_then(|x| x.as_num()).unwrap_or(0.0) as u64;
        let (t_ps, count, counter) = (num(s.t_ps), num(s.counter), s.counter_name);
        match self.last.get_mut(key.as_str()) {
            Some((last_t, last_count)) => {
                if t_ps < *last_t {
                    return Err(format!(
                        "record type \"{ty}\": stream {key:?}: out-of-order t_ps {t_ps} after {last_t}"
                    ));
                }
                if count <= *last_count {
                    return Err(format!(
                        "record type \"{ty}\": stream {key:?}: non-monotone {counter} {count} after {last_count}"
                    ));
                }
                *last_t = t_ps;
                *last_count = count;
            }
            None => {
                self.last.insert(key.clone(), (t_ps, count));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// A schema whose `validate` is checked against the reference
    /// validator on the way.
    struct Checked(Schema, reference::Schema);

    impl Checked {
        fn parse(text: &str) -> Result<Checked, String> {
            Ok(Checked(
                Schema::parse(text)?,
                reference::Schema::parse(text)?,
            ))
        }

        fn validate(&self, doc: &str) -> Result<Vec<(String, usize)>, String> {
            let got = self.0.validate(doc);
            let mut r = self.1.validator();
            let want = doc
                .lines()
                .try_for_each(|l| r.feed(l))
                .and_then(|_| r.finish());
            assert_eq!(got, want, "{doc}");
            got
        }

        fn validate_line(&self, line: &str) -> Result<String, String> {
            let got = self.0.validate_line(line);
            assert_eq!(got, self.1.validate_line(line), "{line}");
            got
        }
    }

    const SCHEMA: &str = r#"{
        "version": 1,
        "records": {
            "meta": { "required": { "schema": "number", "bin": "string" } },
            "metric": { "required": { "t_ps": "number", "comp": "string", "inst": "string" } }
        }
    }"#;

    #[test]
    fn accepts_conforming_lines() {
        let s = Checked::parse(SCHEMA).unwrap();
        let doc = "\
{\"type\":\"meta\",\"schema\":1,\"bin\":\"fig10\"}\n\
{\"type\":\"metric\",\"t_ps\":5,\"comp\":\"port\",\"inst\":\"sw_tx:0\",\"counters\":{}}\n";
        let counts = s.validate(doc).unwrap();
        assert_eq!(counts, vec![("meta".into(), 1), ("metric".into(), 1)]);
    }

    #[test]
    fn rejects_bad_lines() {
        let s = Checked::parse(SCHEMA).unwrap();
        assert!(s.validate_line("{\"type\":\"bogus\"}").is_err());
        assert!(s
            .validate_line("{\"type\":\"metric\",\"t_ps\":\"five\",\"comp\":\"x\",\"inst\":\"y\"}")
            .unwrap_err()
            .contains("want number"));
        assert!(s.validate_line("{\"no_type\":1}").is_err());
        assert!(s.validate("").is_err(), "empty doc is an error");
        let err = s.validate("{\"type\":\"meta\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    const TS_SCHEMA: &str = r#"{
        "version": 2,
        "records": {
            "timeseries": { "required": { "t_ps": "number", "window_id": "number", "run": "string", "comp": "string", "inst": "string", "name": "string", "value": "number" } },
            "health_event": { "required": { "t_ps": "number", "window_id": "number", "run": "string", "comp": "string", "inst": "string", "from": "string", "to": "string", "rate": "number" } }
        }
    }"#;

    fn ts(t: u64, w: u64, inst: &str) -> String {
        format!(
            "{{\"type\":\"timeseries\",\"t_ps\":{t},\"window_id\":{w},\"run\":\"r\",\"comp\":\"c\",\"inst\":\"{inst}\",\"name\":\"q\",\"value\":1.5}}"
        )
    }

    #[test]
    fn accepts_ordered_telemetry_streams() {
        let s = Checked::parse(TS_SCHEMA).unwrap();
        // two interleaved streams, each internally ordered
        let doc = [ts(10, 1, "a"), ts(5, 1, "b"), ts(20, 2, "a"), ts(5, 2, "b")].join("\n");
        let counts = s.validate(&doc).unwrap();
        assert_eq!(counts, vec![("timeseries".into(), 4)]);
    }

    #[test]
    fn rejects_out_of_order_timestamps() {
        let s = Checked::parse(TS_SCHEMA).unwrap();
        let doc = [ts(20, 1, "a"), ts(10, 2, "a")].join("\n");
        let err = s.validate(&doc).unwrap_err();
        assert!(err.contains("out-of-order t_ps"), "{err}");
        // The error pins the first failing line and names the stream,
        // not just the record type.
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("\"timeseries|r|c|a|q\""), "{err}");
    }

    const GUARD_SCHEMA: &str = r#"{
        "version": 3,
        "records": {
            "guard_event": { "required": { "t_ps": "number", "seq": "number", "run": "string", "link": "number", "action": "string", "rate": "number" } }
        }
    }"#;

    fn ge(t: u64, seq: u64, run: &str) -> String {
        format!(
            "{{\"type\":\"guard_event\",\"t_ps\":{t},\"seq\":{seq},\"run\":\"{run}\",\"link\":3,\"action\":\"enable\",\"rate\":1e-3}}"
        )
    }

    #[test]
    fn guard_journals_are_per_run_seq_ordered() {
        let s = Checked::parse(GUARD_SCHEMA).unwrap();
        // interleaved runs, each with its own strictly-increasing seq
        let ok = [ge(10, 1, "a"), ge(5, 1, "b"), ge(10, 2, "a")].join("\n");
        assert_eq!(s.validate(&ok).unwrap(), vec![("guard_event".into(), 3)]);
        let dup = [ge(10, 1, "a"), ge(20, 1, "a")].join("\n");
        let err = s.validate(&dup).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("non-monotone seq"), "{err}");
        let back = [ge(20, 1, "a"), ge(10, 2, "a")].join("\n");
        let err = s.validate(&back).unwrap_err();
        assert!(err.contains("out-of-order t_ps"), "{err}");
    }

    #[test]
    fn rejects_non_monotone_window_ids() {
        let s = Checked::parse(TS_SCHEMA).unwrap();
        let doc = [ts(10, 2, "a"), ts(20, 2, "a")].join("\n");
        let err = s.validate(&doc).unwrap_err();
        assert!(err.contains("non-monotone window_id"), "{err}");
        let he = |t: u64, w: u64| {
            format!(
                "{{\"type\":\"health_event\",\"t_ps\":{t},\"window_id\":{w},\"run\":\"r\",\"comp\":\"c\",\"inst\":\"l\",\"from\":\"healthy\",\"to\":\"degraded\",\"rate\":0.001}}"
            )
        };
        let doc = [he(10, 3), he(20, 1)].join("\n");
        assert!(s.validate(&doc).is_err(), "health_event ordering enforced");
    }

    #[test]
    fn refuses_field_types_no_value_has() {
        let schema = |required: &str| {
            Schema::parse(&format!(
                "{{\"records\":{{\"meta\":{{}},\"metric\":{{\"required\":{required}}}}}}}"
            ))
            .map(|_| ())
        };
        assert_eq!(
            schema("{\"t_ps\":\"integer\"}"),
            Err(
                "record metric: field t_ps: unknown type \"integer\" (want null, boolean, \
                 number, string, array or object)"
                    .into()
            )
        );
        assert_eq!(
            schema("{\"t_ps\":3}"),
            Err("record metric: field t_ps: type not a string".into())
        );
        assert_eq!(
            schema("[\"t_ps\"]"),
            Err("record metric: \"required\" is array (want object)".into())
        );
        assert_eq!(
            schema("\"t_ps\""),
            Err("record metric: \"required\" is string (want object)".into())
        );
        for ty in ["null", "boolean", "number", "string", "array", "object"] {
            assert_eq!(schema(&format!("{{\"x\":\"{ty}\"}}")), Ok(()), "{ty}");
        }
        // A record without "required" is still a record with no fields.
        let s = Checked::parse("{\"records\":{\"meta\":{}}}").unwrap();
        assert_eq!(s.validate_line("{\"type\":\"meta\"}"), Ok("meta".into()));
        let null = Checked::parse("{\"records\":{\"m\":{\"required\":{\"x\":\"null\"}}}}").unwrap();
        assert_eq!(
            null.validate_line("{\"type\":\"m\",\"x\":null}"),
            Ok("m".into())
        );
        assert!(null.validate_line("{\"type\":\"m\",\"x\":0}").is_err());
    }

    #[test]
    fn duplicate_and_escaped_keys_read_like_get() {
        let s = Checked::parse(TS_SCHEMA).unwrap();
        // The first `value` is a string, the last (escaped) a number:
        // the line passes only if the last spelling wins.
        let line = "{\"type\":\"timeseries\",\"value\":\"x\",\"t_ps\":1,\"window_id\":1,\
                    \"run\":\"r\",\"comp\":\"c\",\"inst\":\"i\",\"name\":\"q\",\"v\\u0061lue\":2}";
        assert_eq!(s.validate_line(line), Ok("timeseries".into()));
        let flipped = line
            .replace("\"value\":\"x\"", "\"value\":1")
            .replace(":2}", ":\"x\"}");
        assert_eq!(
            s.validate_line(&flipped),
            Err("record type \"timeseries\": field \"value\" is string (want number)".into())
        );
        // Stream keys follow the same rule: the escaped `inst` names the stream.
        let doc = [
            ts(10, 1, "a"),
            ts(5, 1, "b").replace("\"inst\"", "\"\\u0069nst\""),
        ]
        .join("\n");
        assert_eq!(s.validate(&doc), Ok(vec![("timeseries".into(), 2)]));
        let doc = [
            ts(10, 1, "a"),
            ts(5, 1, "a").replace("\"inst\"", "\"\\u0069nst\""),
        ]
        .join("\n");
        assert!(s
            .validate(&doc)
            .unwrap_err()
            .contains("stream \"timeseries|r|c|a|q\""));
    }
}
