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
//! present with the declared primitive type (`"number"`, `"string"`,
//! `"boolean"`, `"object"`, `"array"`).

use crate::json::{parse, JsonValue, Scanned, Scanner};
use std::borrow::Cow;
use std::collections::HashMap;

/// A loaded schema.
#[derive(Debug)]
pub struct Schema {
    records: Vec<(String, Vec<(String, String)>)>,
}

impl Schema {
    /// Parse a schema document.
    pub fn parse(text: &str) -> Result<Schema, String> {
        let doc = parse(text).map_err(|e| format!("schema is not valid JSON: {e}"))?;
        let records = match doc.get("records") {
            Some(JsonValue::Obj(m)) => m,
            _ => return Err("schema missing \"records\" object".into()),
        };
        let mut out = Vec::new();
        for (ty, spec) in records {
            let mut reqs = Vec::new();
            if let Some(JsonValue::Obj(fields)) = spec.get("required") {
                for (field, want) in fields {
                    let want = want
                        .as_str()
                        .ok_or_else(|| format!("record {ty}: field {field}: type not a string"))?;
                    reqs.push((field.clone(), want.to_string()));
                }
            }
            out.push((ty.clone(), reqs));
        }
        Ok(Schema { records: out })
    }

    fn spec(&self, ty: &str) -> Option<&[(String, String)]> {
        self.records
            .iter()
            .find(|(t, _)| t == ty)
            .map(|(_, r)| r.as_slice())
    }

    /// Validate one JSONL line. Returns the record type on success.
    pub fn validate_line(&self, line: &str) -> Result<String, String> {
        let mut scanner = Scanner::default();
        let v = scanner
            .scan(line)
            .map_err(|e| format!("not valid JSON: {e}"))?;
        self.check_fields(v).map(Cow::into_owned)
    }

    /// Check a scanned line's `type` and required fields; returns the
    /// record type, borrowed from the line.
    fn check_fields<'a>(&self, v: Scanned<'a>) -> Result<Cow<'a, str>, String> {
        let ty = v
            .get("type")
            .and_then(|t| t.as_str())
            .ok_or("missing \"type\" string field")?;
        let spec = self
            .spec(&ty)
            .ok_or_else(|| format!("unknown record type \"{ty}\""))?;
        for (field, want) in spec {
            let got = v
                .get(field)
                .ok_or_else(|| format!("record type \"{ty}\": missing field \"{field}\""))?;
            if got.type_name() != want {
                return Err(format!(
                    "record type \"{ty}\": field \"{field}\" is {} (want {want})",
                    got.type_name()
                ));
            }
        }
        Ok(ty)
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
            counts: Vec::new(),
            streams: Streams::default(),
            line_no: 0,
        }
    }
}

/// Incremental state of one document validation: per-type counts plus
/// the last `(t_ps, window_id)` of every telemetry stream seen. Memory
/// is O(record types + streams), independent of document length, and a
/// line that adds neither costs no allocation: it is scanned in place
/// and its stream found through a reused key buffer.
#[derive(Debug)]
pub struct Validator<'a> {
    schema: &'a Schema,
    scanner: Scanner,
    /// Per-type counts, in first-seen order.
    counts: Vec<(String, usize)>,
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
        let ty = self
            .schema
            .check_fields(v)
            .map_err(|e| format!("line {n}: {e}"))?;
        let stream = match &*ty {
            "timeseries" | "health_event" => {
                Some((&["run", "comp", "inst", "name"][..], "window_id"))
            }
            "guard_event" => Some((&["run"][..], "seq")),
            _ => None,
        };
        if let Some((key_fields, counter)) = stream {
            self.streams
                .check_order(&ty, v, key_fields, counter)
                .map_err(|e| format!("line {n}: {e}"))?;
        }
        match self.counts.iter_mut().find(|(t, _)| *t == *ty) {
            Some((_, c)) => *c += 1,
            None => self.counts.push((ty.into_owned(), 1)),
        }
        Ok(())
    }

    /// Final per-record-type counts; an empty document is an error.
    pub fn finish(self) -> Result<Vec<(String, usize)>, String> {
        if self.counts.is_empty() {
            return Err("no records found".into());
        }
        Ok(self.counts)
    }
}

/// The last `(t_ps, window_id or seq)` of every stream seen, keyed
/// `ty|run|comp|inst|name` (`guard_event|run` for journals).
#[derive(Debug, Default)]
struct Streams {
    last: HashMap<String, (u64, u64)>,
    /// The current line's key, rebuilt in place.
    key: String,
}

impl Streams {
    /// Enforce per-stream ordering: within the stream named by `ty` and
    /// the record's `key_fields`, `t_ps` must not go back and `counter`
    /// (`window_id`, or a journal's `seq`) must strictly increase.
    fn check_order(
        &mut self,
        ty: &str,
        v: Scanned<'_>,
        key_fields: &[&str],
        counter: &str,
    ) -> Result<(), String> {
        let key = &mut self.key;
        key.clear();
        key.push_str(ty);
        for field in key_fields {
            key.push('|');
            if let Some(s) = v.get(field).and_then(|f| f.as_str()) {
                key.push_str(&s);
            }
        }
        let field_num = |name: &str| v.get(name).and_then(|f| f.as_num()).unwrap_or(0.0) as u64;
        let (t_ps, count) = (field_num("t_ps"), field_num(counter));
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
mod tests {
    use super::*;

    const SCHEMA: &str = r#"{
        "version": 1,
        "records": {
            "meta": { "required": { "schema": "number", "bin": "string" } },
            "metric": { "required": { "t_ps": "number", "comp": "string", "inst": "string" } }
        }
    }"#;

    #[test]
    fn accepts_conforming_lines() {
        let s = Schema::parse(SCHEMA).unwrap();
        let doc = "\
{\"type\":\"meta\",\"schema\":1,\"bin\":\"fig10\"}\n\
{\"type\":\"metric\",\"t_ps\":5,\"comp\":\"port\",\"inst\":\"sw_tx:0\",\"counters\":{}}\n";
        let counts = s.validate(doc).unwrap();
        assert_eq!(counts, vec![("meta".into(), 1), ("metric".into(), 1)]);
    }

    #[test]
    fn rejects_bad_lines() {
        let s = Schema::parse(SCHEMA).unwrap();
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
        let s = Schema::parse(TS_SCHEMA).unwrap();
        // two interleaved streams, each internally ordered
        let doc = [ts(10, 1, "a"), ts(5, 1, "b"), ts(20, 2, "a"), ts(5, 2, "b")].join("\n");
        let counts = s.validate(&doc).unwrap();
        assert_eq!(counts, vec![("timeseries".into(), 4)]);
    }

    #[test]
    fn rejects_out_of_order_timestamps() {
        let s = Schema::parse(TS_SCHEMA).unwrap();
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
        let s = Schema::parse(GUARD_SCHEMA).unwrap();
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
        let s = Schema::parse(TS_SCHEMA).unwrap();
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
}
