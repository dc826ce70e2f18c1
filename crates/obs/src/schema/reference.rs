//! The per-field validator that [`Schema`](super::Schema)'s compiled
//! plans replaced, kept as the differential oracle: `tests/validator_diff.rs`
//! includes this file and demands that the compiled validator accept and
//! reject every generated line exactly as this does, with the same words.
//! Each required field is its own `Scanned::get` walk, field types are
//! compared as strings, and stream state is a `String`-keyed
//! (SipHash) map. It is not part of the shipped library.

use super::{parse, JsonValue, Scanned, Scanner};
use std::borrow::Cow;
use std::collections::HashMap;

/// A loaded schema: record type -> required `(field, type name)`s.
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

    /// An incremental validator.
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

/// Incremental state of one document validation.
#[derive(Debug)]
pub struct Validator<'a> {
    schema: &'a Schema,
    scanner: Scanner,
    counts: Vec<(String, usize)>,
    streams: Streams,
    line_no: usize,
}

impl Validator<'_> {
    /// Validate the next line. Errors are prefixed `line N:`.
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

#[derive(Debug, Default)]
struct Streams {
    last: HashMap<String, (u64, u64)>,
    key: String,
}

impl Streams {
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
