//! Hand-written JSON line writer and single-pass reader.
//!
//! The vendored `compat/serde` is a no-op marker-trait stand-in (nothing
//! is ever actually serialized through it), so the observability layer
//! writes its JSONL by hand and reads it back with its own scanner.
//! Output is deterministic: keys are written in insertion order, floats
//! use Rust's shortest-roundtrip `Display`, and nothing
//! platform-dependent enters the stream.
//!
//! Reading is one pass over a line's bytes ([`Scanner`]): the whole
//! value is validated and its fields recorded as offsets into the line,
//! so a per-line tool reads `&str` and `f64` fields in place and a flat
//! record costs no heap traffic. [`parse`] builds the owned
//! [`JsonValue`] tree from the same scan, for documents (the schema
//! file, snapshots, benchmark records).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Incremental builder for one JSON object on one line.
#[derive(Debug)]
pub struct JsonLine {
    buf: String,
    first: bool,
}

impl JsonLine {
    /// Start an object: `{`.
    pub fn new() -> JsonLine {
        JsonLine {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_escaped(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        write_escaped(&mut self.buf, v);
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a float field. Non-finite values are emitted as `null` (JSON
    /// has no NaN/Inf).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            // Shortest-roundtrip Display, but always mark it as a float so
            // parsers on the other side see a stable type.
            if v == v.trunc() && v.abs() < 1e15 {
                let _ = write!(self.buf, "{v:.1}");
            } else {
                let _ = write!(self.buf, "{v}");
            }
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a field whose value is already-rendered JSON.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Add a field holding an array of objects. `each` writes one
    /// element's fields through this same builder, so nested arrays
    /// (and arrays inside those) append to the one line buffer.
    pub fn objects<T>(
        &mut self,
        k: &str,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut JsonLine, T),
    ) -> &mut Self {
        self.key(k);
        self.buf.push('[');
        for (i, item) in items.into_iter().enumerate() {
            self.buf.push_str(if i == 0 { "{" } else { ",{" });
            self.first = true;
            each(self, item);
            self.buf.push('}');
        }
        self.buf.push(']');
        self.first = false;
        self
    }

    /// Close the object and return the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonLine {
    fn default() -> Self {
        JsonLine::new()
    }
}

/// Write `s` as a JSON string literal, escaping as needed.
pub fn write_escaped(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. `BTreeMap` so lookups are by key; duplicate keys keep
    /// the last occurrence (like every mainstream parser).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object field lookup (None for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Name of this value's JSON type (for validation error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => JsonType::Null,
            JsonValue::Bool(_) => JsonType::Boolean,
            JsonValue::Num(_) => JsonType::Number,
            JsonValue::Str(_) => JsonType::String,
            JsonValue::Arr(_) => JsonType::Array,
            JsonValue::Obj(_) => JsonType::Object,
        }
        .name()
    }
}

/// The six JSON value types, by the names a schema declares them with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonType {
    /// `null`.
    Null,
    /// `true` / `false`.
    Boolean,
    /// Any number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

impl JsonType {
    const ALL: [JsonType; 6] = [
        JsonType::Null,
        JsonType::Boolean,
        JsonType::Number,
        JsonType::String,
        JsonType::Array,
        JsonType::Object,
    ];

    /// The type's name: `"null"`, `"boolean"`, `"number"`, `"string"`,
    /// `"array"` or `"object"`.
    pub fn name(self) -> &'static str {
        match self {
            JsonType::Null => "null",
            JsonType::Boolean => "boolean",
            JsonType::Number => "number",
            JsonType::String => "string",
            JsonType::Array => "array",
            JsonType::Object => "object",
        }
    }

    /// The type [`JsonType::name`] calls `name`, if any.
    pub fn from_name(name: &str) -> Option<JsonType> {
        JsonType::ALL.into_iter().find(|t| t.name() == name)
    }
}

/// Parse one JSON document into an owned tree. Returns a message with a
/// byte offset on error. This is the *document* API (schema file,
/// snapshots, benchmark records); per-line readers hold a [`Scanner`]
/// and read fields in place. The tree is built from the same scan, so
/// there is one implementation of the grammar.
pub fn parse(s: &str) -> Result<JsonValue, String> {
    Scanner::default().scan(s).map(|v| v.to_value())
}

/// Deepest container nesting [`Scanner::scan`] accepts. Our writers
/// never nest deeper than 3; the bound keeps a hostile line from
/// overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Byte range of a string's contents (between its quotes) in the
/// scanned text, and whether it holds a backslash.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: usize,
    end: usize,
    escaped: bool,
}

#[derive(Debug, Clone, Copy)]
enum Val {
    Null,
    Bool(bool),
    Num(f64),
    Str(Span),
    Arr,
    Obj,
}

/// One scanned value. Nodes sit in document order, so a container's
/// members are the nodes from the one after it up to `end`.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The member name, for a value inside an object.
    key: Span,
    val: Val,
    /// Index one past this value's last descendant.
    end: usize,
}

/// A reusable single-pass JSON reader. [`Scanner::scan`] validates a
/// whole document and records its values as offsets into the text, in
/// a node buffer that is reused from one scan to the next: a flat
/// record costs no heap traffic once the buffer has grown to its
/// field count.
#[derive(Debug, Default)]
pub struct Scanner {
    nodes: Vec<Node>,
}

impl Scanner {
    /// Scan one JSON document. The returned view borrows both the text
    /// and this scanner, so it lives until the next `scan`. Errors are
    /// a message with a byte offset.
    pub fn scan<'a>(&'a mut self, src: &'a str) -> Result<Scanned<'a>, String> {
        self.nodes.clear();
        let mut c = Cursor {
            src,
            b: src.as_bytes(),
            pos: 0,
            depth: 0,
            nodes: &mut self.nodes,
        };
        c.skip_ws();
        c.value(Span::default())?;
        c.skip_ws();
        if c.pos != c.b.len() {
            return Err(format!("trailing garbage at byte {}", c.pos));
        }
        Ok(Scanned {
            src,
            nodes: &self.nodes,
            at: 0,
        })
    }
}

struct Cursor<'a> {
    src: &'a str,
    b: &'a [u8],
    pos: usize,
    depth: usize,
    nodes: &'a mut Vec<Node>,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn push(&mut self, key: Span, val: Val) {
        let end = self.nodes.len() + 1;
        self.nodes.push(Node { key, val, end });
    }

    fn value(&mut self, key: Span) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.container(key, Val::Obj, b'}'),
            Some(b'[') => self.container(key, Val::Arr, b']'),
            Some(b'"') => {
                let s = self.string()?;
                self.push(key, Val::Str(s));
                Ok(())
            }
            Some(b't') => self.lit("true", key, Val::Bool(true)),
            Some(b'f') => self.lit("false", key, Val::Bool(false)),
            Some(b'n') => self.lit("null", key, Val::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(key),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn lit(&mut self, word: &str, key: Span, val: Val) -> Result<(), String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            self.push(key, val);
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self, key: Span) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        let n = text
            .parse::<f64>()
            .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
        self.push(key, Val::Num(n));
        Ok(())
    }

    fn string(&mut self) -> Result<Span, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let (end, escaped) = string_body(self.src, start, None)?;
        self.pos = end + 1;
        Ok(Span {
            start,
            end,
            escaped,
        })
    }

    /// An object or an array: the opening bracket is at `pos`.
    fn container(&mut self, key: Span, val: Val, close: u8) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        let at = self.nodes.len();
        self.push(key, val);
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let mut member = Span::default();
                if close == b'}' {
                    member = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                }
                self.value(member)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => {
                        return Err(format!(
                            "expected ',' or '{}' at byte {}",
                            close as char, self.pos
                        ))
                    }
                }
            }
        }
        self.depth -= 1;
        self.nodes[at].end = self.nodes.len();
        Ok(())
    }
}

/// Walk a string's contents from just after the opening quote to the
/// closing one, checking every escape; with `out`, also append the
/// unescaped text. Returns the closing quote's offset and whether a
/// backslash was seen. The only reader of the string grammar: `scan`
/// calls it to validate, [`Scanned::as_str`] to unescape.
fn string_body(
    src: &str,
    mut pos: usize,
    mut out: Option<&mut String>,
) -> Result<(usize, bool), String> {
    let b = src.as_bytes();
    let mut escaped = false;
    loop {
        // `"` and `\` are ASCII, so a run between them is whole chars.
        let run = pos;
        while b.get(pos).is_some_and(|&c| c != b'"' && c != b'\\') {
            pos += 1;
        }
        if let Some(out) = out.as_deref_mut() {
            out.push_str(&src[run..pos]);
        }
        match b.get(pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => return Ok((pos, escaped)),
            Some(_) => {
                escaped = true;
                pos += 1;
                let c = match b.get(pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => {
                        let hi = hex4(b, pos + 1)?;
                        pos += 4;
                        // A surrogate pair is one scalar; a lone
                        // surrogate reads as the replacement char.
                        let lo = match (hi, b.get(pos + 1..pos + 3)) {
                            (0xd800..=0xdbff, Some(b"\\u")) => hex4(b, pos + 3).ok(),
                            _ => None,
                        };
                        match lo {
                            Some(lo @ 0xdc00..=0xdfff) => {
                                pos += 6;
                                char::from_u32(0x1_0000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))
                                    .expect("a surrogate pair is a scalar")
                            }
                            _ => char::from_u32(hi).unwrap_or('\u{fffd}'),
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                };
                if let Some(out) = out.as_deref_mut() {
                    out.push(c);
                }
                pos += 1;
            }
        }
    }
}

/// The four hex digits of a `\u` escape, starting at `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits.iter().try_fold(0u32, |acc, &d| {
        (d as char)
            .to_digit(16)
            .map(|v| acc * 16 + v)
            .ok_or_else(|| "bad \\u escape".to_string())
    })
}

/// A value inside a scanned document: a cursor into the scanner's node
/// buffer plus the text the nodes point into. `Copy`, and valid until
/// the scanner's next `scan`.
#[derive(Debug, Clone, Copy)]
pub struct Scanned<'a> {
    src: &'a str,
    nodes: &'a [Node],
    at: usize,
}

impl<'a> Scanned<'a> {
    fn node(&self) -> &'a Node {
        &self.nodes[self.at]
    }

    /// A string's text: a slice of the scanned line unless it holds a
    /// backslash, and only then unescaped into an owned copy.
    fn text(&self, s: Span) -> Cow<'a, str> {
        if !s.escaped {
            return Cow::Borrowed(&self.src[s.start..s.end]);
        }
        let mut out = String::with_capacity(s.end - s.start);
        string_body(self.src, s.start, Some(&mut out)).expect("validated by scan");
        Cow::Owned(out)
    }

    /// The values directly inside this array or object, in document
    /// order (none for a scalar).
    fn children(&self) -> Children<'a> {
        Children {
            next: Scanned {
                at: self.at + 1,
                ..*self
            },
            end: self.node().end,
        }
    }

    /// Object field lookup (None for non-objects / missing keys);
    /// duplicate keys keep the last occurrence. One walk per call: a
    /// reader of several fields asks [`Scanned::fields`] or
    /// [`Scanned::fill`] for all of them at once.
    pub fn get(&self, key: &str) -> Option<Scanned<'a>> {
        if !matches!(self.node().val, Val::Obj) {
            return None;
        }
        let (src, want) = (self.src.as_bytes(), key.as_bytes());
        self.children()
            .filter(|c| {
                let k = c.node().key;
                if k.escaped {
                    c.text(k) == key
                } else {
                    // Length first: most misses cost no byte compare.
                    k.end - k.start == want.len() && src[k.start..k.end] == *want
                }
            })
            .last()
    }

    /// The one member walk behind [`Scanned::fields`] and
    /// [`Scanned::fill`], under `get`'s rules: members are offered in
    /// document order, so a later duplicate overwrites an earlier one
    /// (the last wins), and an escaped name is matched by its unescaped
    /// text. `slot_of` names the slot a member name goes to, if any.
    fn walk(
        &self,
        slot_of: impl Fn(&[u8]) -> Option<usize>,
        mut put: impl FnMut(usize, Scanned<'a>),
    ) {
        if !matches!(self.node().val, Val::Obj) {
            return;
        }
        let src = self.src.as_bytes();
        for c in self.children() {
            let k = c.node().key;
            let slot = if k.escaped {
                slot_of(c.text(k).as_bytes())
            } else {
                slot_of(&src[k.start..k.end])
            };
            if let Some(i) = slot {
                put(i, c);
            }
        }
    }

    /// Several fields of this object in one walk over its members:
    /// slot `i` is what `get(names[i])` returns (None for a non-object).
    /// `names` must be distinct.
    pub fn fields<const N: usize>(&self, names: &[&str; N]) -> [Option<Scanned<'a>>; N] {
        debug_assert!(
            (0..N).all(|i| !names[..i].contains(&names[i])),
            "duplicate name in {names:?}"
        );
        let tags = names.map(|n| tag(n.as_bytes()));
        let mut out = [None; N];
        self.walk(
            |key| {
                let t = tag(key);
                (0..N).find(|&i| tags[i] == t && names[i].as_bytes() == key)
            },
            |i, c| out[i] = Some(c),
        );
        out
    }

    /// [`Scanned::fields`] for a name set only known at run time (a
    /// schema's): one walk fills `slots`, and the returned view reads
    /// slot `i` as `get(names.name(i))` would.
    pub fn fill<'s>(&self, names: &Names, slots: &'s mut Slots) -> Found<'a, 's> {
        slots.at.clear();
        slots.at.resize(names.len(), 0);
        self.walk(|key| names.slot(key), |i, c| slots.at[i] = c.at);
        Found { of: *self, slots }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<Cow<'a, str>> {
        match self.node().val {
            Val::Str(s) => Some(self.text(s)),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self.node().val {
            Val::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The boolean payload, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self.node().val {
            Val::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<impl Iterator<Item = Scanned<'a>>> {
        matches!(self.node().val, Val::Arr).then(|| self.children())
    }

    /// A required numeric field of this object.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        number(self.get(key), key)
    }

    /// A required string field of this object.
    pub fn str(&self, key: &str) -> Result<Cow<'a, str>, String> {
        string(self.get(key), key)
    }

    /// This value's JSON type.
    pub fn json_type(&self) -> JsonType {
        match self.node().val {
            Val::Null => JsonType::Null,
            Val::Bool(_) => JsonType::Boolean,
            Val::Num(_) => JsonType::Number,
            Val::Str(_) => JsonType::String,
            Val::Arr => JsonType::Array,
            Val::Obj => JsonType::Object,
        }
    }

    /// Name of this value's JSON type (for validation error messages).
    pub fn type_name(&self) -> &'static str {
        self.json_type().name()
    }

    /// Copy this value out into an owned tree.
    pub fn to_value(&self) -> JsonValue {
        match self.node().val {
            Val::Null => JsonValue::Null,
            Val::Bool(b) => JsonValue::Bool(b),
            Val::Num(n) => JsonValue::Num(n),
            Val::Str(s) => JsonValue::Str(self.text(s).into_owned()),
            Val::Arr => JsonValue::Arr(self.children().map(|c| c.to_value()).collect()),
            Val::Obj => {
                let mut map = BTreeMap::new();
                for c in self.children() {
                    map.insert(c.text(c.node().key).into_owned(), c.to_value());
                }
                JsonValue::Obj(map)
            }
        }
    }
}

/// The required numeric field `key`, given what [`Scanned::fields`]
/// found for it; the error reads as [`Scanned::num`]'s.
pub fn number(field: Option<Scanned<'_>>, key: &str) -> Result<f64, String> {
    field
        .and_then(|f| f.as_num())
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// The required string field `key`, given what [`Scanned::fields`]
/// found for it; the error reads as [`Scanned::str`]'s.
pub fn string<'a>(field: Option<Scanned<'a>>, key: &str) -> Result<Cow<'a, str>, String> {
    field
        .and_then(|f| f.as_str())
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// A member name's prefilter: its length and first and last bytes. Two
/// names of one set rarely share a tag, so a miss costs an integer
/// compare, not a byte compare.
fn tag(name: &[u8]) -> u32 {
    match (name.first(), name.last()) {
        (Some(&first), Some(&last)) => {
            (name.len().min(0xffff) as u32) << 16 | u32::from(first) << 8 | u32::from(last)
        }
        _ => 0,
    }
}

/// A set of distinct member names, compiled once for [`Scanned::fill`];
/// slot `i` is the `i`-th name given to [`Names::new`].
#[derive(Debug, Clone, Default)]
pub struct Names {
    tags: Vec<u32>,
    names: Vec<Box<str>>,
}

impl Names {
    /// Compile `names`, which must be distinct.
    pub fn new<S: AsRef<str>>(names: impl IntoIterator<Item = S>) -> Names {
        let names: Vec<Box<str>> = names.into_iter().map(|n| n.as_ref().into()).collect();
        debug_assert!(
            (0..names.len()).all(|i| !names[..i].contains(&names[i])),
            "duplicate name in {names:?}"
        );
        Names {
            tags: names.iter().map(|n| tag(n.as_bytes())).collect(),
            names,
        }
    }

    /// Number of names (slots).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name in slot `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// The slot of `key`, if it is one of the names.
    pub fn slot(&self, key: &[u8]) -> Option<usize> {
        let t = tag(key);
        (0..self.tags.len()).find(|&i| self.tags[i] == t && self.names[i].as_bytes() == key)
    }
}

/// Where [`Scanned::fill`] found each name of a [`Names`], kept as node
/// positions so the buffer outlives the line and is reused: a fill
/// allocates nothing once it has grown to the widest set.
#[derive(Debug, Default)]
pub struct Slots {
    /// Node index per slot; 0 (the document's root, never a member) is
    /// "absent".
    at: Vec<usize>,
}

/// One [`Scanned::fill`]'s result: the filled slots read against the
/// object they were filled from.
#[derive(Debug)]
pub struct Found<'a, 's> {
    of: Scanned<'a>,
    slots: &'s Slots,
}

impl<'a> Found<'a, '_> {
    /// The member in slot `i`: what `get(names.name(i))` returns.
    pub fn get(&self, i: usize) -> Option<Scanned<'a>> {
        match self.slots.at[i] {
            0 => None,
            at => Some(Scanned { at, ..self.of }),
        }
    }
}

/// Walks sibling values: from one to the node past its descendants.
struct Children<'a> {
    next: Scanned<'a>,
    end: usize,
}

impl<'a> Iterator for Children<'a> {
    type Item = Scanned<'a>;

    fn next(&mut self) -> Option<Scanned<'a>> {
        let child = self.next;
        (child.at < self.end).then(|| {
            self.next.at = child.node().end;
            child
        })
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// `parse`, checked against the reference parser on the way.
    fn parse(doc: &str) -> Result<JsonValue, String> {
        let got = super::parse(doc);
        assert_eq!(got, reference::parse(doc), "{doc}");
        got
    }

    #[test]
    fn writer_roundtrips_through_parser() {
        let mut l = JsonLine::new();
        l.str("type", "metric")
            .u64("t_ps", 123_456_789)
            .f64("rate", 0.5)
            .f64("whole", 3.0)
            .bool("ok", true)
            .str("weird", "a\"b\\c\nd\u{1}")
            .raw("nested", "{\"x\":1}");
        let line = l.finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("metric"));
        assert_eq!(v.get("t_ps").unwrap().as_num(), Some(123_456_789.0));
        assert_eq!(v.get("rate").unwrap().as_num(), Some(0.5));
        assert_eq!(v.get("whole").unwrap().as_num(), Some(3.0));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("weird").unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
        assert_eq!(
            v.get("nested").unwrap().get("x").unwrap().as_num(),
            Some(1.0)
        );
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        let line = {
            let mut l = JsonLine::new();
            l.f64("x", 42.0);
            l.finish()
        };
        assert_eq!(line, "{\"x\":42.0}");
    }

    #[test]
    fn parser_accepts_standard_forms() {
        let v = parse(" { \"a\" : [1, -2.5, 1e3, null, true, \"s\"] } ").unwrap();
        let arr = match v.get("a").unwrap() {
            JsonValue::Arr(a) => a,
            other => panic!("expected array, got {}", other.type_name()),
        };
        assert_eq!(arr.len(), 6);
        assert_eq!(arr[2].as_num(), Some(1000.0));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_recursed_to_death() {
        let nest = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        // One level more is the scanner's to refuse (the reference has
        // no bound), so this goes around the checked `parse`.
        assert_eq!(
            super::parse(&nest(MAX_DEPTH + 1)),
            Err(format!("nesting deeper than 128 at byte {MAX_DEPTH}"))
        );
        // The hostile line that used to overflow the stack.
        let line = format!(
            "{{\"type\":\"meta\",\"schema\":3,\"bin\":\"x\",\"a\":{}}}",
            nest(20_000)
        );
        assert_eq!(
            Scanner::default().scan(&line).map(|v| v.to_value()),
            Err("nesting deeper than 128 at byte 167".into())
        );
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits_and_pair_up() {
        let text = |doc: &str| parse(doc).map(|v| v.as_str().map(str::to_string));
        for (doc, want) in [
            (r#""a\u+041b""#, Err("bad \\u escape")),
            (r#""a\u-041b""#, Err("bad \\u escape")),
            (r#""\u00g9""#, Err("bad \\u escape")),
            (r#""\u00é""#, Err("bad \\u escape")),
            (r#""\u12""#, Err("truncated \\u escape")),
            (r#""\u"#, Err("truncated \\u escape")),
            (r#""\u0041"#, Err("unterminated string")),
            (r#""\ud834\u+d1e""#, Err("bad \\u escape")),
            (r#""\x""#, Err("bad escape at byte 2")),
            (r#""\u0041\u00e9\u00E9""#, Ok("Aéé")),
            (r#""\ud834\udd1e""#, Ok("𝄞")),
            (r#""\uD834\uDD1E!""#, Ok("𝄞!")),
            (r#""\ud834""#, Ok("\u{fffd}")),
            (r#""\udd1e\ud834""#, Ok("\u{fffd}\u{fffd}")),
            (r#""\ud834\u0041""#, Ok("\u{fffd}A")),
            (r#""\ud834\ud834\udd1e""#, Ok("\u{fffd}𝄞")),
        ] {
            let want = want.map(|s| Some(s.to_string())).map_err(str::to_string);
            assert_eq!(text(doc), want, "{doc}");
        }
    }

    #[test]
    fn scanned_strings_borrow_unless_escaped() {
        let line = r#"{"plain":"sw:0","esc":"a\nb","k\u00e9":1,"ké":2,"arr":[{"x":1.5},"s"]}"#;
        let mut scanner = Scanner::default();
        let v = scanner.scan(line).unwrap();
        assert!(matches!(v.str("plain"), Ok(Cow::Borrowed("sw:0"))));
        assert!(matches!(v.str("esc"), Ok(Cow::Owned(s)) if s == "a\nb"));
        // Duplicate keys: the last wins, whichever way each is spelled.
        assert_eq!(v.num("ké"), Ok(2.0));
        assert_eq!(
            v.num("plain"),
            Err("missing numeric field \"plain\"".into())
        );
        assert_eq!(v.str("nope").unwrap_err(), "missing string field \"nope\"");
        let items: Vec<_> = v.get("arr").unwrap().as_arr().unwrap().collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].num("x"), Ok(1.5));
        assert_eq!(items[1].as_str().as_deref(), Some("s"));
        assert!(v.as_arr().is_none() && items[1].get("x").is_none());
        // The node buffer is reused: a second scan sees only its own line.
        let v = scanner.scan("[true]").unwrap();
        assert_eq!(v.to_value(), JsonValue::Arr(vec![JsonValue::Bool(true)]));
    }

    #[test]
    fn one_walk_reads_every_field_as_get_does() {
        const NAMES: [&str; 7] = ["t_ps", "type", "ké", "inst", "", "absent", "arr"];
        let lines = [
            // Duplicates: the last wins, whichever way each is spelled.
            r#"{"t_ps":1,"type":"a","t_ps":2,"t\u005fps":3}"#,
            r#"{"t_ps":3,"t\u005fps":"late","ké":1,"k\u00e9":2,"":0,"":[1]}"#,
            r#"{"inst":{"inst":5},"arr":[{"t_ps":9}],"type":"x","typ":1,"tyqe":2}"#,
            r#"{}"#,
            r#"[{"t_ps":1}]"#,
            r#""t_ps""#,
        ];
        let names = Names::new(NAMES);
        let (mut scanner, mut slots) = (Scanner::default(), Slots::default());
        for line in lines {
            let v = scanner.scan(line).unwrap();
            let got = v.fields(&NAMES);
            let found = v.fill(&names, &mut slots);
            for (i, key) in NAMES.into_iter().enumerate() {
                let want = v.get(key).map(|f| f.to_value());
                assert_eq!(got[i].map(|f| f.to_value()), want, "{line} {key}");
                assert_eq!(found.get(i).map(|f| f.to_value()), want, "{line} {key}");
            }
        }
        let v = scanner.scan(lines[1]).unwrap();
        let [t_ps, _, ke, ..] = v.fields(&NAMES);
        assert_eq!(t_ps.unwrap().as_str().as_deref(), Some("late"));
        assert_eq!(ke.unwrap().as_num(), Some(2.0));
        assert_eq!(
            number(t_ps, "t_ps"),
            Err("missing numeric field \"t_ps\"".into())
        );
        assert_eq!(string(None, "x"), Err("missing string field \"x\"".into()));
        assert_eq!(
            (names.len(), names.name(2), names.slot(b"arr")),
            (7, "ké", Some(6))
        );
    }

    #[test]
    fn json_types_round_trip_their_names() {
        for t in JsonType::ALL {
            assert_eq!(JsonType::from_name(t.name()), Some(t));
        }
        assert_eq!(JsonType::from_name("integer"), None);
        let v = parse(r#"[null,true,1,"s",[],{}]"#).unwrap();
        let mut scanner = Scanner::default();
        let s = scanner.scan(r#"[null,true,1,"s",[],{}]"#).unwrap();
        let JsonValue::Arr(items) = v else { panic!() };
        for ((t, item), scanned) in JsonType::ALL
            .into_iter()
            .zip(&items)
            .zip(s.as_arr().unwrap())
        {
            assert_eq!((item.type_name(), scanned.json_type()), (t.name(), t));
        }
    }

    #[test]
    fn nested_object_arrays_append_to_one_line() {
        let mut l = JsonLine::new();
        l.u64("a", 1)
            .objects("outer", [1u64, 2], |l, n| {
                l.u64("n", n).objects("inner", 0..n, |l, i| {
                    l.u64("i", i);
                });
            })
            .objects("none", [0u64; 0], |_, _| {})
            .bool("z", true);
        assert_eq!(
            l.finish(),
            r#"{"a":1,"outer":[{"n":1,"inner":[{"i":0}]},{"n":2,"inner":[{"i":0},{"i":1}]}],"none":[],"z":true}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = {
            let mut l = JsonLine::new();
            l.f64("x", f64::NAN);
            l.finish()
        };
        assert_eq!(line, "{\"x\":null}");
    }
}
