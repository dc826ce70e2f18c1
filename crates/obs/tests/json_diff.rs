//! Differential property test: the borrowed [`Scanner`] equals the
//! recursive-descent parser it replaced.
//!
//! The oracle is `src/json/reference.rs`, compiled into this test (it
//! is not part of the library). Generated documents cover what the
//! tool chain meets — string escapes incl. `\u` (pairs and lone
//! surrogates), multi-byte UTF-8, duplicate keys in both spellings,
//! nesting, whitespace, numbers in the forms our writers emit — and
//! every document is also fed truncated at every char boundary and
//! with every byte swapped for each of a set of structural bytes. The
//! two readers must agree on accept/reject, on the error text, and on
//! every value bit for bit, through the borrowed accessors as well as
//! through the tree `parse()` builds.

use lg_obs::json::{parse, Scanned, Scanner};
use lg_obs::JsonValue;
use proptest::prelude::*;

#[path = "../src/json/reference.rs"]
mod reference;

/// The scanner's nesting bound (`json::MAX_DEPTH`, private there).
const MAX_DEPTH: usize = 128;

struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len() as u64) as usize]
    }

    fn ws(&mut self, out: &mut String) {
        if self.below(6) == 0 {
            out.push_str(self.pick(&[" ", "\t", "  ", "\r", "\n"]));
        }
    }

    fn string(&mut self, out: &mut String) {
        out.push('"');
        for _ in 0..self.below(5) {
            out.push_str(self.pick(&[
                "link:7",
                "qdepth_bytes",
                "é",
                "→",
                "𝄞",
                "\\\"",
                "\\\\",
                "\\/",
                "\\b",
                "\\f",
                "\\n",
                "\\r",
                "\\t",
                "\\u00e9",
                "\\u0001",
                "\\uD834\\uDD1E",
                "\\ud834\\udd1e",
                "\\ud834",
                "\\udd1e",
                "\\ud834\\u0041",
                "\\ud834\\n",
            ]));
        }
        out.push('"');
    }

    fn number(&mut self, out: &mut String) {
        match self.below(8) {
            0 => out.push_str(&format!("{}", self.below(1 << 53))),
            1 => out.push_str(&format!("{}", (1u64 << 53) - self.below(2))),
            2 => out.push_str(&format!("{}.0", self.below(1 << 20))),
            3 => out.push_str(&format!("{:e}", (self.below(900) + 100) as f64 * 1e-7)),
            4 => out.push_str(&format!("{}", self.below(1000) as f64 * 1.5e-4)),
            5 => out.push_str(&format!("-{}", self.below(1000) as f64 / 8.0)),
            _ => out.push_str(self.pick(&[
                "0",
                "-0.0",
                "12.0",
                "1.5e-4",
                "1e-7",
                "1E+3",
                "1e308",
                "1e-320",
                "2.5e3",
                "0.1",
                "123456789012345678901234567890",
            ])),
        }
    }

    fn value(&mut self, depth: usize, out: &mut String) {
        let scalar = depth >= 5 || self.below(3) != 0;
        match (scalar, self.below(6)) {
            (true, 0) => out.push_str(self.pick(&["true", "false", "null"])),
            (true, 1 | 2) => self.string(out),
            (true, _) => self.number(out),
            (false, 0 | 1) => {
                out.push('[');
                self.ws(out);
                let n = self.below(4);
                for i in 0..n {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out);
                    self.value(depth + 1, out);
                    self.ws(out);
                }
                out.push(']');
            }
            (false, _) => self.object(depth, out),
        }
    }

    /// Keys come from a small pool, one of them in two spellings, so
    /// duplicates (last one wins) are common.
    fn object(&mut self, depth: usize, out: &mut String) {
        out.push('{');
        self.ws(out);
        let n = self.below(6);
        for i in 0..n {
            if i > 0 {
                out.push(',');
            }
            self.ws(out);
            out.push_str(self.pick(&[
                "\"type\"",
                "\"t_ps\"",
                "\"a\"",
                "\"ké\"",
                "\"k\\u00e9\"",
                "\"\"",
            ]));
            self.ws(out);
            out.push(':');
            self.ws(out);
            self.value(depth + 1, out);
            self.ws(out);
        }
        out.push('}');
    }
}

/// Bit-for-bit equality of two trees (`-0.0` is not `0.0` here).
fn same_tree(a: &JsonValue, b: &JsonValue) -> bool {
    match (a, b) {
        (JsonValue::Num(x), JsonValue::Num(y)) => x.to_bits() == y.to_bits(),
        (JsonValue::Arr(x), JsonValue::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same_tree(x, y))
        }
        (JsonValue::Obj(x), JsonValue::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, x), (ky, y))| kx == ky && same_tree(x, y))
        }
        _ => a == b,
    }
}

/// The borrowed accessors read what the reference tree holds.
fn same_view(v: Scanned<'_>, want: &JsonValue) -> bool {
    if v.type_name() != want.type_name() {
        return false;
    }
    match want {
        JsonValue::Null => true,
        JsonValue::Bool(b) => v.as_bool() == Some(*b),
        JsonValue::Num(n) => v.as_num().map(f64::to_bits) == Some(n.to_bits()),
        JsonValue::Str(s) => v.as_str().as_deref() == Some(s.as_str()),
        JsonValue::Arr(items) => {
            let got: Vec<Scanned<'_>> = v.as_arr().expect("array").collect();
            got.len() == items.len() && got.iter().zip(items).all(|(g, w)| same_view(*g, w))
        }
        JsonValue::Obj(map) => {
            v.as_arr().is_none()
                && v.get("no such key").is_none()
                && map
                    .iter()
                    .all(|(k, w)| v.get(k).is_some_and(|g| same_view(g, w)))
        }
    }
}

/// Both readers on one input: same verdict, same words, same values.
fn agree(scanner: &mut Scanner, doc: &str) {
    let want = reference::parse(doc);
    let tree = parse(doc);
    match (scanner.scan(doc), &want) {
        (Ok(v), Ok(w)) => {
            assert!(same_view(v, w), "accessors differ on {doc:?}");
            assert!(same_tree(&v.to_value(), w), "to_value differs on {doc:?}");
            assert!(
                same_tree(tree.as_ref().expect("parse"), w),
                "parse() differs on {doc:?}"
            );
        }
        (Err(e), Err(w)) => {
            assert_eq!(&e, w, "error text differs on {doc:?}");
            assert_eq!(tree.as_ref().expect_err("parse"), w);
        }
        (got, _) => panic!(
            "verdict differs on {doc:?}: scanner {:?}, reference {want:?}",
            got.map(|v| v.to_value())
        ),
    }
}

/// `doc` with the byte at `at` replaced, if that is still UTF-8.
fn corrupt(doc: &str, at: usize, with: u8) -> Option<String> {
    let mut bytes = doc.as_bytes().to_vec();
    bytes[at] = with;
    String::from_utf8(bytes).ok()
}

proptest! {
    #[test]
    fn scanner_equals_reference(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut doc = String::new();
        g.ws(&mut doc);
        if g.below(8) == 0 {
            g.value(0, &mut doc);
        } else {
            g.object(0, &mut doc);
        }
        g.ws(&mut doc);
        let mut scanner = Scanner::default();
        agree(&mut scanner, &doc);
        prop_assert!(reference::parse(&doc).is_ok(), "generator wrote bad JSON: {doc:?}");
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            agree(&mut scanner, &doc[..cut]);
        }
        for at in 0..doc.len() {
            for with in *b"\"\\{}[],:+-.eEu0 x\x01" {
                if let Some(bad) = corrupt(&doc, at, with) {
                    agree(&mut scanner, &bad);
                }
            }
        }
    }

    /// Nesting up to the bound reads like the reference; one level
    /// more is refused with the offending bracket's offset, however the
    /// levels split between arrays and objects.
    #[test]
    fn nesting_is_bounded(objects in 0usize..MAX_DEPTH, pad in 0usize..4) {
        let nest = |depth: usize| {
            let mut doc = " ".repeat(pad);
            for level in 0..depth {
                doc.push_str(if level < objects { "{\"a\":" } else { "[" });
            }
            doc.push('1');
            for level in (0..depth).rev() {
                doc.push(if level < objects { '}' } else { ']' });
            }
            doc
        };
        let mut scanner = Scanner::default();
        agree(&mut scanner, &nest(MAX_DEPTH));
        prop_assert!(scanner.scan(&nest(MAX_DEPTH)).is_ok());
        let deep = nest(MAX_DEPTH + 1);
        let at = pad + objects * "{\"a\":".len() + (MAX_DEPTH - objects);
        prop_assert_eq!(
            scanner.scan(&deep).map(|v| v.to_value()),
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"))
        );
        prop_assert!(reference::parse(&deep).is_ok(), "the bound is the scanner's alone");
    }
}
