//! Bounded-memory streaming ingestion primitives.
//!
//! Fabric-scale telemetry dumps run to hundreds of megabytes; anything
//! that `read_to_string`s them holds the whole file (plus per-line
//! `String`s) resident at once. This module supplies the two pieces the
//! analysis binaries need to stay O(1) in file size:
//!
//! * [`LineReader`] — a line-at-a-time reader over any [`Read`] that
//!   yields each line in place from its read buffer (a line split across
//!   two reads from one reused line buffer). Lines are yielded with
//!   the same semantics as [`str::lines`] (terminator stripped, a
//!   trailing `\r` removed, a final unterminated line still yielded),
//!   so a streaming consumer is a drop-in replacement for
//!   `read_to_string(..)?.lines()` — the property the differential
//!   proptest pins.
//! * [`QuantileStream`] — the log-histogram + exact top-K tail
//!   aggregator factored out of `lg_fabric::fct` so any consumer (the
//!   FCT digest, the streaming analyzer) can answer retained-Vec
//!   percentile queries (`i = round((n-1)·q)` into the ascending sort)
//!   in O(buckets + K) memory. Merging is layout-invariant: the merged
//!   stream is indistinguishable from one that recorded both inputs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Read};

use crate::hist::LogHist;

/// Default read-buffer size for [`LineReader`].
pub const DEFAULT_READ_BUF: usize = 64 * 1024;

/// A reusable line-at-a-time reader over any byte stream.
///
/// Unlike `BufRead::read_line`, the yielded `&str` borrows the reader —
/// its read buffer in place, or for a line split across two reads the
/// reused line buffer — so a whole-file scan allocates O(longest line),
/// not O(file), and copies only the lines that straddle a refill. Those
/// are reassembled transparently: the buffer size is observable only
/// through syscall count, never through the yielded lines (the
/// differential proptest runs with 7-byte buffers).
#[derive(Debug)]
pub struct LineReader<R: Read> {
    inner: R,
    /// Raw read buffer; `start..end` is the unconsumed region.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The current line, when it straddles a refill (reused allocation).
    line: Vec<u8>,
    eof: bool,
}

impl<R: Read> LineReader<R> {
    /// A reader with the default buffer size.
    pub fn new(inner: R) -> LineReader<R> {
        LineReader::with_capacity(DEFAULT_READ_BUF, inner)
    }

    /// A reader with an explicit buffer size (`cap >= 1`). Tiny
    /// capacities are valid — tests use them to force every line to
    /// straddle a refill boundary.
    pub fn with_capacity(cap: usize, inner: R) -> LineReader<R> {
        LineReader {
            inner,
            buf: vec![0; cap.max(1)],
            start: 0,
            end: 0,
            line: Vec::new(),
            eof: false,
        }
    }

    /// The next line with its terminator stripped ([`str::lines`]
    /// semantics: `\n` ends a line, a preceding `\r` is dropped, a
    /// final line without a terminator is still returned). `None` at
    /// end of input. The returned slice is valid until the next call:
    /// a slice of the read buffer when the line ends inside the chunk it
    /// starts in, and only a line that straddles a refill is copied
    /// together in the line buffer.
    pub fn next_line(&mut self) -> io::Result<Option<&str>> {
        self.line.clear();
        // `Some(range)` of `buf` when the line lies inside one chunk;
        // `None` when it was assembled in `line`.
        let (inside, terminated) = loop {
            if self.start == self.end {
                if self.eof {
                    break (None, false);
                }
                let n = self.inner.read(&mut self.buf)?;
                if n == 0 {
                    self.eof = true;
                    break (None, false);
                }
                self.start = 0;
                self.end = n;
            }
            let chunk = &self.buf[self.start..self.end];
            match find_newline(chunk) {
                Some(i) if self.line.is_empty() => {
                    let at = self.start;
                    self.start += i + 1;
                    break (Some(at..at + i), true);
                }
                Some(i) => {
                    self.line.extend_from_slice(&chunk[..i]);
                    self.start += i + 1;
                    break (None, true);
                }
                None => {
                    self.line.extend_from_slice(chunk);
                    self.start = self.end;
                }
            }
        };
        let mut bytes = match inside {
            Some(r) => &self.buf[r],
            None if !terminated && self.line.is_empty() => return Ok(None),
            None => &self.line[..],
        };
        // `str::lines` semantics: `\r` is stripped only as part of a
        // `\r\n` terminator, never from a final unterminated line.
        if let (true, [rest @ .., b'\r']) = (terminated, bytes) {
            bytes = rest;
        }
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(Some(s)),
            Err(e) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid UTF-8 in input line: {e}"),
            )),
        }
    }
}

/// Offset of the first `\n` in `b`, eight bytes per step: a word's
/// bytes equal to `\n` become zero under the xor, and the classic
/// zero-byte test marks them (its false positives sit only above a true
/// zero, so the lowest mark is exact).
fn find_newline(b: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = b.chunks_exact(8);
    for (k, w) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(w.try_into().expect("8-byte chunk")) ^ NEWLINES;
        let marks = x.wrapping_sub(ONES) & !x & HIGHS;
        if marks != 0 {
            return Some(8 * k + marks.trailing_zeros() as usize / 8);
        }
    }
    let tail = b.len() - words.remainder().len();
    words
        .remainder()
        .iter()
        .position(|&c| c == b'\n')
        .map(|i| tail + i)
}

/// Streaming quantile aggregator: a [`LogHist`] recording every value
/// plus an exact top-K tail reservoir (min-heap over the K largest).
///
/// Quantiles follow the retained-Vec convention `i = round((n-1)·q)`
/// into the ascending sort: exact through the reservoir when the rank
/// falls inside it, a histogram bucket bound (relative error ≤
/// 1/sub_buckets) otherwise. `lg_fabric::fct::FctStream` is a thin
/// wrapper fixing `sub_buckets = 64`.
#[derive(Debug, Clone)]
pub struct QuantileStream {
    hist: LogHist,
    tail: BinaryHeap<Reverse<u64>>,
    k: usize,
}

impl QuantileStream {
    /// A stream with `sub_buckets` histogram resolution (power of two)
    /// retaining the `tail_k` largest values exactly.
    pub fn new(sub_buckets: u32, tail_k: usize) -> QuantileStream {
        QuantileStream {
            hist: LogHist::new(sub_buckets),
            tail: BinaryHeap::with_capacity(tail_k.saturating_add(1)),
            k: tail_k,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.hist.record(v);
        self.offer_tail(v);
    }

    fn offer_tail(&mut self, v: u64) {
        if self.k == 0 {
            return;
        }
        if self.tail.len() < self.k {
            self.tail.push(Reverse(v));
        } else if v > self.tail.peek().expect("non-empty at capacity").0 {
            self.tail.pop();
            self.tail.push(Reverse(v));
        }
    }

    /// Values recorded.
    pub fn len(&self) -> u64 {
        self.hist.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        self.hist.min()
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.hist.max()
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        self.hist.mean()
    }

    /// Merge another stream (consumed) into this one. Histogram merge
    /// is exact bucket addition and the reservoir keeps the top-K of
    /// the union multiset, so merge order cannot change any answer.
    pub fn merge(&mut self, other: QuantileStream) {
        assert_eq!(self.k, other.k, "merging streams of different tail size");
        self.hist.merge(&other.hist);
        for Reverse(v) in other.tail {
            self.offer_tail(v);
        }
    }

    /// The tail reservoir sorted descending (shared by multi-quantile
    /// callers so one sort serves every query).
    pub fn tail_desc(&self) -> Vec<u64> {
        let mut desc: Vec<u64> = self.tail.iter().map(|&Reverse(v)| v).collect();
        desc.sort_unstable_by(|a, b| b.cmp(a));
        desc
    }

    /// Quantile against a pre-sorted descending tail from
    /// [`QuantileStream::tail_desc`].
    pub fn quantile_with_tail(&self, desc: &[u64], q: f64) -> u64 {
        let count = self.hist.len();
        if count == 0 {
            return 0;
        }
        let i = (((count - 1) as f64 * q).round() as u64).min(count - 1);
        let from_top = (count - 1 - i) as usize;
        if from_top < desc.len() {
            desc[from_top]
        } else {
            self.hist.value_at_rank(i + 1).expect("rank within count")
        }
    }

    /// Value at quantile `q` in `[0, 1]` (retained-Vec convention;
    /// 0 when empty). Sorts the tail per call — batch queries should
    /// go through [`QuantileStream::tail_desc`] +
    /// [`QuantileStream::quantile_with_tail`].
    pub fn quantile(&self, q: f64) -> u64 {
        let desc = self.tail_desc();
        self.quantile_with_tail(&desc, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(cap: usize, input: &str) -> Vec<String> {
        let mut r = LineReader::with_capacity(cap, input.as_bytes());
        let mut out = Vec::new();
        while let Some(l) = r.next_line().expect("utf8") {
            out.push(l.to_string());
        }
        out
    }

    #[test]
    fn matches_str_lines_across_buffer_sizes() {
        let cases = [
            "",
            "\n",
            "a\nb\nc\n",
            "no trailing newline",
            "mixed\r\nwindows\r\nline\n",
            "ends unterminated\r",
            "\n\n\n",
            "long line that certainly exceeds a tiny buffer\nshort\n",
        ];
        for case in cases {
            let want: Vec<String> = case.lines().map(|s| s.to_string()).collect();
            for cap in [1, 2, 3, 7, 16, 4096] {
                assert_eq!(read_all(cap, case), want, "cap={cap} case={case:?}");
            }
        }
    }

    /// A byte stream delivered in the given reads, so a test places the
    /// chunk edges.
    struct Reads(Vec<&'static [u8]>);

    impl Read for Reads {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let next = self.0.remove(0);
            assert!(next.len() <= out.len(), "a read larger than the buffer");
            out[..next.len()].copy_from_slice(next);
            Ok(next.len())
        }
    }

    /// Every line of `reads`, and whether any was copied into the line
    /// buffer (a borrowed line never touches it).
    fn lines_of(reads: &[&'static [u8]]) -> (Vec<String>, bool) {
        let mut r = LineReader::with_capacity(64, Reads(reads.to_vec()));
        let mut out = Vec::new();
        while let Some(l) = r.next_line().expect("utf8") {
            out.push(l.to_string());
        }
        let text = String::from_utf8(reads.concat()).expect("utf8");
        assert_eq!(out, text.lines().collect::<Vec<_>>(), "{text:?}");
        (out, r.line.capacity() > 0)
    }

    #[test]
    fn lines_inside_a_chunk_are_borrowed_not_copied() {
        // Lines ending exactly at the chunk edge.
        assert_eq!(
            lines_of(&[b"ab\n", b"cd\n"]),
            (vec!["ab".into(), "cd".into()], false)
        );
        // CRLF lines and a final unterminated line, all inside one chunk.
        assert_eq!(
            lines_of(&[b"ab\r\ncd\nef"]),
            (vec!["ab".into(), "cd".into(), "ef".into()], true)
        );
        assert_eq!(
            lines_of(&[b"ab\r\ncd\n", b""]),
            (vec!["ab".into(), "cd".into()], false)
        );
        // A chunk that ends just before a line's `\n`.
        assert_eq!(
            lines_of(&[b"ab", b"\ncd\n"]),
            (vec!["ab".into(), "cd".into()], true)
        );
    }

    #[test]
    fn a_cr_at_the_chunk_edge_is_stripped_only_before_a_newline() {
        assert_eq!(lines_of(&[b"ab\r", b"\ncd"]).0, ["ab", "cd"]);
        assert_eq!(lines_of(&[b"x\nab\r", b"\r\n"]).0, ["x", "ab\r"]);
        assert_eq!(lines_of(&[b"ab\r"]).0, ["ab\r"]);
        assert_eq!(lines_of(&[b"ab", b"\r"]).0, ["ab\r"]);
        assert_eq!(lines_of(&[b"\r", b"\n", b"\r\n"]).0, ["", ""]);
    }

    #[test]
    fn newline_search_finds_the_first_at_every_offset() {
        let mut text = vec![b'a'; 40];
        for nl in 0..text.len() {
            text[nl] = b'\n';
            for start in 0..=nl {
                for end in nl..text.len() {
                    let b = &text[start..=end];
                    assert_eq!(find_newline(b), Some(nl - start), "{start}..={end}");
                }
            }
            // Bytes that differ from `\n` in one bit never match.
            text[nl] = b'\n' ^ 0x80;
            assert_eq!(find_newline(&text), None);
            text[nl] = b'\n' + 1;
            assert_eq!(find_newline(&text), None);
            text[nl] = b'a';
        }
        // A second `\n` right after the first (the borrow into the next
        // byte) does not move the answer.
        assert_eq!(find_newline(b"abc\n\n\nxyzw"), Some(3));
        assert_eq!(find_newline(b"\x0b\n"), Some(1));
        assert_eq!(find_newline(b""), None);
    }

    #[test]
    fn rejects_invalid_utf8() {
        let bytes: &[u8] = &[b'o', b'k', b'\n', 0xff, 0xfe, b'\n'];
        let mut r = LineReader::with_capacity(4, bytes);
        assert_eq!(r.next_line().unwrap(), Some("ok"));
        assert!(r.next_line().is_err());
    }

    #[test]
    fn quantiles_match_vec_convention_when_tail_covers() {
        let vals: Vec<u64> = (0..1000).map(|i| (i * 7919) % 10_007).collect();
        let mut s = QuantileStream::new(64, 2048);
        for &v in &vals {
            s.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let i = ((sorted.len() - 1) as f64 * q).round() as usize;
            assert_eq!(s.quantile(q), sorted[i], "q={q}");
        }
        assert_eq!(s.min(), sorted[0]);
        assert_eq!(s.max(), *sorted.last().unwrap());
    }

    #[test]
    fn merge_is_order_invariant() {
        let vals: Vec<u64> = (0..500).map(|i| (i * 2654435761u64) % 1_000_003).collect();
        let mut whole = QuantileStream::new(64, 64);
        for &v in &vals {
            whole.record(v);
        }
        for parts in [2usize, 5] {
            let mut shards: Vec<QuantileStream> =
                (0..parts).map(|_| QuantileStream::new(64, 64)).collect();
            for (i, &v) in vals.iter().enumerate() {
                shards[i % parts].record(v);
            }
            shards.reverse();
            let mut merged = shards.pop().unwrap();
            for s in shards {
                merged.merge(s);
            }
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(merged.quantile(q), whole.quantile(q), "parts={parts} q={q}");
            }
            assert_eq!(merged.len(), whole.len());
        }
    }

    #[test]
    fn empty_stream_is_zeroed() {
        let s = QuantileStream::new(64, 16);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
