//! Bounded-memory streaming ingestion.
//!
//! Fabric-scale telemetry dumps run to hundreds of megabytes; anything
//! that `read_to_string`s them holds the whole file (plus per-line
//! `String`s) resident at once. [`LineReader`] keeps the analysis
//! binaries O(1) in file size: a line-at-a-time reader over any
//! [`Read`] that yields each line in place from its read buffer (a line
//! split across two reads from one reused line buffer). Lines are
//! yielded with the same semantics as [`str::lines`] (terminator
//! stripped, a trailing `\r` removed, a final unterminated line still
//! yielded), so a streaming consumer is a drop-in replacement for
//! `read_to_string(..)?.lines()` — the property the differential
//! proptest pins.

use std::io::{self, Read};

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
}
