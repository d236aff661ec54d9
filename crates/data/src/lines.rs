//! The one line reader for every text stream the workspace reads: CSV
//! files through `read_csv*`, `predict`'s input and the NDJSON
//! connections of the scoring daemon and its clients.

use std::io::{self, BufRead};
use std::str::Utf8Error;

/// Reads the non-blank lines of a byte stream one at a time, as bytes,
/// into one reused buffer.
///
/// A line ends at `\n`. The `\n`, and a `\r` just before it, are removed
/// as [`str::lines`] removes them; a bare `\r` elsewhere stays, and a
/// last line without a newline counts. Each line is decoded as UTF-8 once
/// it is complete, so a line that is not UTF-8 is reported as such and
/// the next line reads normally. A line holding nothing but whitespace
/// (as [`str::trim`] counts it) is skipped but still numbered; a line that
/// is not UTF-8 is not blank. The line is not trimmed, so a whitespace
/// separator such as `\t` survives at its edges.
///
/// A read error, including the `WouldBlock` or `TimedOut` of a socket's
/// read timeout, leaves the partial line buffered, and the next call
/// resumes it where the error cut it, even inside a character or between
/// a `\r` and its `\n`.
#[derive(Debug)]
pub struct LineReader<R> {
    reader: R,
    buf: Vec<u8>,
    /// 1-based physical number of the line last completed.
    lineno: usize,
    /// Whether `buf` holds a completed line, to be dropped before the
    /// next read; false while it holds a partial line cut by an error.
    complete: bool,
}

impl<R: BufRead> LineReader<R> {
    /// A reader at the start of `reader`.
    pub fn new(reader: R) -> Self {
        LineReader {
            reader,
            buf: Vec::new(),
            lineno: 0,
            complete: false,
        }
    }

    /// The underlying reader, as [`io::BufReader::get_ref`] gives it: a
    /// caller can look at what it has buffered without reading further.
    pub fn get_ref(&self) -> &R {
        &self.reader
    }

    /// The next non-blank line with its 1-based physical line number, as
    /// text or as why its bytes are not UTF-8; `None` at the end of the
    /// stream. An error from the underlying reader is returned as is, and
    /// the line it cut stays buffered.
    pub fn next_line(&mut self) -> io::Result<Option<(usize, Result<&str, Utf8Error>)>> {
        loop {
            if self.complete {
                self.buf.clear();
                self.complete = false;
            }
            // `read_until` appends what it read before an error to `buf`.
            if self.reader.read_until(b'\n', &mut self.buf)? == 0 && self.buf.is_empty() {
                return Ok(None);
            }
            self.complete = true;
            self.lineno += 1;
            if self.buf.ends_with(b"\n") {
                self.buf.pop();
                if self.buf.ends_with(b"\r") {
                    self.buf.pop();
                }
            }
            if !is_blank(&self.buf) {
                return Ok(Some((self.lineno, std::str::from_utf8(&self.buf))));
            }
        }
    }
}

/// Whether a line holds nothing but whitespace (as [`str::trim`] counts
/// it). A line that is not UTF-8 is not blank. An ASCII byte that is not
/// whitespace settles it without decoding the line, and data rows start
/// with one.
fn is_blank(line: &[u8]) -> bool {
    !line
        .iter()
        .any(|&b| b.is_ascii() && !char::from(b).is_whitespace())
        && std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endings_blank_lines_edge_whitespace_and_a_last_line_without_newline() {
        let text = b"a,b\r\n\n \t\r\nc\rd\n\xe9x\n\x20\xe3\x80\x80\n\tz\t\nlast\r";
        let mut lines = LineReader::new(&text[..]);
        let mut got = Vec::new();
        while let Some((n, line)) = lines.next_line().unwrap() {
            got.push((n, line.ok().map(str::to_string)));
        }
        let want = [
            (1, Some("a,b")),
            (4, Some("c\rd")),
            (5, None),
            (7, Some("\tz\t")),
            (8, Some("last\r")),
        ]
        .map(|(n, line)| (n, line.map(str::to_string)));
        assert_eq!(got, want);
        for blank in [&b""[..], b"\n\r\n", b" \t"] {
            assert!(LineReader::new(blank).next_line().unwrap().is_none());
        }
    }

    #[test]
    fn get_ref_shows_what_is_buffered_behind_the_current_line() {
        let mut lines = LineReader::new(std::io::BufReader::new(&b"a\nb\nc"[..]));
        assert!(lines.get_ref().buffer().is_empty(), "nothing read yet");
        assert_eq!(lines.next_line().unwrap().unwrap().0, 1);
        assert_eq!(lines.get_ref().buffer(), b"b\nc");
        assert_eq!(lines.next_line().unwrap().unwrap().0, 2);
        assert_eq!(lines.get_ref().buffer(), b"c");
    }
}
