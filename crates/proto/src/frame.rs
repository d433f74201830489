//! Line framing: one protocol message is its payload plus `\n`, sent in one write.
//!
//! Splitting a message across two writes lets Nagle's algorithm hold the small tail
//! (typically the lone `\n`) until the peer's delayed ACK arrives — 40 ms on Linux —
//! while the peer cannot answer a line it has not finished reading. Every writer of
//! protocol lines (the client, the line server, its admission shedding) goes through
//! [`write_line`], so a message always leaves as one buffer.

use std::io::{self, Write};

/// Writes `payload` followed by `\n` with a single `write_all`.
///
/// Refuses a payload that contains `\n` with [`io::ErrorKind::InvalidInput`] before
/// writing any byte: such a payload would frame as two requests, and the peer's second
/// reply would be read as the answer to whatever the connection sends next.
pub fn write_line<W: Write + ?Sized>(writer: &mut W, payload: &str) -> io::Result<()> {
    if payload.contains('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a protocol line cannot contain a newline",
        ));
    }
    let mut frame = Vec::with_capacity(payload.len() + 1);
    frame.extend_from_slice(payload.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the size of every `write` call it receives.
    #[derive(Default)]
    struct Writes(Vec<usize>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_is_one_write_with_its_newline() {
        let mut writes = Writes::default();
        write_line(&mut writes, &"x".repeat(20_000)).unwrap();
        assert_eq!(writes.0, vec![20_001]);
    }

    #[test]
    fn an_embedded_newline_is_refused_before_any_byte() {
        let mut writes = Writes::default();
        let err = write_line(&mut writes, "a\nb").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(writes.0.is_empty());
    }
}
