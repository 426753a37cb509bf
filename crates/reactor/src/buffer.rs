//! Incremental codecs for newline-delimited protocols over nonblocking
//! sockets: bytes arrive and depart in arbitrary fragments, so both
//! directions need explicit buffering that blocking I/O gets for free
//! from `BufReader` + `writeln!`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Why [`LineBuffer::next_line`] refused to produce a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineError {
    /// A line exceeded the configured cap before its newline arrived. The
    /// protocol answer is a `request_too_large` reply followed by closing
    /// the connection — the buffer stays poisoned and yields this error
    /// again rather than resynchronizing on attacker-controlled input.
    TooLong {
        /// Bytes accumulated when the cap was crossed (≥ the cap).
        buffered: usize,
    },
}

/// Accumulates read fragments and yields complete `\n`-terminated lines,
/// enforcing a maximum line length.
#[derive(Debug)]
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Scan position: bytes before this offset are known newline-free, so
    /// repeated `next_line` calls after partial reads stay O(new bytes).
    scanned: usize,
    max_line: usize,
    poisoned: bool,
}

impl LineBuffer {
    /// A buffer yielding lines of at most `max_line` bytes (terminator
    /// excluded).
    pub fn new(max_line: usize) -> LineBuffer {
        LineBuffer {
            buf: Vec::new(),
            scanned: 0,
            max_line,
            poisoned: false,
        }
    }

    /// Appends a read fragment.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Reads once from `r` into the buffer. `Ok(0)` is EOF; `WouldBlock`
    /// maps to `Ok(None)`-style `Err` for the caller to stop reading.
    ///
    /// # Errors
    ///
    /// Propagates the read error, including `WouldBlock` when the socket
    /// is drained.
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let mut chunk = [0u8; 16 * 1024];
        let n = r.read(&mut chunk)?;
        self.extend(&chunk[..n]);
        Ok(n)
    }

    /// Extracts the next complete line, with the trailing `\n` (and any
    /// `\r`) stripped. `Ok(None)` means "no full line buffered yet".
    ///
    /// # Errors
    ///
    /// [`LineError::TooLong`] once the unterminated prefix exceeds the cap.
    pub fn next_line(&mut self) -> Result<Option<Vec<u8>>, LineError> {
        if self.poisoned {
            return Err(LineError::TooLong {
                buffered: self.buf.len(),
            });
        }
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let pos = self.scanned + rel;
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                self.scanned = 0;
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                if line.len() > self.max_line {
                    self.poisoned = true;
                    return Err(LineError::TooLong {
                        buffered: line.len(),
                    });
                }
                Ok(Some(line))
            }
            None => {
                self.scanned = self.buf.len();
                if self.buf.len() > self.max_line {
                    self.poisoned = true;
                    return Err(LineError::TooLong {
                        buffered: self.buf.len(),
                    });
                }
                Ok(None)
            }
        }
    }

    /// Bytes currently buffered (diagnostics).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Queues response bytes and drains them as the nonblocking socket accepts
/// writes, preserving order.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    queue: VecDeque<u8>,
}

impl WriteBuffer {
    /// An empty write queue.
    pub fn new() -> WriteBuffer {
        WriteBuffer::default()
    }

    /// Queues `bytes` for transmission.
    pub fn push(&mut self, bytes: &[u8]) {
        self.queue.extend(bytes);
    }

    /// Writes as much queued data as the socket accepts. Returns `true`
    /// when the queue fully drained; `false` means the socket filled up
    /// and the connection should (re)register writable interest.
    ///
    /// # Errors
    ///
    /// Propagates write errors other than `WouldBlock`/`Interrupted`
    /// (those map to `Ok(false)` and a retried write respectively).
    pub fn flush_to(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while !self.queue.is_empty() {
            let (front, _) = self.queue.as_slices();
            match w.write(front) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.queue.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Whether response bytes are still queued.
    pub fn wants_write(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Queued byte count (diagnostics / backpressure accounting).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_across_fragments() {
        let mut lb = LineBuffer::new(64);
        lb.extend(b"{\"cmd\":\"he");
        assert_eq!(lb.next_line().unwrap(), None);
        lb.extend(b"alth\"}\n{\"cmd\"");
        assert_eq!(
            lb.next_line().unwrap().as_deref(),
            Some(b"{\"cmd\":\"health\"}".as_slice())
        );
        assert_eq!(lb.next_line().unwrap(), None);
        lb.extend(b":1}\n");
        assert_eq!(
            lb.next_line().unwrap().as_deref(),
            Some(b"{\"cmd\":1}".as_slice())
        );
        assert!(lb.is_empty());
    }

    #[test]
    fn crlf_is_stripped() {
        let mut lb = LineBuffer::new(64);
        lb.extend(b"hello\r\nworld\n");
        assert_eq!(
            lb.next_line().unwrap().as_deref(),
            Some(b"hello".as_slice())
        );
        assert_eq!(
            lb.next_line().unwrap().as_deref(),
            Some(b"world".as_slice())
        );
    }

    #[test]
    fn empty_lines_are_yielded_empty() {
        let mut lb = LineBuffer::new(8);
        lb.extend(b"\n\nx\n");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some(b"".as_slice()));
        assert_eq!(lb.next_line().unwrap().as_deref(), Some(b"".as_slice()));
        assert_eq!(lb.next_line().unwrap().as_deref(), Some(b"x".as_slice()));
    }

    #[test]
    fn overlong_line_poisons_the_buffer() {
        let mut lb = LineBuffer::new(4);
        lb.extend(b"abcdef");
        assert_eq!(lb.next_line(), Err(LineError::TooLong { buffered: 6 }));
        // Still poisoned even if a newline arrives later.
        lb.extend(b"\nok\n");
        assert!(matches!(lb.next_line(), Err(LineError::TooLong { .. })));
    }

    #[test]
    fn overlong_terminated_line_is_rejected() {
        let mut lb = LineBuffer::new(4);
        lb.extend(b"abcdef\n");
        assert!(matches!(lb.next_line(), Err(LineError::TooLong { .. })));
    }

    #[test]
    fn exact_cap_line_is_accepted() {
        let mut lb = LineBuffer::new(4);
        lb.extend(b"abcd\n");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some(b"abcd".as_slice()));
    }

    #[test]
    fn write_buffer_drains_in_order_through_a_tiny_sink() {
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wb = WriteBuffer::new();
        wb.push(b"first response\n");
        wb.push(b"second\n");
        let mut sink = Dribble(Vec::new());
        assert!(wb.flush_to(&mut sink).unwrap());
        assert_eq!(sink.0, b"first response\nsecond\n");
        assert!(!wb.wants_write());
    }

    #[test]
    fn write_buffer_reports_wouldblock_as_pending() {
        struct Blocked;
        impl Write for Blocked {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wb = WriteBuffer::new();
        wb.push(b"data\n");
        assert!(!wb.flush_to(&mut Blocked).unwrap());
        assert!(wb.wants_write());
        assert_eq!(wb.len(), 5);
    }
}
