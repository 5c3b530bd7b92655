//! Flat, reusable message storage for batched hashing.
//!
//! The batched verification pipeline hashes thousands of short,
//! independent messages per round. Materializing them as `Vec<Vec<u8>>`
//! costs one heap allocation per message per round — dominating the
//! verifier's time once the hash kernel itself is fast. A [`MessageArena`]
//! replaces that shape with **one contiguous byte buffer plus an offset
//! table**, both reused across rounds: after the first few batches the
//! buffers reach their high-water capacity and steady-state batch
//! verification performs zero heap allocations.
//!
//! Memory layout (`n` messages):
//!
//! ```text
//! buf:  [ msg 0 bytes | msg 1 bytes | ... | msg n-1 bytes ]
//! ends: [ end 0       , end 1       , ... , end n-1       ]
//! ```
//!
//! Message `i` is `buf[ends[i-1]..ends[i]]` (with `ends[-1] = 0`), so the
//! arena supports O(1) random access — exactly what lane-interleaving
//! hash kernels need to gather one block from each of N messages.

/// A flat batch of byte messages: one contiguous buffer and an offset
/// table, reusable across batches without reallocating.
///
/// # Example
///
/// ```
/// use puzzle_crypto::MessageArena;
///
/// let mut arena = MessageArena::new();
/// arena.push(b"abc");
/// arena.push_parts(&[b"ab", b"c"]);
/// assert_eq!(arena.len(), 2);
/// assert_eq!(arena.msg(0), b"abc");
/// assert_eq!(arena.msg(1), b"abc");
/// arena.clear(); // keeps capacity
/// assert!(arena.is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct MessageArena {
    buf: Vec<u8>,
    /// `ends[i]` is the exclusive end offset of message `i` in `buf`.
    ends: Vec<usize>,
}

impl MessageArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        MessageArena::default()
    }

    /// Creates an arena with pre-reserved capacity for `messages` messages
    /// totalling `bytes` bytes.
    pub fn with_capacity(messages: usize, bytes: usize) -> Self {
        MessageArena {
            buf: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(messages),
        }
    }

    /// Removes all messages, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.ends.clear();
    }

    /// Number of messages currently stored.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no messages are stored.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total bytes across all stored messages.
    pub fn total_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Appends one message.
    pub fn push(&mut self, message: &[u8]) {
        self.buf.extend_from_slice(message);
        self.ends.push(self.buf.len());
    }

    /// Appends one message assembled from `parts` (equivalent to pushing
    /// their concatenation, without an intermediate allocation).
    pub fn push_parts(&mut self, parts: &[&[u8]]) {
        for part in parts {
            self.buf.extend_from_slice(part);
        }
        self.ends.push(self.buf.len());
    }

    /// Message `i` as a byte slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn msg(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.buf[start..self.ends[i]]
    }

    /// Iterates the stored messages in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |i| self.msg(i))
    }

    /// Builds an arena by copying a slice of owned messages.
    pub fn from_messages(messages: &[Vec<u8>]) -> Self {
        let mut arena =
            MessageArena::with_capacity(messages.len(), messages.iter().map(Vec::len).sum());
        for m in messages {
            arena.push(m);
        }
        arena
    }
}

impl<'a> Extend<&'a [u8]> for MessageArena {
    fn extend<T: IntoIterator<Item = &'a [u8]>>(&mut self, iter: T) {
        for m in iter {
            self.push(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_index() {
        let mut a = MessageArena::new();
        a.push(b"");
        a.push(b"hello");
        a.push_parts(&[b"wor", b"", b"ld"]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.total_bytes(), 10);
        assert_eq!(a.msg(0), b"");
        assert_eq!(a.msg(1), b"hello");
        assert_eq!(a.msg(2), b"world");
        let collected: Vec<&[u8]> = a.iter().collect();
        assert_eq!(collected, vec![&b""[..], b"hello", b"world"]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut a = MessageArena::new();
        for i in 0..64 {
            a.push(&[i as u8; 40]);
        }
        let buf_cap = a.buf.capacity();
        let ends_cap = a.ends.capacity();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.total_bytes(), 0);
        assert_eq!(a.buf.capacity(), buf_cap);
        assert_eq!(a.ends.capacity(), ends_cap);
    }

    #[test]
    fn from_messages_round_trips() {
        let msgs: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; i as usize]).collect();
        let a = MessageArena::from_messages(&msgs);
        assert_eq!(a.len(), msgs.len());
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(a.msg(i), &m[..]);
        }
    }

    #[test]
    fn extend_from_slices() {
        let mut a = MessageArena::new();
        a.extend([&b"ab"[..], &b"cd"[..]]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.msg(1), b"cd");
    }
}
