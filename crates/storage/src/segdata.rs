//! Segment contents: a byte array indexed by offset.
//!
//! §5.1: "A segment contains an array of bytes that can be indexed by an
//! offset. … Write modifies a segment by replacing, appending, or
//! truncating data in the segment." NFS reads and writes map directly onto
//! these operations.
//!
//! # Immutable shared buffers
//!
//! The contents are one reference-counted [`Bytes`] buffer that is never
//! mutated in place (the shared-buffer design of IO-Lite, Pai, Druschel &
//! Zwaenepoel, OSDI 1999):
//!
//! * [`SegmentData::read`] and [`SegmentData::contents`] hand out views
//!   of the stored buffer without copying.
//! * A writer ([`SegmentData::write`], [`SegmentData::append`],
//!   [`SegmentData::truncate`]) builds a fresh buffer and installs it;
//!   [`SegmentData::replace`] installs the caller's buffer as is. A view
//!   taken earlier keeps the old bytes, so a lock-free reader's slice can
//!   never tear.
//! * Cloning a segment — a replica copied between modelled servers, a
//!   durable copy beside the volatile one, an update record queued for
//!   the group — bumps a reference count. Sharing one buffer between
//!   modelled servers is safe only because no buffer is ever written in
//!   place.
//! * A view keeps its whole backing buffer alive: a 1 KiB read reply
//!   pins the segment it was sliced from until the reply is dropped.
//!
//! Modelled costs never see the sharing: [`StoredSize`] reports each
//! copy's logical length, shared buffer or not.

use bytes::Bytes;

use crate::disk::StoredSize;

/// The contents of one segment replica.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentData {
    buf: Bytes,
}

impl SegmentData {
    /// An empty segment ("create … returns a handle for a new segment of
    /// zero length", §5.1).
    pub fn new() -> Self {
        SegmentData::default()
    }

    /// Builds a segment holding a copy of `data`.
    pub fn from_bytes(data: &[u8]) -> Self {
        SegmentData { buf: Bytes::copy_from_slice(data) }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the segment holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Up to `count` bytes starting at `offset`, as a view of the stored
    /// buffer (no copy).
    ///
    /// Reads past end-of-segment return the available prefix (possibly
    /// empty), matching NFS read semantics; any `count` is accepted.
    pub fn read(&self, offset: usize, count: usize) -> Bytes {
        if offset >= self.buf.len() {
            return Bytes::new();
        }
        let end = offset.saturating_add(count).min(self.buf.len());
        self.buf.slice(offset..end)
    }

    /// The full contents (no copy).
    pub fn contents(&self) -> Bytes {
        self.buf.clone()
    }

    /// Writes `data` at `offset`, replacing existing bytes and extending
    /// the segment as needed. Writing past end-of-segment zero-fills the
    /// gap (UNIX sparse-write semantics). Installs a fresh buffer.
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        let end = offset + data.len();
        let old = &self.buf[..];
        let mut buf = Vec::with_capacity(end.max(old.len()));
        buf.extend_from_slice(&old[..offset.min(old.len())]);
        buf.resize(offset, 0);
        buf.extend_from_slice(data);
        buf.extend_from_slice(old.get(end..).unwrap_or_default());
        self.buf = buf.into();
    }

    /// Appends `data` at the current end. Installs a fresh buffer.
    pub fn append(&mut self, data: &[u8]) {
        let mut buf = Vec::with_capacity(self.buf.len() + data.len());
        buf.extend_from_slice(&self.buf);
        buf.extend_from_slice(data);
        self.buf = buf.into();
    }

    /// Truncates (or zero-extends) the segment to exactly `len` bytes.
    /// Installs a fresh buffer, so a shrunk segment does not pin the
    /// larger one.
    pub fn truncate(&mut self, len: usize) {
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(&self.buf[..len.min(self.buf.len())]);
        buf.resize(len, 0);
        self.buf = buf.into();
    }

    /// Replaces the entire contents with `data`, stored without copying.
    pub fn replace(&mut self, data: Bytes) {
        self.buf = data;
    }
}

impl StoredSize for SegmentData {
    fn stored_size(&self) -> usize {
        self.buf.len()
    }
}

impl From<&[u8]> for SegmentData {
    fn from(data: &[u8]) -> Self {
        SegmentData::from_bytes(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_is_zero_length() {
        let s = SegmentData::new();
        assert!(s.is_empty());
        assert_eq!(s.read(0, 10), Bytes::new());
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut s = SegmentData::new();
        s.write(0, b"hello world");
        assert_eq!(s.len(), 11);
        assert_eq!(&s.read(0, 5)[..], b"hello");
        assert_eq!(&s.read(6, 100)[..], b"world");
    }

    #[test]
    fn overwrite_replaces_in_place() {
        let mut s = SegmentData::from_bytes(b"aaaaaa");
        s.write(2, b"BB");
        assert_eq!(&s.contents()[..], b"aaBBaa");
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut s = SegmentData::from_bytes(b"ab");
        s.write(5, b"z");
        assert_eq!(&s.contents()[..], b"ab\0\0\0z");
    }

    #[test]
    fn append_extends() {
        let mut s = SegmentData::from_bytes(b"ab");
        s.append(b"cd");
        assert_eq!(&s.contents()[..], b"abcd");
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut s = SegmentData::from_bytes(b"abcdef");
        s.truncate(3);
        assert_eq!(&s.contents()[..], b"abc");
        s.truncate(5);
        assert_eq!(&s.contents()[..], b"abc\0\0");
    }

    #[test]
    fn read_past_end_returns_prefix() {
        let s = SegmentData::from_bytes(b"abc");
        assert_eq!(&s.read(1, 100)[..], b"bc");
        assert_eq!(s.read(3, 1), Bytes::new());
        assert_eq!(s.read(99, 1), Bytes::new());
    }

    #[test]
    fn replace_swaps_contents() {
        let mut s = SegmentData::from_bytes(b"old contents");
        s.replace(Bytes::from_static(b"new"));
        assert_eq!(&s.contents()[..], b"new");
        assert_eq!(s.stored_size(), 3);
    }

    #[test]
    fn read_with_huge_count_is_clamped() {
        let s = SegmentData::from_bytes(b"abc");
        assert_eq!(&s.read(1, usize::MAX)[..], b"bc");
        assert_eq!(&s.read(0, usize::MAX)[..], b"abc");
        assert_eq!(s.read(usize::MAX, usize::MAX), Bytes::new());
    }

    #[test]
    fn read_is_a_view_of_the_stored_buffer() {
        let s = SegmentData::from_bytes(b"abcdef");
        let all = s.contents();
        let mid = s.read(2, 3);
        assert_eq!(all.as_ptr(), s.contents().as_ptr(), "contents shares the buffer");
        assert_eq!(mid.as_ptr(), all[2..].as_ptr(), "read slices the buffer");
    }

    #[test]
    fn replace_stores_the_callers_buffer() {
        let data = Bytes::from(b"payload".to_vec());
        let mut s = SegmentData::new();
        s.replace(data.clone());
        assert_eq!(s.contents().as_ptr(), data.as_ptr());
    }

    /// Every mutation installs a new buffer: snapshots taken before it —
    /// a whole-contents view and a sub-slice — keep the old bytes.
    #[test]
    fn snapshots_survive_every_mutation() {
        type Mutation = (&'static str, fn(&mut SegmentData));
        let mutations: [Mutation; 6] = [
            ("write", |s| s.write(1, b"XY")),
            ("sparse write", |s| s.write(9, b"Z")),
            ("append", |s| s.append(b"tail")),
            ("shrink", |s| s.truncate(2)),
            ("extend", |s| s.truncate(10)),
            ("replace", |s| s.replace(Bytes::from_static(b"new"))),
        ];
        for (name, mutate) in mutations {
            let mut s = SegmentData::from_bytes(b"abcdef");
            let whole = s.contents();
            let part = s.read(1, 3);
            mutate(&mut s);
            assert_ne!(&s.contents()[..], b"abcdef", "{name} changed the segment");
            assert_eq!(&whole[..], b"abcdef", "{name} tore a contents snapshot");
            assert_eq!(&part[..], b"bcd", "{name} tore a read snapshot");
        }
    }

    #[test]
    fn clones_share_until_one_is_written() {
        let a = SegmentData::from_bytes(b"shared");
        let mut b = a.clone();
        assert_eq!(a.contents().as_ptr(), b.contents().as_ptr());
        b.write(0, b"S");
        assert_eq!(&a.contents()[..], b"shared");
        assert_eq!(&b.contents()[..], b"Shared");
    }
}
