//! Little-endian byte codecs used by every file format in the system.
//!
//! All on-"disk" records (header, look-up entries, region sets, subgraphs,
//! region data) are serialized through [`ByteWriter`] and decoded through
//! [`ByteReader`]. Every format in the tree writes fixed-width integers.

use crate::error::StorageError;
use crate::Result;

/// Append-only little-endian writer over a growable byte buffer.
#[derive(Default, Debug, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Creates a writer with pre-allocated capacity.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes and returns the buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian `i32`.
    pub fn i32(&mut self, v: i32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes raw bytes verbatim.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes a length-prefixed (u32) byte string.
    pub fn len_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.bytes(v)
    }

    /// Overwrites 4 bytes at `pos` with a little-endian `u32`.
    ///
    /// # Panics
    /// Panics if `pos + 4` exceeds the bytes written so far.
    pub fn patch_u32(&mut self, pos: usize, v: u32) {
        self.buf[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Sequential little-endian reader over a byte slice.
///
/// The fixed-width accessors and the bounds check under them are
/// `#[inline]`: the record decoders call them from other crates once per
/// field, and the workspace builds without LTO.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes remaining after the cursor.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::UnexpectedEof {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a single byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    /// Reads a little-endian `i32`.
    #[inline]
    pub fn i32(&mut self) -> Result<i32> {
        let s = self.take(4)?;
        Ok(i32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian IEEE-754 `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        let s = self.take(8)?;
        Ok(f64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a length-prefixed (u32) byte string.
    pub fn len_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = ByteWriter::new();
        w.u8(7)
            .u16(65535)
            .u32(123_456_789)
            .u64(u64::MAX)
            .i32(-42)
            .f64(3.5);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65535);
        assert_eq!(r.u32().unwrap(), 123_456_789);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 3.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn eof_is_reported() {
        let buf = [1u8, 2];
        let mut r = ByteReader::new(&buf);
        assert!(matches!(
            r.u32(),
            Err(StorageError::UnexpectedEof {
                wanted: 4,
                remaining: 2
            })
        ));
    }

    #[test]
    fn patching_offsets() {
        let mut w = ByteWriter::new();
        w.u16(0).u32(0).u8(9);
        w.patch_u32(2, 0xdead_beef);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u16().unwrap(), 0);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u8().unwrap(), 9);
    }

    #[test]
    fn len_bytes_round_trip() {
        let mut w = ByteWriter::new();
        w.len_bytes(b"hello");
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.len_bytes().unwrap(), b"hello");
    }

    proptest! {
        #[test]
        fn mixed_sequence_round_trip(vals in proptest::collection::vec(any::<u32>(), 0..100)) {
            let mut w = ByteWriter::new();
            for &v in &vals { w.u32(v); }
            let buf = w.into_vec();
            let mut r = ByteReader::new(&buf);
            for &v in &vals {
                prop_assert_eq!(r.u32().unwrap(), v);
            }
            prop_assert_eq!(r.remaining(), 0);
        }
    }
}
