//! Offline stand-in for the subset of `bytes` 1.x that coded-curtain uses.
//!
//! `Bytes` is a reference-counted `Vec<u8>` with a view window, so clones
//! and slices are O(1) as in the published crate; `BytesMut` is a `Vec<u8>`.

use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable, sliceable immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<Vec<u8>>>,
    stat: &'static [u8],
    off: usize,
    len: usize,
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes { data: None, stat: &[], off: 0, len: 0 }
    }

    pub const fn from_static(s: &'static [u8]) -> Self {
        Bytes { data: None, stat: s, off: 0, len: s.len() }
    }

    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        let start = match range.start_bound() {
            Included(&n) => n,
            Excluded(&n) => n + 1,
            Unbounded => 0,
        };
        let end = match range.end_bound() {
            Included(&n) => n + 1,
            Excluded(&n) => n,
            Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of range 0..{}",
            self.len
        );
        let mut out = self.clone();
        out.off += start;
        out.len = end - start;
        out
    }

    fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(v) => &v[self.off..self.off + self.len],
            None => &self.stat[self.off..self.off + self.len],
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes { data: Some(Arc::new(v)), stat: &[], off: 0, len }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.as_slice().to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        write!(f, "\"")
    }
}

/// Growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BytesMut {
    v: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { v: Vec::new() }
    }

    pub fn with_capacity(n: usize) -> Self {
        BytesMut { v: Vec::with_capacity(n) }
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.v)
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.v.extend_from_slice(s);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.v
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.v
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.v
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { v: s.to_vec() }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut { v }
    }
}

macro_rules! buf_get {
    ($($name:ident, $name_le:ident, $t:ty);*) => {$(
        fn $name(&mut self) -> $t {
            let mut b = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut b);
            <$t>::from_be_bytes(b)
        }
        fn $name_le(&mut self) -> $t {
            let mut b = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut b);
            <$t>::from_le_bytes(b)
        }
    )*};
}

/// Read cursor over contiguous bytes.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, n: usize);

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    buf_get!(get_u16, get_u16_le, u16; get_u32, get_u32_le, u32; get_u64, get_u64_le, u64);
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advance past end");
        self.off += n;
        self.len -= n;
    }
}

macro_rules! buf_put {
    ($($name:ident, $name_le:ident, $t:ty);*) => {$(
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_be_bytes());
        }
        fn $name_le(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Append-only writer.
pub trait BufMut {
    fn put_slice(&mut self, s: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    buf_put!(put_u16, put_u16_le, u16; put_u32, put_u32_le, u32; put_u64, put_u64_le, u64);
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.v.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}
