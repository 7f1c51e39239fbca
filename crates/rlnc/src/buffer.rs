//! Pooled, reference-counted, alignment-aware symbol buffers.
//!
//! The data plane used to move every coefficient vector and payload through
//! fresh `Vec<u8>` allocations — one `to_vec()` per ingest, one `Vec` per
//! emitted packet, one full clone per innovation probe. This module replaces
//! that plumbing with two types:
//!
//! * [`PacketBuf`] — an immutable, cheaply-cloneable (`Arc`) view of a byte
//!   buffer. Packets, row-space rows, and recode snapshots all share these
//!   without copying. Copy-on-write mutation ([`PacketBuf::make_mut`]) and
//!   steal-if-unique conversion ([`PacketBuf::into_mut`]) mean the common
//!   case (no outstanding snapshot) mutates in place with zero copies.
//! * [`BufPool`] — a free-list of retired backing allocations. Dropping the
//!   last reference to a pooled buffer returns its storage to the pool;
//!   the next allocation of a compatible size reuses it (zeroed) instead of
//!   hitting the allocator. Packet ingest/emit at steady state therefore
//!   allocates nothing.
//!
//! Buffers are *alignment-aware*: the payload view starts at a 64-byte
//! boundary within the backing allocation, so the SIMD kernels in
//! `curtain_gf::kernels` see cache-line-aligned rows (the kernels tolerate
//! any alignment via unaligned loads; aligned rows are simply faster).
//!
//! Everything here is safe Rust: alignment is achieved by over-allocating
//! and offsetting, sharing by `Arc`, and recycling by a `Drop` impl with a
//! `Weak` back-reference to the pool (so buffers outliving their pool just
//! deallocate normally).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Rows are offset to start on a 64-byte boundary inside their backing
/// allocation: one cache line, and ≥ the widest SIMD vector we dispatch.
const ALIGN: usize = 64;

/// Upper bound on idle backing buffers a pool retains; beyond this, retired
/// storage is simply dropped. Bounds worst-case memory at
/// `max_idle × largest-buffer` while keeping steady-state traffic
/// allocation-free.
const DEFAULT_MAX_IDLE: usize = 256;

/// Counters describing pool effectiveness (for tests and bench output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from the free list.
    pub hits: u64,
    /// Allocations that had to go to the system allocator.
    pub misses: u64,
    /// Buffers returned to the free list on drop.
    pub recycled: u64,
    /// Buffers dropped because the free list was full.
    pub discarded: u64,
}

#[derive(Debug, Default)]
struct PoolShared {
    free: Mutex<Vec<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
    max_idle: usize,
}

impl PoolShared {
    fn recycle(&self, storage: Vec<u8>) {
        let mut free = self.free.lock().expect("pool mutex poisoned");
        if free.len() < self.max_idle {
            free.push(storage);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A recycling allocator for [`PacketBuf`] backing storage.
///
/// Cloning a `BufPool` is cheap and shares the same free list; threads of a
/// peer all hand out of one pool.
#[derive(Debug, Clone)]
pub struct BufPool {
    shared: Arc<PoolShared>,
}

impl Default for BufPool {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_IDLE)
    }
}

impl BufPool {
    /// Creates a pool retaining at most `max_idle` idle backing buffers.
    #[must_use]
    pub fn new(max_idle: usize) -> Self {
        BufPool { shared: Arc::new(PoolShared { max_idle, ..PoolShared::default() }) }
    }

    /// Allocates a zero-filled buffer of `len` bytes, reusing retired
    /// storage when a large-enough allocation is idle in the pool.
    #[must_use]
    pub fn alloc_zeroed(&self, len: usize) -> PacketBufMut {
        let need = len + ALIGN - 1;
        let reused = {
            let mut free = self.shared.free.lock().expect("pool mutex poisoned");
            let at = free.iter().position(|s| s.len() >= need);
            at.map(|i| free.swap_remove(i))
        };
        let storage = match reused {
            Some(mut s) => {
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                // Zeroing semantics: a recycled buffer must be
                // indistinguishable from a fresh allocation.
                s.fill(0);
                s
            }
            None => {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                vec![0u8; need.max(1)]
            }
        };
        let offset = aligned_offset(&storage);
        debug_assert!(offset + len <= storage.len());
        PacketBufMut {
            buf: PacketBuf {
                inner: Arc::new(Inner {
                    storage,
                    offset,
                    len,
                    pool: Arc::downgrade(&self.shared),
                }),
            },
        }
    }

    /// Allocates a buffer initialized with a copy of `data`.
    #[must_use]
    pub fn alloc_copy(&self, data: &[u8]) -> PacketBufMut {
        let mut buf = self.alloc_zeroed(data.len());
        buf.as_mut_slice().copy_from_slice(data);
        buf
    }

    /// Number of idle backing buffers currently held.
    #[must_use]
    pub fn idle(&self) -> usize {
        self.shared.free.lock().expect("pool mutex poisoned").len()
    }

    /// Snapshot of the pool's hit/miss/recycle counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            recycled: self.shared.recycled.load(Ordering::Relaxed),
            discarded: self.shared.discarded.load(Ordering::Relaxed),
        }
    }
}

/// Byte offset at which a 64-byte-aligned view starts inside `storage`.
///
/// `Vec` never moves its allocation unless it grows, and pooled storage is
/// never grown, so the offset stays valid for the storage's lifetime.
fn aligned_offset(storage: &[u8]) -> usize {
    let addr = storage.as_ptr() as usize;
    addr.wrapping_neg() % ALIGN
}

#[derive(Debug)]
struct Inner {
    storage: Vec<u8>,
    offset: usize,
    len: usize,
    /// Back-reference to the owning pool; `Weak` so a buffer outliving its
    /// pool simply deallocates.
    pool: Weak<PoolShared>,
}

impl Inner {
    fn slice(&self) -> &[u8] {
        &self.storage[self.offset..self.offset + self.len]
    }

    fn slice_mut(&mut self) -> &mut [u8] {
        let (o, l) = (self.offset, self.len);
        &mut self.storage[o..o + l]
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.recycle(std::mem::take(&mut self.storage));
        }
    }
}

/// An immutable, reference-counted byte buffer, optionally pool-backed.
///
/// Cloning bumps a refcount; the bytes are shared. Use
/// [`PacketBuf::into_mut`] / [`PacketBuf::make_mut`] for copy-on-write
/// mutation. Dereferences to `[u8]`.
#[derive(Clone)]
pub struct PacketBuf {
    inner: Arc<Inner>,
}

impl PacketBuf {
    /// An empty buffer (no allocation beyond the `Arc`).
    #[must_use]
    pub fn empty() -> Self {
        PacketBuf {
            inner: Arc::new(Inner { storage: Vec::new(), offset: 0, len: 0, pool: Weak::new() }),
        }
    }

    /// Wraps an owned `Vec` without copying (unpooled, possibly unaligned).
    #[must_use]
    pub fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        PacketBuf { inner: Arc::new(Inner { storage: v, offset: 0, len, pool: Weak::new() }) }
    }

    /// Copies a slice into a fresh unpooled buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from_vec(data.to_vec())
    }

    /// The bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        self.inner.slice()
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True iff the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Number of live references to the backing allocation (tests use this
    /// to prove no aliasing of buffers handed out as mutable).
    #[must_use]
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Converts to a mutable buffer, stealing the allocation if this is the
    /// only reference (zero-copy) and copying via `pool` otherwise.
    #[must_use]
    pub fn into_mut(self, pool: &BufPool) -> PacketBufMut {
        if Arc::strong_count(&self.inner) == 1 {
            PacketBufMut { buf: self }
        } else {
            pool.alloc_copy(self.as_slice())
        }
    }

    /// Copy-on-write mutable access: in-place when this is the only
    /// reference, otherwise the contents move to a fresh pooled buffer
    /// first. This is what lets row-space elimination mutate rows in place
    /// in the steady state while outstanding recode snapshots keep reading
    /// the old bytes.
    pub fn make_mut(&mut self, pool: &BufPool) -> &mut [u8] {
        if Arc::get_mut(&mut self.inner).is_none() {
            *self = pool.alloc_copy(self.as_slice()).freeze();
        }
        Arc::get_mut(&mut self.inner).expect("reference is unique after copy-out").slice_mut()
    }
}

impl std::ops::Deref for PacketBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PacketBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PacketBuf({} bytes)", self.len())
    }
}

impl PartialEq for PacketBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PacketBuf {}

impl From<Vec<u8>> for PacketBuf {
    fn from(v: Vec<u8>) -> Self {
        Self::from_vec(v)
    }
}

impl From<&[u8]> for PacketBuf {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl<const N: usize> From<[u8; N]> for PacketBuf {
    fn from(v: [u8; N]) -> Self {
        Self::copy_from_slice(&v)
    }
}

impl From<PacketBufMut> for PacketBuf {
    fn from(v: PacketBufMut) -> Self {
        v.freeze()
    }
}

/// A uniquely-owned, writable buffer; freeze into a [`PacketBuf`] to share.
///
/// Invariant: the wrapped `Arc` has exactly one strong reference, so mutable
/// access through `Arc::get_mut` always succeeds — aliasing of a live
/// mutable buffer is impossible by construction.
#[derive(Debug)]
pub struct PacketBufMut {
    buf: PacketBuf,
}

impl PacketBufMut {
    /// A zero-filled unpooled buffer (pool-miss fallback used by callers
    /// that have no pool in scope).
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        PacketBufMut { buf: PacketBuf::from_vec(vec![0u8; len]) }
    }

    /// The bytes, writable.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.buf.inner)
            .expect("PacketBufMut invariant: unique reference")
            .slice_mut()
    }

    /// The bytes, read-only.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        self.buf.as_slice()
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ends the write phase; the result can be cloned and shared.
    #[must_use]
    pub fn freeze(self) -> PacketBuf {
        self.buf
    }
}

impl std::ops::Deref for PacketBufMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for PacketBufMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zeroed_and_aligned() {
        let pool = BufPool::default();
        let buf = pool.alloc_zeroed(100);
        assert_eq!(buf.len(), 100);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(buf.as_slice().as_ptr() as usize % ALIGN, 0, "view must be 64-byte aligned");
    }

    #[test]
    fn recycle_after_drop_and_hit_on_reuse() {
        let pool = BufPool::default();
        let buf = pool.alloc_zeroed(512);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.idle(), 0);
        drop(buf);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.stats().recycled, 1);
        let again = pool.alloc_zeroed(512);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.idle(), 0);
        drop(again);
    }

    #[test]
    fn reused_buffer_is_zeroed() {
        let pool = BufPool::default();
        let mut buf = pool.alloc_zeroed(64);
        buf.as_mut_slice().fill(0xAB);
        drop(buf);
        let again = pool.alloc_zeroed(32);
        assert!(again.iter().all(|&b| b == 0), "recycled storage must be zeroed");
    }

    #[test]
    fn pool_miss_fallback_when_no_fit() {
        let pool = BufPool::default();
        drop(pool.alloc_zeroed(16)); // small idle buffer
        assert_eq!(pool.idle(), 1);
        // Too big for the idle storage: must fall back to fresh allocation.
        let big = pool.alloc_zeroed(4096);
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(pool.idle(), 1, "unfit idle buffer stays in the pool");
        drop(big);
    }

    #[test]
    fn max_idle_bounds_the_free_list() {
        let pool = BufPool::new(2);
        let bufs: Vec<_> = (0..4).map(|_| pool.alloc_zeroed(8)).collect();
        drop(bufs);
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.stats().discarded, 2);
    }

    #[test]
    fn live_buffers_never_alias() {
        let pool = BufPool::default();
        let mut a = pool.alloc_zeroed(64);
        let frozen = {
            let mut b = pool.alloc_zeroed(64);
            b.as_mut_slice().fill(7);
            b.freeze()
        };
        a.as_mut_slice().fill(9);
        // The frozen buffer must be unaffected by writes through `a`, and
        // each backing allocation has exactly the expected reference count.
        assert!(frozen.iter().all(|&b| b == 7));
        assert_eq!(frozen.ref_count(), 1);
        let clone = frozen.clone();
        assert_eq!(frozen.ref_count(), 2);
        assert_eq!(clone.as_slice(), frozen.as_slice());
    }

    #[test]
    fn into_mut_steals_when_unique() {
        let pool = BufPool::default();
        let frozen = pool.alloc_copy(b"hello").freeze();
        let before = pool.stats();
        let ptr = frozen.as_slice().as_ptr();
        let stolen = frozen.into_mut(&pool);
        assert_eq!(stolen.as_slice(), b"hello");
        assert_eq!(stolen.as_slice().as_ptr(), ptr, "unique buffer must be stolen, not copied");
        assert_eq!(pool.stats(), before, "no pool traffic for the steal");
    }

    #[test]
    fn into_mut_copies_when_shared() {
        let pool = BufPool::default();
        let frozen = pool.alloc_copy(b"shared").freeze();
        let keep = frozen.clone();
        let copy = frozen.into_mut(&pool);
        assert_eq!(copy.as_slice(), b"shared");
        assert_ne!(copy.as_slice().as_ptr(), keep.as_slice().as_ptr());
        assert_eq!(keep.ref_count(), 1, "original reference released");
    }

    #[test]
    fn make_mut_is_in_place_when_unique_and_cow_when_shared() {
        let pool = BufPool::default();
        let mut buf = pool.alloc_copy(&[1, 2, 3]).freeze();
        let ptr = buf.as_slice().as_ptr();
        buf.make_mut(&pool)[0] = 9;
        assert_eq!(buf.as_slice(), &[9, 2, 3]);
        assert_eq!(buf.as_slice().as_ptr(), ptr, "unique make_mut must be in place");

        let snapshot = buf.clone();
        buf.make_mut(&pool)[0] = 7;
        assert_eq!(buf.as_slice(), &[7, 2, 3]);
        assert_eq!(snapshot.as_slice(), &[9, 2, 3], "snapshot must keep old bytes");
        assert_eq!(snapshot.ref_count(), 1);
    }

    #[test]
    fn unpooled_buffers_skip_the_pool() {
        let pool = BufPool::default();
        let v: PacketBuf = vec![1u8, 2, 3].into();
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        drop(v);
        assert_eq!(pool.idle(), 0);
        let m = PacketBufMut::zeroed(4);
        assert_eq!(m.as_slice(), &[0u8; 4]);
    }

    #[test]
    fn buffers_survive_their_pool() {
        let pool = BufPool::default();
        let buf = pool.alloc_copy(b"outlive").freeze();
        drop(pool);
        assert_eq!(buf.as_slice(), b"outlive");
        drop(buf); // recycle target is gone; must simply deallocate
    }

    #[test]
    fn from_bytes_and_empty() {
        let b: PacketBuf = (&[5u8, 6][..]).into();
        assert_eq!(b.as_slice(), &[5, 6]);
        assert!(PacketBuf::empty().is_empty());
        assert_eq!(PacketBuf::empty(), PacketBuf::from_vec(Vec::new()));
    }

    #[test]
    fn pool_is_shared_across_clones() {
        let pool = BufPool::default();
        let handle = pool.clone();
        drop(handle.alloc_zeroed(10));
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.stats().recycled, 1);
    }
}
