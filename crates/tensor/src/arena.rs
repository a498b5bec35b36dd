//! Per-worker scratch arenas: recycled, typed buffers for every per-call
//! allocation on the frozen inference hot path.
//!
//! Each OS thread that executes kernel work — executor pool workers, serve
//! session workers, or a client thread calling the engine directly — owns
//! one thread-local arena. Checkout is by element type ([`take_f32`] /
//! [`take_i8`] / [`take_i32`], plus [`take_tensor`] for tensor-shaped
//! psum/activation scratch, which is just an `f32` slab with a shape
//! attached), and buffers are handed back with the matching `put_*` call so
//! the capacity is reused by the next layer on the same worker.
//!
//! An arena never gives capacity back: its footprint is the largest working
//! set its thread has had in flight, which the serving layer's batch cap
//! bounds. [`global_peak_bytes`] reports the largest footprint any one
//! arena has held.
//!
//! # Checkout is by value
//!
//! `take_*` transfers ownership of a plain `Vec` (or [`Tensor`]) rather than
//! lending a borrow, so checkout is re-entrant: a conv that holds its im2col
//! buffer can call into a kernel that checks out more scratch on the same
//! thread without aliasing trouble. If a task panics between `take` and
//! `put`, the buffer is simply dropped — the arena loses a recycled buffer,
//! never its integrity.

use std::cell::RefCell;
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::Tensor;

/// Process-wide high-water mark of bytes held by any single arena.
static GLOBAL_PEAK: AtomicUsize = AtomicUsize::new(0);

/// The largest number of scratch bytes any single arena has held (checked
/// out + retained free capacity) since process start. Debug stat.
pub fn global_peak_bytes() -> usize {
    GLOBAL_PEAK.load(Ordering::Relaxed)
}

/// One type's recycled buffers.
struct Slab<T> {
    free: Vec<Vec<T>>,
}

impl<T: Clone + Default> Slab<T> {
    const fn new() -> Self {
        Self { free: Vec::new() }
    }

    /// Takes the best-fitting free buffer (smallest capacity ≥ `len`, else
    /// the largest available) resized to exactly `len` elements, and the
    /// capacity it had while retained. Contents of the reused prefix are
    /// stale unless `zero` is set.
    fn take(&mut self, len: usize, zero: bool) -> (Vec<T>, usize) {
        let pick = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= len)
            .min_by_key(|(_, v)| v.capacity())
            .or_else(|| {
                self.free
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, v)| v.capacity())
            })
            .map(|(i, _)| i);
        let mut v = match pick {
            Some(i) => self.free.swap_remove(i),
            None => Vec::new(),
        };
        let retained = v.capacity();
        if zero {
            v.clear();
        }
        v.resize(len, T::default());
        (v, retained)
    }
}

/// A per-worker pool of recycled scratch buffers, one slab per element
/// type, with footprint accounting for [`global_peak_bytes`].
struct Arena {
    f32s: Slab<f32>,
    i8s: Slab<i8>,
    i32s: Slab<i32>,
    /// Capacity bytes currently checked out.
    out_bytes: usize,
    /// Capacity bytes retained in the slabs.
    held_bytes: usize,
    /// High-water of `out_bytes + held_bytes`.
    peak_bytes: usize,
}

/// An element type the arena recycles: picks its slab.
trait Scratch: Clone + Default + Sized {
    fn slab(arena: &mut Arena) -> &mut Slab<Self>;
}

impl Scratch for f32 {
    fn slab(arena: &mut Arena) -> &mut Slab<Self> {
        &mut arena.f32s
    }
}

impl Scratch for i8 {
    fn slab(arena: &mut Arena) -> &mut Slab<Self> {
        &mut arena.i8s
    }
}

impl Scratch for i32 {
    fn slab(arena: &mut Arena) -> &mut Slab<Self> {
        &mut arena.i32s
    }
}

impl Arena {
    const fn new() -> Self {
        Self {
            f32s: Slab::new(),
            i8s: Slab::new(),
            i32s: Slab::new(),
            out_bytes: 0,
            held_bytes: 0,
            peak_bytes: 0,
        }
    }

    fn take<T: Scratch>(&mut self, len: usize, zero: bool) -> Vec<T> {
        let (v, retained) = T::slab(self).take(len, zero);
        self.held_bytes -= retained * size_of::<T>();
        self.out_bytes += v.capacity() * size_of::<T>();
        let footprint = self.out_bytes + self.held_bytes;
        if footprint > self.peak_bytes {
            self.peak_bytes = footprint;
            GLOBAL_PEAK.fetch_max(footprint, Ordering::Relaxed);
        }
        v
    }

    fn put<T: Scratch>(&mut self, v: Vec<T>) {
        let bytes = v.capacity() * size_of::<T>();
        self.out_bytes = self.out_bytes.saturating_sub(bytes);
        if bytes > 0 {
            self.held_bytes += bytes;
            T::slab(self).free.push(v);
        }
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = const { RefCell::new(Arena::new()) };
}

fn take<T: Scratch>(len: usize, zero: bool) -> Vec<T> {
    ARENA.with(|a| a.borrow_mut().take(len, zero))
}

fn put<T: Scratch>(v: Vec<T>) {
    ARENA.with(|a| a.borrow_mut().put(v));
}

/// Checks out an `f32` buffer (stale contents) from this thread's arena.
pub fn take_f32(len: usize) -> Vec<f32> {
    take(len, false)
}

/// Returns an `f32` buffer to this thread's arena.
pub fn put_f32(v: Vec<f32>) {
    put(v);
}

/// Checks out an `i8` buffer (stale contents) from this thread's arena.
pub fn take_i8(len: usize) -> Vec<i8> {
    take(len, false)
}

/// Returns an `i8` buffer to this thread's arena.
pub fn put_i8(v: Vec<i8>) {
    put(v);
}

/// Checks out an `i32` buffer (stale contents) from this thread's arena.
pub fn take_i32(len: usize) -> Vec<i32> {
    take(len, false)
}

/// Returns an `i32` buffer to this thread's arena.
pub fn put_i32(v: Vec<i32>) {
    put(v);
}

/// Checks out a zero-filled tensor of `shape` from this thread's arena,
/// reusing recycled `f32` capacity.
pub fn take_tensor(shape: &[usize]) -> Tensor {
    Tensor::from_vec(take(shape.iter().product(), true), shape)
}

/// Returns a tensor's storage to this thread's arena.
pub fn put_tensor(t: Tensor) {
    put(t.into_vec());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_reuses_capacity() {
        let mut a = Arena::new();
        let v: Vec<f32> = a.take(1024, true);
        assert!(v.iter().all(|&x| x == 0.0));
        let cap = v.capacity();
        let ptr = v.as_ptr();
        a.put(v);
        let v2: Vec<f32> = a.take(512, false);
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut a = Arena::new();
        let big: Vec<f32> = a.take(4096, false);
        let small: Vec<f32> = a.take(64, false);
        let (big_cap, small_cap) = (big.capacity(), small.capacity());
        a.put(big);
        a.put(small);
        let v: Vec<f32> = a.take(32, false);
        assert_eq!(v.capacity(), small_cap);
        let v2: Vec<f32> = a.take(2048, false);
        assert_eq!(v2.capacity(), big_cap);
    }

    #[test]
    fn tensor_checkout_is_zeroed_and_shaped() {
        let mut t = take_tensor(&[2, 3]);
        t.data_mut().fill(5.0);
        put_tensor(t);
        let t2 = take_tensor(&[3, 2]);
        assert_eq!(t2.shape(), &[3, 2]);
        assert!(t2.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn burst_capacity_is_kept_across_small_traffic() {
        // A 1 MiB buffer, marked so that its reuse is visible...
        let mut burst = take_f32(1 << 18);
        burst[0] = 7.0;
        let ptr = burst.as_ptr();
        put_f32(burst);
        // ...outlives a long stretch of small round trips...
        for _ in 0..2 * 256 {
            let v = take_i8(128);
            let w = take_f32(256);
            put_i8(v);
            put_f32(w);
        }
        // ...and the next burst gets the same buffer back.
        let again = take_f32(1 << 18);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again[0], 7.0);
    }

    #[test]
    fn thread_local_roundtrip() {
        let v = take_f32(100);
        assert_eq!(v.len(), 100);
        let bytes = v.capacity() * 4;
        put_f32(v);
        ARENA.with(|a| {
            let a = a.borrow();
            assert_eq!((a.out_bytes, a.held_bytes), (0, bytes));
            assert_eq!(a.peak_bytes, bytes);
        });
        assert!(global_peak_bytes() >= bytes);
    }
}
