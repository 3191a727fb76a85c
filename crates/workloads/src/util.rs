//! Shared workload utilities: disjoint-write buffers and skewed samplers.

use std::cell::UnsafeCell;

/// A buffer that task-graph kernels write concurrently into *disjoint*
/// regions.
///
/// The task graph guarantees that no two concurrently-runnable nodes touch
/// the same elements (each node owns a block, and nodes sharing a block are
/// ordered by dependences). Rust cannot see that proof, so the buffer
/// exposes unsafe raw access with the invariant documented here — the
/// standard HPC pattern for dependence-carried disjointness.
pub struct SharedBuffer<T> {
    data: UnsafeCell<Vec<T>>,
}

// SAFETY: access discipline is delegated to callers per the type docs.
unsafe impl<T: Send> Send for SharedBuffer<T> {}
// SAFETY: as above — every cross-thread access goes through the unsafe
// accessors, whose contracts require disjointness.
unsafe impl<T: Send> Sync for SharedBuffer<T> {}

impl<T: Clone> SharedBuffer<T> {
    /// Creates a buffer of `n` copies of `init`.
    pub fn new(n: usize, init: T) -> Self {
        SharedBuffer {
            data: UnsafeCell::new(vec![init; n]),
        }
    }
}

impl<T> SharedBuffer<T> {
    /// Wraps an existing vector.
    pub fn from_vec(v: Vec<T>) -> Self {
        SharedBuffer {
            data: UnsafeCell::new(v),
        }
    }

    /// Length of the buffer.
    pub fn len(&self) -> usize {
        // SAFETY: the length is fixed at construction (no accessor grows
        // or shrinks the vector), so this read never races a write.
        unsafe { (*self.data.get()).len() }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shared read of the whole buffer.
    ///
    /// # Safety
    /// No concurrent `slice_mut` may overlap the read region; the caller's
    /// task graph must order writers before readers.
    pub unsafe fn slice(&self, lo: usize, hi: usize) -> &[T] {
        debug_assert!(lo <= hi && hi <= self.len());
        std::slice::from_raw_parts((*self.data.get()).as_ptr().add(lo), hi - lo)
    }

    /// Exclusive write access to `[lo, hi)`.
    ///
    /// # Safety
    /// The caller must guarantee no other thread reads or writes `[lo, hi)`
    /// concurrently (disjoint blocks + dependence ordering).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        debug_assert!(lo <= hi && hi <= self.len());
        std::slice::from_raw_parts_mut((*self.data.get()).as_mut_ptr().add(lo), hi - lo)
    }

    /// Reads element `i` through a raw pointer (no shared reference is
    /// created, so concurrent disjoint writes elsewhere in the buffer are
    /// permitted).
    ///
    /// # Safety
    /// No concurrent write to element `i` (the task graph must order the
    /// writer of `i` before this reader).
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len());
        *(*self.data.get()).as_ptr().add(i)
    }

    /// Writes element `i` through a raw pointer.
    ///
    /// # Safety
    /// No concurrent read of or write to element `i`.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len());
        *(*self.data.get()).as_mut_ptr().add(i) = v;
    }

    /// Consumes the buffer, returning the vector (requires `&mut self`, so
    /// no concurrent access can exist).
    pub fn into_vec(self) -> Vec<T> {
        self.data.into_inner()
    }

    /// Full snapshot by clone (safe: takes `&mut self`).
    pub fn to_vec(&mut self) -> Vec<T>
    where
        T: Clone,
    {
        // SAFETY: `&mut self` rules out any concurrent access.
        unsafe { (*self.data.get()).clone() }
    }
}

/// Deterministic discrete power-law sampler over `0..n`: value `k` has
/// probability ∝ `(k+1)^-alpha`. Implemented by inverse-transform on the
/// continuous Pareto and clamping; small `alpha` → heavy tail.
///
/// The inverse CDF is a `powf` per draw, so [`PowerLaw::new`] caches it in
/// a table of 4096 equal buckets over `u ∈ [0, 1)` (16 KiB, L1-resident).
/// A bucket holds a sample only when every `u` in it provably maps to
/// that sample: the closed form is monotone in `u`, so it suffices that
/// the `powf` values at the bucket's two edges, each widened outwards by
/// a relative margin of 1e-9, land in the same integer interval (or both
/// at the cap `n - 1`). `powf` errs by at most an ulp or so (≈ 2e-16
/// relative), far inside the margin, so the table never disagrees with
/// the formula it caches. Undecided buckets, where the sample changes
/// inside the bucket, fall back to the closed form. Most draws of a
/// head-heavy law land in decided buckets: the web-graph generator's
/// near-link law (n = 512, α = 1.8) falls back on ≈ 4 % of uniform draws.
///
/// A draw is a raw 64-bit random word, not a float: `u` is its top 53
/// bits as a fraction, the uniform `f64` that `rand`'s `gen::<f64>()`
/// makes of the same word, so its bucket is the word's top 12 bits and a
/// decided draw converts nothing to floating point.
pub struct PowerLaw {
    n: usize,
    exponent: f64,
    table: Box<[u32; PowerLaw::BUCKETS]>,
}

impl PowerLaw {
    /// Bits of a draw that index the sample table.
    const BUCKET_BITS: u32 = 12;
    /// Buckets of the sample table.
    const BUCKETS: usize = 1 << Self::BUCKET_BITS;
    /// Relative widening of each bucket edge's `powf` value before the
    /// bucket is decided.
    const MARGIN: f64 = 1e-9;
    /// Table entry of a bucket the closed form answers.
    const FALLBACK: u32 = u32::MAX;

    /// Creates a sampler over `0..n` with tail exponent `alpha > 1`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0 && alpha > 1.0, "need n > 0 and alpha > 1");
        let mut law = PowerLaw {
            n,
            exponent: 1.0 / (1.0 - alpha),
            table: Box::new([Self::FALLBACK; Self::BUCKETS]),
        };
        // powf at bucket edge i / BUCKETS, clamped as the closed form
        // clamps; the exponent is negative, so it falls as i grows.
        let mut left = law.power(0.0);
        for i in 0..Self::BUCKETS {
            let right = law.power((i + 1) as f64 / Self::BUCKETS as f64);
            let hi = law.cap(left * (1.0 + Self::MARGIN) - 1.0);
            let lo = law.cap(right * (1.0 - Self::MARGIN) - 1.0);
            if lo == hi && lo < Self::FALLBACK as usize {
                law.table[i] = lo as u32;
            }
            left = right;
        }
        law
    }

    /// Samples with the uniform `u ∈ [0, 1)` whose 53 bits are the top 53
    /// of the random word `bits`.
    #[inline]
    pub fn sample(&self, bits: u64) -> usize {
        // floor(u · 4096) for u = (bits >> 11) / 2^53.
        let entry = self.table[(bits >> (64 - Self::BUCKET_BITS)) as usize];
        if entry != Self::FALLBACK {
            return entry as usize;
        }
        self.closed_form(uniform(bits))
    }

    /// Inverse CDF of the continuous power law on [1, ∞), shifted to
    /// 0-base and capped at `n - 1`; any `u` outside `[1e-12, 1 - 1e-12]`
    /// is clamped into it.
    fn closed_form(&self, u: f64) -> usize {
        self.cap(self.power(u) - 1.0)
    }

    fn power(&self, u: f64) -> f64 {
        u.clamp(1e-12, 1.0 - 1e-12).powf(self.exponent)
    }

    /// The sample for `x = power(u) - 1`: monotone in `x`, with negatives
    /// and NaN at 0.
    fn cap(&self, x: f64) -> usize {
        (x as usize).min(self.n - 1)
    }
}

/// The uniform `u ∈ [0, 1)` of the random word `bits`: its top 53 bits as
/// a fraction, as `rand`'s `gen::<f64>()` makes it.
fn uniform(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Splits `n` items into `blocks` contiguous blocks; returns block `b`'s
/// range.
pub fn block_range(n: usize, blocks: usize, b: usize) -> std::ops::Range<usize> {
    debug_assert!(b < blocks);
    let base = n / blocks;
    let rem = n % blocks;
    let lo = b * base + b.min(rem);
    let len = base + usize::from(b < rem);
    lo..(lo + len).min(n)
}

/// The color that owns block `b` of `blocks` when data is distributed
/// across `p` workers: blocks are striped evenly, matching "each thread
/// initializes a unique region" with threads initializing equal shares of
/// the blocks.
pub fn block_owner(b: usize, blocks: usize, p: usize) -> usize {
    debug_assert!(b < blocks && p > 0);
    // Contiguous block→worker mapping, same convention as a static loop
    // over blocks.
    let base = blocks / p;
    let rem = blocks % p;
    // Worker w owns base + (w < rem) blocks, contiguously.
    let cutoff = rem * (base + 1);
    if base == 0 {
        // More workers than blocks: block b belongs to worker b.
        return b.min(p - 1);
    }
    if b < cutoff {
        b / (base + 1)
    } else {
        rem + (b - cutoff) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn shared_buffer_roundtrip() {
        let buf = SharedBuffer::new(8, 0u32);
        unsafe {
            buf.slice_mut(2, 5).copy_from_slice(&[1, 2, 3]);
        }
        assert_eq!(buf.into_vec(), vec![0, 0, 1, 2, 3, 0, 0, 0]);
    }

    #[test]
    fn power_law_is_skewed() {
        let pl = PowerLaw::new(10_000, 2.0);
        let mut rng = StdRng::seed_from_u64(42);
        let samples: Vec<usize> = (0..100_000).map(|_| pl.sample(rng.gen())).collect();
        let zeros = samples.iter().filter(|&&s| s == 0).count();
        let tail = samples.iter().filter(|&&s| s > 100).count();
        // Head-heavy: ~half the mass at 0, but a real tail exists.
        assert!(zeros > 30_000, "head too light: {zeros}");
        assert!(tail > 700, "tail too light: {tail}");
        assert!(samples.iter().all(|&s| s < 10_000));
    }

    #[test]
    fn heavier_alpha_means_lighter_tail() {
        let pl_heavy_tail = PowerLaw::new(100_000, 1.5);
        let pl_light_tail = PowerLaw::new(100_000, 3.0);
        let mut rng = StdRng::seed_from_u64(7);
        let words: Vec<u64> = (0..50_000).map(|_| rng.gen()).collect();
        let big = |pl: &PowerLaw| words.iter().filter(|&&w| pl.sample(w) > 1000).count();
        assert!(big(&pl_heavy_tail) > 10 * big(&pl_light_tail).max(1));
    }

    /// A draw is the word `rand` makes its `f64` of: both streams stay in
    /// step, and the fractions agree bit for bit.
    #[test]
    fn uniform_is_rands_f64_of_the_same_word() {
        let mut words = StdRng::seed_from_u64(5);
        let mut floats = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let u = uniform(words.gen());
            assert_eq!(u.to_bits(), floats.gen::<f64>().to_bits());
        }
    }

    #[test]
    fn table_equals_the_closed_form() {
        let mut rng = StdRng::seed_from_u64(4096);
        let random: Vec<u64> = (0..100_000).map(|_| rng.gen()).collect();
        // One step of the 53-bit fraction.
        let ulp = 1u64 << 11;
        let specials = [
            0,
            ulp,
            // u just below, at and just above the closed form's clamp.
            ((1e-12 * (1u64 << 53) as f64) as u64 - 1) << 11,
            ((1e-12 * (1u64 << 53) as f64) as u64) << 11,
            ((1e-12 * (1u64 << 53) as f64) as u64 + 1) << 11,
            u64::MAX - ulp,
            u64::MAX,
        ];
        // Every bucket edge, the fractions on either side of it, and the
        // lowest and highest word of the edge's fraction.
        let edges = (1..PowerLaw::BUCKETS as u64).flat_map(|i| {
            let w = i << (64 - PowerLaw::BUCKET_BITS);
            [w - ulp, w - 1, w, w + ulp - 1, w + ulp]
        });
        let words: Vec<u64> = edges.chain(specials).chain(random).collect();
        // Includes every law the web-graph presets build: degrees (n
        // 45 000 / 102 500 / 262 500 at α 2.4 / 1.7 / 2.4), hubs (16 at
        // α 2.2 / 1.8) and near links (87 / 200 / 512 at α 1.8).
        let ns = [
            1,
            2,
            3,
            16,
            87,
            200,
            512,
            1000,
            45_000,
            102_500,
            262_500,
            1 << 22,
        ];
        for n in ns {
            for alpha in [1.05, 1.5, 1.7, 1.8, 2.2, 2.4, 3.0, 8.0] {
                let pl = PowerLaw::new(n, alpha);
                for &w in &words {
                    let u = uniform(w);
                    assert_eq!(pl.sample(w), pl.closed_form(u), "n {n} α {alpha} u {u:e}");
                }
            }
        }
    }

    #[test]
    fn table_answers_most_near_link_draws() {
        let pl = PowerLaw::new(512, 1.8);
        let decided = pl
            .table
            .iter()
            .filter(|&&e| e != PowerLaw::FALLBACK)
            .count();
        // Buckets are equally likely under a uniform draw.
        let share = decided as f64 / PowerLaw::BUCKETS as f64;
        assert!(share >= 0.9, "table answers {share:.3} of draws");
    }

    #[test]
    fn block_ranges_partition() {
        for &(n, blocks) in &[(100usize, 7usize), (5, 8), (64, 64), (1000, 3)] {
            let mut seen = vec![false; n];
            for b in 0..blocks {
                for i in block_range(n, blocks, b) {
                    assert!(!seen[i]);
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "n={n} blocks={blocks}");
        }
    }

    #[test]
    fn block_owner_covers_all_workers_when_possible() {
        let blocks = 160;
        let p = 40;
        let owners: Vec<usize> = (0..blocks).map(|b| block_owner(b, blocks, p)).collect();
        // Every worker owns something, ownership is monotone (contiguous).
        for w in 0..p {
            assert!(owners.contains(&w), "worker {w} owns nothing");
        }
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        assert!(owners.iter().all(|&w| w < p));
    }

    #[test]
    fn block_owner_more_workers_than_blocks() {
        for b in 0..4 {
            assert_eq!(block_owner(b, 4, 16), b);
        }
    }

    #[test]
    fn block_owner_balance_within_one() {
        let blocks = 103;
        let p = 8;
        let mut counts = vec![0usize; p];
        for b in 0..blocks {
            counts[block_owner(b, blocks, p)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "{counts:?}");
    }
}
