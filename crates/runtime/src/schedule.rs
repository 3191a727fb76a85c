//! The paper's two OpenMP loop schedules, stated once for the threaded
//! team (`nabbitc_parfor::Team`) and the simulator (`numasim::ompsim`),
//! as [`policy::Thief`](crate::policy::Thief) states the steal policy once
//! for the pool and `numasim::wsim`.

/// How an OpenMP `parallel for` divides its iteration space among a
/// persistent team of `threads` pinned threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OmpSchedule {
    /// OPENMPSTATIC, `schedule(static)`: thread `t` runs the contiguous
    /// block [`static_range`](Self::static_range)`(n, threads, t)`. The
    /// mapping is the same in every loop of the same length, so data first
    /// touched by one static loop is local to every later one.
    Static,
    /// OPENMPGUIDED, `schedule(guided)`: whichever thread is free claims
    /// the next [`guided_chunk`](Self::guided_chunk) iterations off a
    /// shared cursor — load balance, no locality control.
    Guided,
}

impl OmpSchedule {
    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OmpSchedule::Static => "omp-static",
            OmpSchedule::Guided => "omp-guided",
        }
    }

    /// The iterations thread `t` of `threads` runs in a static loop of `n`
    /// iterations: even contiguous blocks, the remainder spread one
    /// iteration each over the first threads, as libgomp does.
    pub fn static_range(n: usize, threads: usize, t: usize) -> std::ops::Range<usize> {
        debug_assert!(t < threads);
        let base = n / threads;
        let rem = n % threads;
        let lo = t * base + t.min(rem);
        let len = base + usize::from(t < rem);
        lo..(lo + len).min(n)
    }

    /// Iterations one guided claim takes when `remaining` are left:
    /// `max(remaining / threads, 1)` (OpenMP's default minimum chunk).
    pub fn guided_chunk(remaining: usize, threads: usize) -> usize {
        (remaining / threads).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_ranges_partition_exactly() {
        for &(n, p) in &[(10usize, 3usize), (0, 4), (7, 7), (5, 8), (100, 1), (16, 4)] {
            let mut covered = vec![0u32; n];
            for t in 0..p {
                for i in OmpSchedule::static_range(n, p, t) {
                    covered[i] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "n={n} p={p}");
        }
    }

    #[test]
    fn static_ranges_are_contiguous_and_ordered() {
        let n = 103;
        let p = 8;
        let mut next = 0;
        for t in 0..p {
            let r = OmpSchedule::static_range(n, p, t);
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, n);
    }

    #[test]
    fn static_balance_within_one() {
        let n = 103;
        let p = 8;
        let sizes: Vec<usize> = (0..p)
            .map(|t| OmpSchedule::static_range(n, p, t).len())
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn guided_chunks_shrink_to_one() {
        assert_eq!(OmpSchedule::guided_chunk(100, 4), 25);
        assert_eq!(OmpSchedule::guided_chunk(75, 4), 18);
        assert_eq!(OmpSchedule::guided_chunk(3, 4), 1);
        assert_eq!(OmpSchedule::guided_chunk(1, 1), 1);
    }

    #[test]
    fn names() {
        assert_eq!(OmpSchedule::Static.name(), "omp-static");
        assert_eq!(OmpSchedule::Guided.name(), "omp-guided");
    }
}
