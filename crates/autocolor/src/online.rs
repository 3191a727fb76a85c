//! Online coloring for on-demand execution: predecessor-majority voting
//! with a per-color load cap.
//!
//! The dynamic Nabbit protocol discovers tasks lazily from a sink key, so
//! no static assigner can see the whole graph up front. [`OnlineAssigner`]
//! colors each key the first time it is asked, using only information
//! already available at that moment: the colors of whichever predecessors
//! have been colored before it, plus *discovery hints* — when a key is
//! colored, its not-yet-colored predecessors each receive the chosen
//! color as a vote-in-waiting. The hints matter because on-demand
//! exploration runs **sink-first**: a key is usually colored before any
//! of its predecessors, so predecessor votes alone would always be empty
//! and every key would fall through to the least-loaded fallback. With
//! hints, a discovery chain inherits the sink's color upward — the online
//! analogue of [`BfsLocality`](crate::BfsLocality)'s chain inheritance —
//! unless the color already carries more than its capped share of the
//! keys seen so far, in which case the key spills to the least-loaded
//! color (which is also where hintless, predecessor-less keys land).

use nabbitc_color::Color;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::RwLock;

/// Per-color capacity as a multiple of the even share: tighter means
/// better balance, looser means longer affinity chains.
const CAP_SLACK: f64 = 1.2;

/// The voting core: picks a color for one key given its voters' colors,
/// current per-color key counts, and a cap on the preferred color's count
/// once it takes the key.
fn vote(pred_colors: &[usize], loads: &[u64], cap: u64) -> usize {
    let workers = loads.len();
    let mut counts = vec![0u32; workers];
    let mut best: Option<usize> = None;
    for &c in pred_colors {
        counts[c] += 1;
        let better = match best {
            None => true,
            Some(b) => counts[c] > counts[b] || (counts[c] == counts[b] && loads[c] < loads[b]),
        };
        if better {
            best = Some(c);
        }
    }
    match best {
        Some(c) if loads[c] < cap => c,
        _ => (0..workers).min_by_key(|&c| loads[c]).expect("workers > 0"),
    }
}

/// Thread-safe online colorer for dynamically discovered keys.
///
/// `color_for` is idempotent per key (the first call decides; later calls
/// return the cached color), which matches the dynamic executor's contract
/// that `TaskSpec::color` is a pure function of the key.
pub struct OnlineAssigner<K> {
    workers: usize,
    // RwLock, not Mutex: executors re-ask for already-colored keys on hot
    // paths (remote-access accounting resolves every predecessor's color
    // per node), and those repeat lookups take only the read lock.
    state: RwLock<OnlineState<K>>,
}

struct OnlineState<K> {
    assigned: HashMap<K, Color>,
    /// Discovery hints: colors of already-colored *successors* of a
    /// not-yet-colored key, deposited when the successor was colored and
    /// drained when the key itself is. See module docs.
    hints: HashMap<K, Vec<usize>>,
    loads: Vec<u64>,
    total: u64,
}

impl<K: Eq + Hash + Clone> OnlineAssigner<K> {
    /// An assigner for `workers` colors. Any color's share of the keys
    /// seen so far is bounded by 1.2 × `total/workers` (`CAP_SLACK`).
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        OnlineAssigner {
            workers,
            state: RwLock::new(OnlineState {
                assigned: HashMap::new(),
                hints: HashMap::new(),
                loads: vec![0; workers],
                total: 0,
            }),
        }
    }

    /// The color for `key`, deciding it on first call. `pred_keys` are the
    /// key's predecessors; only those already colored vote.
    pub fn color_for(&self, key: &K, pred_keys: &[K]) -> Color {
        self.color_for_with(key, || pred_keys.to_vec())
    }

    /// Like [`color_for`](Self::color_for), but computes the predecessor
    /// list lazily — it is skipped entirely when `key` is already colored,
    /// which matters for executors that ask for a key's color many times.
    pub fn color_for_with(&self, key: &K, pred_keys: impl FnOnce() -> Vec<K>) -> Color {
        // Fast path: repeat lookups take the read lock only.
        if let Some(&c) = self
            .state
            .read()
            .expect("online assigner lock")
            .assigned
            .get(key)
        {
            return c;
        }
        let preds = pred_keys();
        let mut st = self.state.write().expect("online assigner lock");
        if let Some(&c) = st.assigned.get(key) {
            return c; // raced with another worker deciding the same key
        }
        // Votes: colored predecessors, plus discovery hints left by
        // already-colored successors (under sink-first exploration the
        // hints are usually the only votes — see module docs).
        let mut votes: Vec<usize> = preds
            .iter()
            .filter_map(|k| st.assigned.get(k).map(|c| c.index()))
            .collect();
        if let Some(hinted) = st.hints.remove(key) {
            votes.extend(hinted);
        }
        // Cap over keys seen so far (+1 for this key): every color may
        // hold at most its slacked even share — floored at one *more* than
        // the even share, so affinity can form while totals are tiny (with
        // one key seen, a strict share of ceil(2/workers)=1 would forbid
        // any color from ever taking a second key).
        let even = (st.total + 1).div_ceil(self.workers as u64);
        let cap = ((even as f64 * CAP_SLACK).ceil() as u64).max(even + 1);
        let chosen = vote(&votes, &st.loads, cap);
        let color = Color::from(chosen);
        st.assigned.insert(key.clone(), color);
        st.loads[chosen] += 1;
        st.total += 1;
        // Seed this key's color into its not-yet-colored predecessors:
        // when exploration reaches them, they inherit unless capped.
        for pk in preds {
            if !st.assigned.contains_key(&pk) {
                st.hints.entry(pk).or_default().push(chosen);
            }
        }
        color
    }

    /// Number of keys colored so far.
    pub fn assigned_count(&self) -> usize {
        self.state.read().expect("online assigner lock").total as usize
    }

    /// Snapshot of per-color key counts.
    pub fn loads(&self) -> Vec<u64> {
        self.state
            .read()
            .expect("online assigner lock")
            .loads
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_is_idempotent_per_key() {
        let a: OnlineAssigner<u32> = OnlineAssigner::new(4);
        let c1 = a.color_for(&7, &[]);
        let c2 = a.color_for(&7, &[1, 2, 3]); // preds ignored on re-ask
        assert_eq!(c1, c2);
        assert_eq!(a.assigned_count(), 1);
    }

    #[test]
    fn online_follows_predecessor_majority() {
        let a: OnlineAssigner<u32> = OnlineAssigner::new(4);
        let c0 = a.color_for(&0, &[]);
        let c1 = a.color_for(&1, &[0]);
        assert_eq!(c0, c1, "child should inherit its only parent's color");
    }

    #[test]
    fn online_cap_spreads_a_long_chain() {
        let a: OnlineAssigner<u32> = OnlineAssigner::new(4);
        let mut prev: Option<u32> = None;
        for k in 0..400u32 {
            let preds: Vec<u32> = prev.into_iter().collect();
            a.color_for(&k, &preds);
            prev = Some(k);
        }
        let loads = a.loads();
        assert_eq!(loads.iter().sum::<u64>(), 400);
        let max = *loads.iter().max().unwrap();
        assert!(max <= 150, "cap should spread the chain: {loads:?}");
        assert!(loads.iter().all(|&l| l > 0), "{loads:?}");
    }

    #[test]
    fn online_sink_first_discovery_inherits_via_hints() {
        // The dynamic executor colors a key *before* its predecessors
        // (sink-first exploration), so predecessor votes alone are always
        // empty. The discovery hints must carry the affinity instead:
        // walking a 400-key chain from the sink down must inherit colors
        // most of the time, not fall to least-loaded (round-robin) on
        // every key.
        let a: OnlineAssigner<u32> = OnlineAssigner::new(4);
        let mut colors = Vec::new();
        for k in (0..400u32).rev() {
            let preds: Vec<u32> = if k > 0 { vec![k - 1] } else { vec![] };
            colors.push(a.color_for(&k, &preds));
        }
        let changes = colors.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            changes <= 200,
            "sink-first chain should mostly inherit; {changes} color changes in 400 keys"
        );
        let loads = a.loads();
        assert!(loads.iter().all(|&l| l > 0), "{loads:?}");
        assert_eq!(loads.iter().sum::<u64>(), 400);
    }

    #[test]
    fn online_valid_colors_only() {
        let a: OnlineAssigner<(usize, usize)> = OnlineAssigner::new(3);
        for i in 0..50 {
            for j in 0..3 {
                let preds = if i > 0 { vec![(i - 1, j)] } else { vec![] };
                let c = a.color_for(&(i, j), &preds);
                assert!(c.is_valid() && c.index() < 3);
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_worker_online_assigner_panics() {
        let _: OnlineAssigner<u32> = OnlineAssigner::new(0);
    }
}
