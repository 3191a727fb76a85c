//! Fixed-size color bitset.

use crate::Color;

/// Number of words backing a [`ColorSet`].
const WORDS: usize = 4;

/// Maximum number of distinct valid colors (= maximum workers the runtime
/// supports). The paper's machine has 80 cores; 256 leaves headroom while
/// keeping the set four words so it can ride along in a deque entry.
pub const MAX_COLORS: usize = WORDS * 64;

/// A set of colors, stored as a fixed 256-bit mask.
///
/// This is the "fixed length array of boolean flags" the paper pushes onto
/// the color deque alongside each continuation (§III, *Color-aware GCC Cilk
/// Plus runtime*). Membership tests are one shift + mask; union is four ORs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ColorSet {
    words: [u64; WORDS],
}

impl ColorSet {
    /// The empty set.
    #[inline]
    pub const fn empty() -> Self {
        ColorSet { words: [0; WORDS] }
    }

    /// A set containing every valid color in `0..n`.
    pub fn all(n: usize) -> Self {
        let mut s = Self::empty();
        for c in 0..n.min(MAX_COLORS) {
            s.insert(Color(c as u16));
        }
        s
    }

    /// The singleton set `{c}`. Invalid colors produce the empty set, which
    /// makes a node with an invalid color unstealable by *colored* steals —
    /// precisely the Table III behaviour.
    #[inline]
    pub fn singleton(c: Color) -> Self {
        let mut s = Self::empty();
        s.insert(c);
        s
    }

    /// Inserts a color. Invalid colors are ignored.
    #[inline]
    pub fn insert(&mut self, c: Color) {
        if c.is_valid() {
            let i = c.0 as usize;
            self.words[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Removes a color if present.
    #[inline]
    pub fn remove(&mut self, c: Color) {
        if c.is_valid() {
            let i = c.0 as usize;
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Constant-time membership test — the thief-side check of a colored
    /// steal. Invalid colors are never members.
    #[inline]
    pub fn contains(&self, c: Color) -> bool {
        if !c.is_valid() {
            return false;
        }
        let i = c.0 as usize;
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set union (used to tag a continuation with every color reachable
    /// through it).
    #[inline]
    pub fn union(&self, other: &ColorSet) -> ColorSet {
        let mut words = [0u64; WORDS];
        for (w, (a, b)) in words
            .iter_mut()
            .zip(self.words.iter().zip(other.words.iter()))
        {
            *w = a | b;
        }
        ColorSet { words }
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(&self, other: &ColorSet) -> ColorSet {
        let mut words = [0u64; WORDS];
        for (w, (a, b)) in words
            .iter_mut()
            .zip(self.words.iter().zip(other.words.iter()))
        {
            *w = a & b;
        }
        ColorSet { words }
    }

    /// Whether the two sets share any color.
    #[inline]
    pub fn intersects(&self, other: &ColorSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of colors in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over member colors in increasing order.
    pub fn iter(&self) -> ColorSetIter {
        ColorSetIter {
            set: *self,
            word: 0,
        }
    }

    /// Raw words, for lock-free storage inside deque slots.
    #[inline]
    pub fn to_words(self) -> [u64; WORDS] {
        self.words
    }

    /// Reconstructs a set from raw words.
    #[inline]
    pub fn from_words(words: [u64; WORDS]) -> Self {
        ColorSet { words }
    }
}

impl FromIterator<Color> for ColorSet {
    fn from_iter<I: IntoIterator<Item = Color>>(iter: I) -> Self {
        let mut s = ColorSet::empty();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

impl std::fmt::Debug for ColorSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`ColorSet`].
pub struct ColorSetIter {
    set: ColorSet,
    word: usize,
}

impl Iterator for ColorSetIter {
    type Item = Color;

    fn next(&mut self) -> Option<Color> {
        while self.word < WORDS {
            let w = self.set.words[self.word];
            if w == 0 {
                self.word += 1;
                continue;
            }
            let bit = w.trailing_zeros() as usize;
            self.set.words[self.word] &= w - 1; // clear lowest set bit
            return Some(Color((self.word * 64 + bit) as u16));
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.set.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for ColorSetIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_set_basics() {
        let s = ColorSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(Color(0)));
    }

    #[test]
    fn singleton_and_membership() {
        let s = ColorSet::singleton(Color(77));
        assert!(s.contains(Color(77)));
        assert!(!s.contains(Color(76)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Color(77)]);
    }

    #[test]
    fn invalid_color_never_member() {
        let mut s = ColorSet::empty();
        s.insert(Color::INVALID);
        assert!(s.is_empty());
        assert!(!s.contains(Color::INVALID));
        assert!(ColorSet::singleton(Color::INVALID).is_empty());
    }

    #[test]
    fn all_covers_range() {
        let s = ColorSet::all(80);
        assert_eq!(s.len(), 80);
        assert!(s.contains(Color(0)));
        assert!(s.contains(Color(79)));
        assert!(!s.contains(Color(80)));
    }

    #[test]
    fn all_saturates_at_max() {
        let s = ColorSet::all(MAX_COLORS + 50);
        assert_eq!(s.len(), MAX_COLORS);
    }

    #[test]
    fn union_and_intersection() {
        let a: ColorSet = [Color(1), Color(2), Color(200)].into_iter().collect();
        let b: ColorSet = [Color(2), Color(3)].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(u.len(), 4);
        let i = a.intersection(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![Color(2)]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&ColorSet::singleton(Color(9))));
    }

    #[test]
    fn remove_works() {
        let mut s = ColorSet::all(4);
        s.remove(Color(2));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![Color(0), Color(1), Color(3)]
        );
        s.remove(Color(2)); // idempotent
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn words_roundtrip() {
        let s: ColorSet = [Color(0), Color(63), Color(64), Color(255)]
            .into_iter()
            .collect();
        assert_eq!(ColorSet::from_words(s.to_words()), s);
    }

    #[test]
    fn iterator_order_is_sorted() {
        let s: ColorSet = [Color(200), Color(5), Color(64), Color(63)]
            .into_iter()
            .collect();
        let v: Vec<u16> = s.iter().map(|c| c.0).collect();
        assert_eq!(v, vec![5, 63, 64, 200]);
    }

    proptest! {
        #[test]
        fn prop_insert_then_contains(cs in proptest::collection::vec(0u16..MAX_COLORS as u16, 0..64)) {
            let set: ColorSet = cs.iter().map(|&c| Color(c)).collect();
            for &c in &cs {
                prop_assert!(set.contains(Color(c)));
            }
            let mut sorted: Vec<u16> = cs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(set.len(), sorted.len());
            prop_assert_eq!(set.iter().map(|c| c.0).collect::<Vec<_>>(), sorted);
        }

        #[test]
        fn prop_union_is_commutative_and_contains_both(
            a in proptest::collection::vec(0u16..MAX_COLORS as u16, 0..32),
            b in proptest::collection::vec(0u16..MAX_COLORS as u16, 0..32),
        ) {
            let sa: ColorSet = a.iter().map(|&c| Color(c)).collect();
            let sb: ColorSet = b.iter().map(|&c| Color(c)).collect();
            prop_assert_eq!(sa.union(&sb), sb.union(&sa));
            let u = sa.union(&sb);
            for &c in a.iter().chain(b.iter()) {
                prop_assert!(u.contains(Color(c)));
            }
        }

        #[test]
        fn prop_intersects_agrees_with_intersection(
            a in proptest::collection::vec(0u16..MAX_COLORS as u16, 0..32),
            b in proptest::collection::vec(0u16..MAX_COLORS as u16, 0..32),
        ) {
            let sa: ColorSet = a.iter().map(|&c| Color(c)).collect();
            let sb: ColorSet = b.iter().map(|&c| Color(c)).collect();
            prop_assert_eq!(sa.intersects(&sb), !sa.intersection(&sb).is_empty());
        }

        #[test]
        fn prop_remove_inverse_of_insert(c in 0u16..MAX_COLORS as u16) {
            let mut s = ColorSet::all(MAX_COLORS);
            s.remove(Color(c));
            prop_assert!(!s.contains(Color(c)));
            prop_assert_eq!(s.len(), MAX_COLORS - 1);
            s.insert(Color(c));
            prop_assert_eq!(s, ColorSet::all(MAX_COLORS));
        }
    }
}
