//! Row subsets used by sequential-covering learners.

/// An ordered set of row indexes into a [`crate::Dataset`].
///
/// Sequential covering repeatedly removes covered rows from the working set;
/// `RowSet` keeps indexes sorted ascending so membership masks, differences
/// and deterministic iteration are cheap and allocation patterns predictable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowSet {
    rows: Vec<u32>,
}

impl RowSet {
    /// The full row set `0..n`.
    pub fn all(n: usize) -> Self {
        RowSet {
            rows: (0..crate::index::to_u32(n, "row count")).collect(),
        }
    }

    /// An empty row set.
    pub fn empty() -> Self {
        RowSet::default()
    }

    /// Builds from a vector of indexes; sorts and deduplicates.
    pub fn from_vec(mut rows: Vec<u32>) -> Self {
        rows.sort_unstable();
        rows.dedup();
        RowSet { rows }
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The sorted row indexes.
    pub fn as_slice(&self) -> &[u32] {
        &self.rows
    }

    /// Iterates the rows in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.rows.iter().copied()
    }

    /// Membership test by binary search.
    pub fn contains(&self, row: u32) -> bool {
        self.rows.binary_search(&row).is_ok()
    }

    /// Rows of `self` for which `keep` returns true.
    pub fn filter(&self, mut keep: impl FnMut(u32) -> bool) -> RowSet {
        RowSet {
            rows: self.rows.iter().copied().filter(|&r| keep(r)).collect(),
        }
    }

    /// Set difference `self \ other`; both operands are sorted, so this is a
    /// single merge pass.
    pub fn difference(&self, other: &RowSet) -> RowSet {
        let mut out = Vec::with_capacity(self.rows.len().saturating_sub(other.rows.len()));
        let mut j = 0;
        for &r in &self.rows {
            while j < other.rows.len() && other.rows[j] < r {
                j += 1;
            }
            if j >= other.rows.len() || other.rows[j] != r {
                out.push(r);
            }
        }
        RowSet { rows: out }
    }

    /// Set union; single merge pass.
    pub fn union(&self, other: &RowSet) -> RowSet {
        let mut out = Vec::with_capacity(self.rows.len() + other.rows.len());
        let (a, b) = (&self.rows, &other.rows);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        RowSet { rows: out }
    }

    /// Set intersection; single merge pass.
    pub fn intersection(&self, other: &RowSet) -> RowSet {
        let mut out = Vec::new();
        let (a, b) = (&self.rows, &other.rows);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        RowSet { rows: out }
    }

    /// Sum of `weights[row]` over the set, in row-set order.
    pub fn total_weight(&self, weights: &[f64]) -> f64 {
        crate::weights::ordered_sum(self.rows.iter().map(|&r| weights[r as usize]))
    }
}

/// The entries of `source` that are members of `rows`, in `source`'s
/// order; `rows` holds sorted unique row ids below `n_rows`.
///
/// The members are marked in a bitmap of `n_rows` bits first, so the
/// filter is one pass over each slice, `O(n_rows/64 + |rows| + |source|)`,
/// where a [`RowSet::contains`] per entry costs a binary search. Sorted
/// projections restrict a sorted row list (the global sort index or an
/// ancestor view's projection) to a subset through it, keeping its order.
pub fn filter_members(source: &[u32], rows: &[u32], n_rows: usize) -> Vec<u32> {
    let mut bits = vec![0u64; n_rows.div_ceil(64)];
    for &r in rows {
        bits[r as usize / 64] |= 1 << (r % 64);
    }
    let mut out = Vec::with_capacity(rows.len());
    out.extend(
        source
            .iter()
            .copied()
            .filter(|&r| bits[r as usize / 64] >> (r % 64) & 1 == 1),
    );
    out
}

impl FromIterator<u32> for RowSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        RowSet::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_empty() {
        assert_eq!(RowSet::all(3).as_slice(), &[0, 1, 2]);
        assert!(RowSet::empty().is_empty());
    }

    #[test]
    fn from_vec_sorts_and_dedups() {
        let s = RowSet::from_vec(vec![3, 1, 3, 0]);
        assert_eq!(s.as_slice(), &[0, 1, 3]);
    }

    #[test]
    fn contains_uses_sorted_order() {
        let s = RowSet::from_vec(vec![5, 1, 9]);
        assert!(s.contains(5));
        assert!(!s.contains(4));
    }

    #[test]
    fn difference_removes_members() {
        let a = RowSet::from_vec(vec![0, 1, 2, 3, 4]);
        let b = RowSet::from_vec(vec![1, 3, 7]);
        assert_eq!(a.difference(&b).as_slice(), &[0, 2, 4]);
        assert_eq!(b.difference(&a).as_slice(), &[7]);
        assert_eq!(a.difference(&RowSet::empty()), a);
    }

    #[test]
    fn union_merges_without_duplicates() {
        let a = RowSet::from_vec(vec![0, 2, 4]);
        let b = RowSet::from_vec(vec![1, 2, 5]);
        assert_eq!(a.union(&b).as_slice(), &[0, 1, 2, 4, 5]);
    }

    #[test]
    fn intersection_keeps_common() {
        let a = RowSet::from_vec(vec![0, 2, 4, 6]);
        let b = RowSet::from_vec(vec![2, 3, 6]);
        assert_eq!(a.intersection(&b).as_slice(), &[2, 6]);
    }

    #[test]
    fn filter_members_keeps_source_order_across_words() {
        // Members on both sides of the 64-bit word boundaries.
        let rows = [0u32, 63, 64, 127, 128, 129];
        let source = [129u32, 5, 64, 200, 63, 128, 0, 65, 127];
        assert_eq!(
            filter_members(&source, &rows, 201),
            vec![129, 64, 63, 128, 0, 127]
        );
        assert!(filter_members(&source, &[], 201).is_empty());
        assert!(filter_members(&[], &rows, 130).is_empty());
    }

    #[test]
    fn filter_keeps_predicate_rows() {
        let s = RowSet::all(6).filter(|r| r % 2 == 0);
        assert_eq!(s.as_slice(), &[0, 2, 4]);
    }

    #[test]
    fn total_weight_sums_member_weights() {
        let s = RowSet::from_vec(vec![1, 2]);
        let w = [10.0, 1.0, 2.5];
        assert_eq!(s.total_weight(&w), 3.5);
    }

    #[test]
    fn from_iterator_collects() {
        let s: RowSet = [4u32, 0, 4].into_iter().collect();
        assert_eq!(s.as_slice(), &[0, 4]);
    }
}
