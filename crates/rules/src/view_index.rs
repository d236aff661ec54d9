//! Per-view sorted projections of numeric attributes.
//!
//! The condition search scans every numeric attribute in value order. The
//! dataset caches one *global* sort index per attribute, but a sequential-
//! covering learner spends most of its time on *shrinking* views — and
//! filtering the global index through a membership mask costs `O(n_rows)`
//! per attribute per call regardless of how small the view has become.
//!
//! A [`ViewIndex`] makes that cost view-proportional: each view owns a set
//! of lazily-built per-attribute row lists sorted by attribute value, and a
//! view derived via `restricted_to`/`without` chains back to its parent, so
//! a child's projection is built by filtering the nearest materialised
//! ancestor projection instead of re-scanning the dataset. The filter marks
//! the view's rows in a bitmap of `n_rows` bits and keeps the ancestor rows
//! whose bit is set ([`pnr_data::filter_members`]), one linear pass:
//! `O(|ancestor view| + n_rows/64)`, where a binary search per ancestor row
//! would add a `log |view|` factor. A root view (no ancestor) builds from
//! the dataset directly in `O(min(n_rows, m·log m))`, and a root view over
//! every row shares the dataset's cached sort index.
//!
//! All paths produce the identical ordering (ascending value, ties in row
//! order), so swapping build strategies never changes search results — the
//! accumulation order of weight sums, and hence every floating-point
//! boundary statistic, is bit-identical.

use pnr_data::{Dataset, RowSet};
use std::sync::{Arc, OnceLock};

/// Lazily-built sorted row projections for one view, chained to the parent
/// view's index. Shared via `Arc`: cloning a view shares the cache, and a
/// projection is built at most once per view regardless of how many search
/// calls or threads ask for it (`OnceLock` per attribute).
#[derive(Debug)]
pub struct ViewIndex {
    rows: RowSet,
    parent: Option<Arc<ViewIndex>>,
    per_attr: Vec<OnceLock<Arc<Vec<u32>>>>,
}

impl ViewIndex {
    /// An index for a view with no ancestry (projections build from the
    /// dataset's global sort index).
    pub fn root(rows: RowSet, n_attrs: usize) -> Arc<Self> {
        Arc::new(ViewIndex {
            rows,
            parent: None,
            per_attr: (0..n_attrs).map(|_| OnceLock::new()).collect(),
        })
    }

    /// An index for a view derived from the one `self` indexes; `rows` must
    /// be a subset of the parent's rows.
    pub fn derive(self: &Arc<Self>, rows: RowSet) -> Arc<Self> {
        Arc::new(ViewIndex {
            rows,
            parent: Some(self.clone()),
            per_attr: (0..self.per_attr.len()).map(|_| OnceLock::new()).collect(),
        })
    }

    /// True when this view's projection for `attr` is already
    /// materialised (a subsequent [`projection`](Self::projection) call
    /// is a cache hit). Telemetry uses this to classify warm hits vs
    /// cold builds without forcing a build.
    pub fn is_materialised(&self, attr: usize) -> bool {
        self.per_attr[attr].get().is_some()
    }

    /// The view's rows sorted ascending by numeric attribute `attr` (ties in
    /// row order). Built on first use and cached; safe to call from several
    /// threads at once.
    ///
    /// # Panics
    /// Panics if `attr` is categorical.
    pub fn projection(&self, data: &Dataset, attr: usize) -> Arc<Vec<u32>> {
        self.per_attr[attr]
            .get_or_init(|| {
                // Filter the nearest ancestor that has already materialised
                // this attribute; never *force* an ancestor — if none has
                // built it, going to the dataset directly is cheaper than
                // materialising the whole chain.
                let mut ancestor = self.parent.as_deref();
                let source = loop {
                    match ancestor {
                        None => break None,
                        Some(a) => match a.per_attr[attr].get() {
                            Some(p) => break Some(p),
                            None => ancestor = a.parent.as_deref(),
                        },
                    }
                };
                let proj = match source {
                    Some(p) => Arc::new(pnr_data::filter_members(
                        p,
                        self.rows.as_slice(),
                        data.n_rows(),
                    )),
                    None => data.sorted_projection(attr, self.rows.as_slice()),
                };
                // Fires when a derived view's rows are not a subset of its
                // ancestor's (the filter then silently drops rows) or a
                // build path breaks the value-then-row ordering.
                #[cfg(feature = "audit")]
                pnr_data::audit::check_sorted_projection(
                    "ViewIndex::projection",
                    data,
                    attr,
                    self.rows.as_slice(),
                    &proj,
                );
                proj
            })
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, DatasetBuilder, Value};

    fn data() -> pnr_data::Dataset {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("y", AttrType::Numeric);
        for i in 0..40u32 {
            // x descends so the sort index is a genuine permutation;
            // y has heavy ties to exercise tie order.
            b.push_row(
                &[Value::num(-(i as f64)), Value::num((i % 5) as f64)],
                "c",
                1.0,
            )
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn root_projection_matches_dataset_projection() {
        let d = data();
        let rows = RowSet::from_vec((0..40).filter(|r| r % 2 == 0).collect());
        let idx = ViewIndex::root(rows.clone(), d.n_attrs());
        assert_eq!(
            *idx.projection(&d, 0),
            *d.sorted_projection(0, rows.as_slice())
        );
        assert_eq!(
            *idx.projection(&d, 1),
            *d.sorted_projection(1, rows.as_slice())
        );
    }

    #[test]
    fn projection_is_cached() {
        let d = data();
        let idx = ViewIndex::root(RowSet::all(40), d.n_attrs());
        let a = idx.projection(&d, 0);
        let b = idx.projection(&d, 0);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn derived_projection_filters_the_parent() {
        let d = data();
        let parent_rows = RowSet::from_vec((0..40).filter(|r| r % 2 == 0).collect());
        let parent = ViewIndex::root(parent_rows.clone(), d.n_attrs());
        let _ = parent.projection(&d, 1); // materialise the ancestor source
        let child_rows = RowSet::from_vec((0..40).filter(|r| r % 4 == 0).collect());
        let child = parent.derive(child_rows.clone());
        assert_eq!(
            *child.projection(&d, 1),
            *d.sorted_projection(1, child_rows.as_slice())
        );
    }

    #[test]
    fn unmaterialised_chain_builds_from_dataset() {
        let d = data();
        let parent = ViewIndex::root(RowSet::all(40), d.n_attrs());
        let child_rows = RowSet::from_vec(vec![3, 8, 13, 30]);
        let child = parent.derive(child_rows.clone());
        // no ancestor projection exists for attr 1: builds directly, and the
        // parent's cache stays untouched
        assert_eq!(
            *child.projection(&d, 1),
            *d.sorted_projection(1, child_rows.as_slice())
        );
        let grandchild = child.derive(RowSet::from_vec(vec![8, 13]));
        // grandchild now finds the child's materialised projection
        assert_eq!(
            *grandchild.projection(&d, 1),
            *d.sorted_projection(1, &[8, 13])
        );
    }

    #[test]
    fn deep_chains_keep_tie_order() {
        let d = data();
        let mut idx = ViewIndex::root(RowSet::all(40), d.n_attrs());
        let mut rows = RowSet::all(40);
        let _ = idx.projection(&d, 1);
        for step in 0..6 {
            rows = rows.filter(|r| r % (step + 2) != 1);
            idx = idx.derive(rows.clone());
            assert_eq!(
                *idx.projection(&d, 1),
                *d.sorted_projection(1, rows.as_slice()),
                "chain step {step}"
            );
        }
    }
}
