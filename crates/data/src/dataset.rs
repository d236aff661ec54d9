//! The immutable columnar [`Dataset`].

use crate::schema::{AttrType, Schema};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// One attribute column of a dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Column {
    /// Numeric column; values are finite `f64`.
    Num(Vec<f64>),
    /// Categorical column; values are codes into the attribute's dictionary.
    Cat(Vec<u32>),
}

impl Column {
    /// Number of rows stored in this column.
    pub fn len(&self) -> usize {
        match self {
            Column::Num(v) => v.len(),
            Column::Cat(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An immutable columnar dataset with per-record weights.
///
/// Built with [`crate::DatasetBuilder`]; learners never mutate a dataset, so
/// subsets are expressed as row-index collections ([`crate::RowSet`]) and
/// weight overrides are carried separately by the caller where needed.
///
/// Per-attribute **sort indexes** (row permutations ordered by numeric value)
/// are computed lazily on first use and cached behind an `Arc`; they power
/// single-scan threshold search in the rule learners, and a projection
/// over every row shares the cached index instead of copying it.
#[derive(Debug, Serialize, Deserialize)]
pub struct Dataset {
    schema: Schema,
    columns: Vec<Column>,
    labels: Vec<u32>,
    weights: Vec<f64>,
    #[serde(skip)]
    sort_indexes: Vec<OnceLock<Arc<Vec<u32>>>>,
}

impl Dataset {
    pub(crate) fn from_parts(
        schema: Schema,
        columns: Vec<Column>,
        labels: Vec<u32>,
        weights: Vec<f64>,
    ) -> Self {
        let n_attrs = schema.n_attrs();
        debug_assert_eq!(columns.len(), n_attrs);
        debug_assert!(columns.iter().all(|c| c.len() == labels.len()));
        debug_assert_eq!(weights.len(), labels.len());
        let sort_indexes = (0..n_attrs).map(|_| OnceLock::new()).collect();
        Dataset {
            schema,
            columns,
            labels,
            weights,
            sort_indexes,
        }
    }

    /// The dataset's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.schema.n_attrs()
    }

    /// Number of distinct classes.
    pub fn n_classes(&self) -> usize {
        self.schema.n_classes()
    }

    /// The column for attribute `attr`.
    pub fn column(&self, attr: usize) -> &Column {
        &self.columns[attr]
    }

    /// Numeric value of attribute `attr` at `row`.
    ///
    /// # Panics
    /// Panics if the attribute is categorical or indexes are out of range.
    #[inline]
    pub fn num(&self, attr: usize, row: usize) -> f64 {
        match &self.columns[attr] {
            Column::Num(v) => v[row],
            Column::Cat(_) => panic!("attribute {attr} is categorical, not numeric"),
        }
    }

    /// Categorical code of attribute `attr` at `row`.
    ///
    /// # Panics
    /// Panics if the attribute is numeric or indexes are out of range.
    #[inline]
    pub fn cat(&self, attr: usize, row: usize) -> u32 {
        match &self.columns[attr] {
            Column::Cat(v) => v[row],
            Column::Num(_) => panic!("attribute {attr} is numeric, not categorical"),
        }
    }

    /// Class label code of `row`.
    #[inline]
    pub fn label(&self, row: usize) -> u32 {
        self.labels[row]
    }

    /// All class label codes.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Weight of `row`.
    #[inline]
    pub fn weight(&self, row: usize) -> f64 {
        self.weights[row]
    }

    /// All record weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Class name for a label code.
    pub fn class_name(&self, code: u32) -> &str {
        self.schema.classes.name(code)
    }

    /// Label code for a class name, if the class exists.
    pub fn class_code(&self, name: &str) -> Option<u32> {
        self.schema.classes.code(name)
    }

    /// Categorical value name of attribute `attr` at `row`.
    pub fn cat_name(&self, attr: usize, row: usize) -> &str {
        self.schema.attr(attr).dict.name(self.cat(attr, row))
    }

    /// Rows sorted ascending by the numeric attribute `attr`; computed once
    /// and cached. Ties keep row order (stable sort), so results are
    /// deterministic.
    ///
    /// # Panics
    /// Panics if `attr` is categorical.
    pub fn sort_index(&self, attr: usize) -> &[u32] {
        assert_eq!(
            self.schema.attr(attr).ty,
            AttrType::Numeric,
            "sort_index requires a numeric attribute"
        );
        self.cached_sort_index(attr)
    }

    /// The cached sort index of numeric attribute `attr`, built on first use.
    fn cached_sort_index(&self, attr: usize) -> &Arc<Vec<u32>> {
        self.sort_indexes[attr].get_or_init(|| {
            let Column::Num(vals) = &self.columns[attr] else {
                unreachable!()
            };
            let mut idx: Vec<u32> = (0..crate::index::to_u32(vals.len(), "row count")).collect();
            // total_cmp: builder-validated values are finite, so this orders
            // identically to partial_cmp without an unwrap on the NaN arm.
            idx.sort_by(|&a, &b| vals[a as usize].total_cmp(&vals[b as usize]));
            Arc::new(idx)
        })
    }

    /// The subset `rows` (sorted unique global row ids) ordered ascending by
    /// the numeric attribute `attr`, ties in row order — the restriction of
    /// [`Self::sort_index`] to the subset, without materialising a mask over
    /// the whole dataset when the subset is small.
    ///
    /// Cost is `O(min(n_rows, m·log m))` for a subset of size `m`: a small
    /// subset is sorted directly, a large one filtered out of the cached
    /// global sort index through a row bitmap ([`crate::filter_members`]).
    /// Both paths produce the identical ordering. When `rows` is every row
    /// the cached sort index itself is returned, shared, not copied.
    ///
    /// # Panics
    /// Panics if `attr` is categorical.
    pub fn sorted_projection(&self, attr: usize, rows: &[u32]) -> Arc<Vec<u32>> {
        assert_eq!(
            self.schema.attr(attr).ty,
            AttrType::Numeric,
            "sorted_projection requires a numeric attribute"
        );
        let n = self.n_rows();
        let m = rows.len();
        if m == n {
            return Arc::clone(self.cached_sort_index(attr));
        }
        // Direct sort wins while m·log₂m stays under the full-scan cost.
        let direct = m == 0 || m * (usize::BITS - m.leading_zeros()) as usize <= n;
        let Column::Num(vals) = &self.columns[attr] else {
            unreachable!()
        };
        Arc::new(if direct {
            let mut idx = rows.to_vec();
            // Stable sort: ties keep the caller's (ascending row id) order,
            // matching the filtered global index below.
            idx.sort_by(|&a, &b| vals[a as usize].total_cmp(&vals[b as usize]));
            idx
        } else {
            crate::filter_members(self.cached_sort_index(attr), rows, n)
        })
    }

    /// Weighted count of rows per class.
    pub fn class_weights(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.n_classes()];
        for (lbl, wt) in self.labels.iter().zip(&self.weights) {
            w[*lbl as usize] += wt;
        }
        w
    }

    /// Unweighted count of rows per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut c = vec![0usize; self.n_classes()];
        for lbl in &self.labels {
            c[*lbl as usize] += 1;
        }
        c
    }

    /// Returns a copy of this dataset with `weights` replaced.
    ///
    /// # Panics
    /// Panics if `weights.len() != n_rows()`.
    pub fn with_weights(&self, weights: Vec<f64>) -> Dataset {
        assert_eq!(weights.len(), self.n_rows());
        Dataset::from_parts(
            self.schema.clone(),
            self.columns.clone(),
            self.labels.clone(),
            weights,
        )
    }

    /// Builds a new dataset containing only `rows` (in the given order),
    /// sharing the schema. Used by splitters and subsamplers.
    pub fn select_rows(&self, rows: &[u32]) -> Dataset {
        let columns = self
            .columns
            .iter()
            .map(|c| match c {
                Column::Num(v) => Column::Num(rows.iter().map(|&r| v[r as usize]).collect()),
                Column::Cat(v) => Column::Cat(rows.iter().map(|&r| v[r as usize]).collect()),
            })
            .collect();
        let labels = rows.iter().map(|&r| self.labels[r as usize]).collect();
        let weights = rows.iter().map(|&r| self.weights[r as usize]).collect();
        Dataset::from_parts(self.schema.clone(), columns, labels, weights)
    }

    /// Restores invariants after deserialisation (dictionary lookup tables
    /// and the sort-index cache slots).
    ///
    /// Deserialisation is the one path that can plant a non-finite value in
    /// a dense numeric column — the builder rejects them, but JSON's
    /// `1e999` parses to `inf` — so under the `audit` feature this also
    /// re-checks the finite-data invariant over every column.
    pub fn rebuild_after_deserialize(&mut self) {
        self.schema.rebuild_indexes();
        self.sort_indexes = (0..self.schema.n_attrs())
            .map(|_| OnceLock::new())
            .collect();
        #[cfg(feature = "audit")]
        crate::audit::check_finite_columns("Dataset::rebuild_after_deserialize", self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DatasetBuilder, Value};

    fn small() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("c", AttrType::Categorical);
        b.push_row(&[Value::num(3.0), Value::cat("p")], "neg", 1.0)
            .unwrap();
        b.push_row(&[Value::num(1.0), Value::cat("q")], "pos", 2.0)
            .unwrap();
        b.push_row(&[Value::num(2.0), Value::cat("p")], "neg", 1.5)
            .unwrap();
        b.finish()
    }

    #[test]
    fn accessors_return_stored_values() {
        let d = small();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_attrs(), 2);
        assert_eq!(d.num(0, 1), 1.0);
        assert_eq!(d.cat_name(1, 0), "p");
        assert_eq!(d.class_name(d.label(1)), "pos");
        assert_eq!(d.weight(2), 1.5);
    }

    #[test]
    #[should_panic(expected = "categorical")]
    fn num_on_categorical_panics() {
        let d = small();
        d.num(1, 0);
    }

    #[test]
    #[should_panic(expected = "numeric")]
    fn cat_on_numeric_panics() {
        let d = small();
        d.cat(0, 0);
    }

    #[test]
    fn sort_index_orders_rows_by_value() {
        let d = small();
        assert_eq!(d.sort_index(0), &[1, 2, 0]);
        // second call hits the cache and returns the same slice
        assert_eq!(d.sort_index(0).as_ptr(), d.sort_index(0).as_ptr());
    }

    #[test]
    #[should_panic(expected = "numeric attribute")]
    fn sort_index_on_categorical_panics() {
        let d = small();
        d.sort_index(1);
    }

    #[test]
    fn sorted_projection_restricts_sort_index() {
        let d = small();
        assert_eq!(*d.sorted_projection(0, &[0, 1, 2]), vec![1, 2, 0]);
        assert_eq!(*d.sorted_projection(0, &[0, 2]), vec![2, 0]);
        assert_eq!(*d.sorted_projection(0, &[1]), vec![1]);
        assert!(d.sorted_projection(0, &[]).is_empty());
    }

    #[test]
    fn sorted_projection_paths_agree_with_ties() {
        // Duplicate values: the direct-sort and filtered-index paths must
        // impose the identical (row-id) tie order.
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        for i in 0..64 {
            b.push_row(&[Value::num((i % 4) as f64)], "c", 1.0).unwrap();
        }
        let d = b.finish();
        let subset: Vec<u32> = (0..64).filter(|i| i % 3 != 1).collect();
        let filtered: Vec<u32> = d
            .sort_index(0)
            .iter()
            .copied()
            .filter(|r| subset.contains(r))
            .collect();
        assert_eq!(*d.sorted_projection(0, &subset), filtered);
        // tiny subset takes the direct path
        let tiny = [5u32, 9, 13, 21];
        let filtered_tiny: Vec<u32> = d
            .sort_index(0)
            .iter()
            .copied()
            .filter(|r| tiny.contains(r))
            .collect();
        assert_eq!(*d.sorted_projection(0, &tiny), filtered_tiny);
    }

    #[test]
    #[should_panic(expected = "numeric attribute")]
    fn sorted_projection_on_categorical_panics() {
        let d = small();
        d.sorted_projection(1, &[0]);
    }

    #[test]
    fn class_weights_and_counts() {
        let d = small();
        let neg = d.class_code("neg").unwrap() as usize;
        let pos = d.class_code("pos").unwrap() as usize;
        let w = d.class_weights();
        assert_eq!(w[neg], 2.5);
        assert_eq!(w[pos], 2.0);
        let c = d.class_counts();
        assert_eq!(c[neg], 2);
        assert_eq!(c[pos], 1);
    }

    #[test]
    fn select_rows_projects_in_order() {
        let d = small();
        let s = d.select_rows(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.num(0, 0), 2.0);
        assert_eq!(s.num(0, 1), 3.0);
        assert_eq!(s.class_name(s.label(0)), "neg");
        assert_eq!(s.weight(0), 1.5);
    }

    #[test]
    fn with_weights_replaces_weights_only() {
        let d = small();
        let d2 = d.with_weights(vec![9.0, 9.0, 9.0]);
        assert_eq!(d2.weight(0), 9.0);
        assert_eq!(d2.num(0, 0), d.num(0, 0));
    }

    #[test]
    fn serde_round_trip_preserves_data() {
        let d = small();
        let json = serde_json::to_string(&d).unwrap();
        let mut back: Dataset = serde_json::from_str(&json).unwrap();
        back.rebuild_after_deserialize();
        assert_eq!(back.n_rows(), d.n_rows());
        assert_eq!(back.num(0, 2), 2.0);
        assert_eq!(back.class_code("pos"), Some(1));
        assert_eq!(back.sort_index(0), &[1, 2, 0]);
    }

    /// Fault injection: JSON cannot represent `inf`, but a textual `1e999`
    /// parses to it, smuggling a non-finite value past the builder's
    /// validation. The `audit` rebuild hook must catch exactly this.
    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "audit: Dataset::rebuild_after_deserialize")]
    fn non_finite_smuggled_through_serde_fails_audit() {
        let json = serde_json::to_string(&small()).unwrap();
        let json = json.replacen("2.0", "1e999", 1);
        let mut back: Dataset = serde_json::from_str(&json).unwrap();
        back.rebuild_after_deserialize();
    }
}
