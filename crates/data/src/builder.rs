//! Incremental construction of [`Dataset`]s.

use crate::csv::Fields;
use crate::dataset::{Column, Dataset};
use crate::error::DataError;
use crate::schema::{AttrType, Attribute, Schema};

/// A value being appended to a dataset under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// A numeric value; must be finite.
    Num(f64),
    /// A categorical value by name; interned on insertion.
    Cat(&'a str),
}

impl<'a> Value<'a> {
    /// Shorthand for `Value::Num(v)`.
    pub fn num(v: f64) -> Self {
        Value::Num(v)
    }

    /// Shorthand for `Value::Cat(s)`.
    pub fn cat(s: &'a str) -> Self {
        Value::Cat(s)
    }
}

/// Builds a [`Dataset`] row by row.
///
/// Attributes must all be declared before the first row is pushed; the
/// builder then enforces arity and type agreement for every row.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    schema: Schema,
    columns: Vec<Column>,
    labels: Vec<u32>,
    weights: Vec<f64>,
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an attribute column. Returns its index.
    ///
    /// # Panics
    /// Panics if rows have already been pushed.
    pub fn add_attribute(&mut self, name: impl Into<String>, ty: AttrType) -> usize {
        assert!(
            self.labels.is_empty(),
            "attributes must be declared before rows"
        );
        self.schema.attributes.push(Attribute::new(name, ty));
        self.columns.push(match ty {
            AttrType::Numeric => Column::Num(Vec::new()),
            AttrType::Categorical => Column::Cat(Vec::new()),
        });
        self.columns.len() - 1
    }

    /// Pre-registers a class label so that its code is fixed regardless of
    /// the order classes first appear in rows. Returns the code.
    pub fn add_class(&mut self, name: &str) -> u32 {
        self.schema.classes.intern(name)
    }

    /// Pre-registers a categorical value so that its code is fixed
    /// regardless of the order values first appear in rows. Generators use
    /// this to give independently built train and test sets **identical
    /// dictionaries** — learned conditions store codes, so the schemas must
    /// agree. Returns the code.
    ///
    /// # Panics
    /// Panics if `attr` is not a categorical attribute.
    pub fn add_cat_value(&mut self, attr: usize, value: &str) -> u32 {
        assert!(
            self.schema.attributes[attr].ty == AttrType::Categorical,
            "attribute {attr} is not categorical"
        );
        self.schema.attributes[attr].dict.intern(value)
    }

    /// Reserves capacity for `n` additional rows in every column.
    pub fn reserve(&mut self, n: usize) {
        for c in &mut self.columns {
            match c {
                Column::Num(v) => v.reserve(n),
                Column::Cat(v) => v.reserve(n),
            }
        }
        self.labels.reserve(n);
        self.weights.reserve(n);
    }

    /// Appends one record.
    pub fn push_row(
        &mut self,
        values: &[Value<'_>],
        class: &str,
        weight: f64,
    ) -> Result<(), DataError> {
        if values.len() != self.columns.len() {
            return Err(DataError::ArityMismatch {
                expected: self.columns.len(),
                got: values.len(),
            });
        }
        if !(weight.is_finite() && weight >= 0.0) {
            return Err(DataError::InvalidWeight { weight });
        }
        // Validate the whole row before mutating any column so a failed push
        // leaves the builder unchanged.
        for (attr, value) in values.iter().enumerate() {
            match (&self.columns[attr], value) {
                (Column::Num(_), Value::Num(x)) => {
                    if !x.is_finite() {
                        return Err(DataError::NonFiniteValue { attr });
                    }
                }
                (Column::Cat(_), Value::Cat(_)) => {}
                (Column::Num(_), Value::Cat(_)) => {
                    return Err(DataError::TypeMismatch {
                        attr,
                        expected: "numeric",
                    })
                }
                (Column::Cat(_), Value::Num(_)) => {
                    return Err(DataError::TypeMismatch {
                        attr,
                        expected: "categorical",
                    })
                }
            }
        }
        for (attr, value) in values.iter().enumerate() {
            self.append(attr, value);
        }
        self.commit(class, weight);
        Ok(())
    }

    /// Appends one CSV row given as its text fields, class last: the CSV
    /// loader's path, which needs no `Value` per field. Each numeric field
    /// is parsed and each categorical one looked up as it is appended. A
    /// value new to its dictionary is interned only once the whole row is
    /// valid, and a malformed row is cut back off every column, so it
    /// leaves the builder and its dictionaries as they were. The error says
    /// why the row is malformed, checked in this order: the field count,
    /// the first field that is not a number, the first number that is not
    /// finite.
    pub(crate) fn push_fields(&mut self, fields: &Fields<'_>) -> Result<(), String> {
        let n_attrs = self.columns.len();
        if fields.len() != n_attrs + 1 {
            return Err(format!(
                "expected {} fields, got {}",
                n_attrs + 1,
                fields.len()
            ));
        }
        let committed = self.n_rows();
        let new_values = match self.append_fields(fields) {
            Ok(new_values) => new_values,
            Err(message) => {
                for c in &mut self.columns {
                    match c {
                        Column::Num(v) => v.truncate(committed),
                        Column::Cat(v) => v.truncate(committed),
                    }
                }
                return Err(message);
            }
        };
        if new_values {
            // A categorical column still at the committed length skipped a
            // value its dictionary lacks.
            for attr in 0..n_attrs {
                if matches!(&self.columns[attr], Column::Cat(col) if col.len() == committed) {
                    self.append(attr, &Value::Cat(fields.get(attr)));
                }
            }
        }
        self.commit(fields.get(n_attrs), 1.0);
        Ok(())
    }

    /// [`push_fields`](Self::push_fields)'s pass over the attributes:
    /// appends every finite number and every categorical value its
    /// dictionary already holds, and says whether any value was new. On an
    /// error the columns hold a partial row.
    fn append_fields(&mut self, fields: &Fields<'_>) -> Result<bool, String> {
        let mut non_finite = None;
        let mut new_values = false;
        for attr in 0..self.columns.len() {
            let field = fields.get(attr);
            match &mut self.columns[attr] {
                Column::Cat(col) => match self.schema.attributes[attr].dict.code(field) {
                    Some(code) => col.push(code),
                    None => new_values = true,
                },
                Column::Num(_) => {
                    let x: f64 = field
                        .parse()
                        .map_err(|_| format!("field {attr} ({field:?}) is not numeric"))?;
                    if x.is_finite() {
                        self.append(attr, &Value::Num(x));
                    } else {
                        non_finite.get_or_insert(attr);
                    }
                }
            }
        }
        match non_finite {
            Some(attr) => Err(DataError::NonFiniteValue { attr }.to_string()),
            None => Ok(new_values),
        }
    }

    /// Appends a value of the column's type to column `attr`, interning a
    /// categorical one: the one column append of both row paths.
    fn append(&mut self, attr: usize, value: &Value<'_>) {
        match (&mut self.columns[attr], value) {
            (Column::Num(col), Value::Num(x)) => {
                #[cfg(feature = "audit")]
                crate::audit::check_finite_value("DatasetBuilder::append", attr, *x);
                col.push(*x);
            }
            (Column::Cat(col), Value::Cat(s)) => {
                col.push(self.schema.attributes[attr].dict.intern(s));
            }
            _ => unreachable!("the caller checked the value's type"),
        }
    }

    /// Ends a row whose every column is appended: its label and weight.
    fn commit(&mut self, class: &str, weight: f64) {
        self.labels.push(self.schema.classes.intern(class));
        self.weights.push(weight);
    }

    /// Number of rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Finalises the builder into an immutable [`Dataset`].
    pub fn finish(self) -> Dataset {
        Dataset::from_parts(self.schema, self.columns, self.labels, self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_mixed_dataset() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        b.push_row(&[Value::num(1.0), Value::cat("a")], "c0", 1.0)
            .unwrap();
        b.push_row(&[Value::num(2.0), Value::cat("b")], "c1", 1.0)
            .unwrap();
        assert_eq!(b.n_rows(), 2);
        let d = b.finish();
        assert_eq!(d.cat_name(1, 1), "b");
        assert_eq!(d.n_classes(), 2);
    }

    #[test]
    fn arity_mismatch_is_rejected_and_builder_unchanged() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("y", AttrType::Numeric);
        let err = b.push_row(&[Value::num(1.0)], "c", 1.0).unwrap_err();
        assert!(matches!(
            err,
            DataError::ArityMismatch {
                expected: 2,
                got: 1
            }
        ));
        assert_eq!(b.n_rows(), 0);
    }

    #[test]
    fn type_mismatch_is_rejected_without_partial_write() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        // first value valid, second invalid: nothing must be written
        let err = b
            .push_row(&[Value::num(1.0), Value::num(2.0)], "c", 1.0)
            .unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { attr: 1, .. }));
        assert_eq!(b.n_rows(), 0);
        let d = b.finish();
        assert!(d.column(0).is_empty());
    }

    #[test]
    fn non_finite_numeric_is_rejected() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = b.push_row(&[Value::num(bad)], "c", 1.0).unwrap_err();
            assert!(matches!(err, DataError::NonFiniteValue { attr: 0 }));
        }
    }

    #[test]
    fn invalid_weight_is_rejected_without_partial_write() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            let err = b.push_row(&[Value::num(1.0)], "c", bad).unwrap_err();
            assert!(matches!(err, DataError::InvalidWeight { .. }), "{bad}");
        }
        assert_eq!(b.n_rows(), 0);
        let d = b.finish();
        assert!(d.column(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "before rows")]
    fn adding_attribute_after_rows_panics() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.push_row(&[Value::num(1.0)], "c", 1.0).unwrap();
        b.add_attribute("y", AttrType::Numeric);
    }

    #[test]
    fn add_cat_value_fixes_codes_across_builders() {
        let build = |first: &str, second: &str| {
            let mut b = DatasetBuilder::new();
            b.add_attribute("k", AttrType::Categorical);
            b.add_cat_value(0, "a");
            b.add_cat_value(0, "b");
            b.push_row(&[Value::cat(first)], "c", 1.0).unwrap();
            b.push_row(&[Value::cat(second)], "c", 1.0).unwrap();
            b.finish()
        };
        let d1 = build("a", "b");
        let d2 = build("b", "a"); // reversed appearance order
        assert_eq!(
            d1.schema().attr(0).dict.code("b"),
            d2.schema().attr(0).dict.code("b")
        );
    }

    #[test]
    #[should_panic(expected = "not categorical")]
    fn add_cat_value_rejects_numeric_attr() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_cat_value(0, "oops");
    }

    #[test]
    fn add_class_fixes_label_codes() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        assert_eq!(b.add_class("target"), 0);
        assert_eq!(b.add_class("other"), 1);
        b.push_row(&[Value::num(1.0)], "other", 1.0).unwrap();
        let d = b.finish();
        assert_eq!(d.label(0), 1);
    }
}
