//! Ordered rule sets with first-match semantics.

use crate::rule::Rule;
use pnr_data::{Dataset, Schema};
use serde::{Deserialize, Serialize};

/// An ordered list of rules, ranked by significance (discovery order in the
/// PNrule phases). Classification applies rules in rank order and accepts
/// the first that matches.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> Self {
        RuleSet::default()
    }

    /// Builds from a ranked list.
    pub fn from_rules(rules: Vec<Rule>) -> Self {
        RuleSet { rules }
    }

    /// Appends a rule at the lowest rank.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// The ranked rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Index of the first rule matching `row`, or `None`.
    pub fn first_match(&self, data: &Dataset, row: usize) -> Option<usize> {
        self.rules.iter().position(|r| r.matches(data, row))
    }

    /// Whether any rule matches `row`.
    pub fn any_match(&self, data: &Dataset, row: usize) -> bool {
        self.first_match(data, row).is_some()
    }

    /// Index of the first rule whose conditions all hold against fallible
    /// value lookups, or `None`. Unknown values (a `None` lookup) never
    /// satisfy a condition — the serving path's drift-tolerant first-match.
    pub fn first_match_lookup<N, C>(&self, num: N, cat: C) -> Option<usize>
    where
        N: Fn(usize) -> Option<f64>,
        C: Fn(usize) -> Option<u32>,
    {
        self.rules.iter().position(|r| r.matches_lookup(&num, &cat))
    }

    /// Removes the rule at `index` and returns it.
    pub fn remove(&mut self, index: usize) -> Rule {
        self.rules.remove(index)
    }

    /// Replaces the rule at `index`.
    pub fn replace(&mut self, index: usize, rule: Rule) {
        self.rules[index] = rule;
    }

    /// Multi-line pretty form with one rule per line, rank-prefixed.
    pub fn display_lines(&self, schema: &Schema) -> String {
        let mut s = String::new();
        for (i, r) in self.rules.iter().enumerate() {
            s.push_str(&format!("[{i}] {}\n", r.display(schema)));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use pnr_data::{AttrType, DatasetBuilder, Value};

    fn data() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        for x in [1.0, 5.0, 9.0] {
            b.push_row(&[Value::num(x)], "c", 1.0).unwrap();
        }
        b.finish()
    }

    fn le(v: f64) -> Rule {
        Rule::new(vec![Condition::NumLe { attr: 0, value: v }])
    }

    fn gt(v: f64) -> Rule {
        Rule::new(vec![Condition::NumGt { attr: 0, value: v }])
    }

    #[test]
    fn first_match_respects_rank_order() {
        let d = data();
        let rs = RuleSet::from_rules(vec![le(2.0), le(6.0), le(10.0)]);
        assert_eq!(rs.first_match(&d, 0), Some(0)); // x=1 matches rule 0 first
        assert_eq!(rs.first_match(&d, 1), Some(1)); // x=5 skips rule 0
        assert_eq!(rs.first_match(&d, 2), Some(2));
    }

    #[test]
    fn no_match_returns_none() {
        let d = data();
        let rs = RuleSet::from_rules(vec![le(1.5)]);
        assert_eq!(rs.first_match(&d, 2), None);
        assert!(!rs.any_match(&d, 2));
        assert!(rs.any_match(&d, 0));
    }

    #[test]
    fn first_match_lookup_mirrors_first_match_and_skips_unknowns() {
        let d = data();
        let rs = RuleSet::from_rules(vec![le(1.5), le(6.0)]);
        for row in 0..d.n_rows() {
            assert_eq!(
                rs.first_match_lookup(|a| Some(d.num(a, row)), |a| Some(d.cat(a, row))),
                rs.first_match(&d, row),
                "row {row}"
            );
        }
        // an unknown numeric value satisfies no rule at all
        assert_eq!(rs.first_match_lookup(|_| None, |_| None), None);
        // thresholds on a data value (x = 5) are closed on the right
        let at_five = RuleSet::from_rules(vec![le(5.0), gt(5.0)]);
        for (row, want) in [(0, Some(0)), (1, Some(0)), (2, Some(1))] {
            assert_eq!(at_five.first_match(&d, row), want, "row {row}");
            assert_eq!(
                at_five.first_match_lookup(|a| Some(d.num(a, row)), |_| None),
                want,
                "row {row}"
            );
        }
        // an empty set matches nothing; an empty rule matches every
        // record, one holding only unknowns included, at its own rank
        let empty = RuleSet::new();
        let catch_all = RuleSet::from_rules(vec![Rule::empty(), le(1.5)]);
        for row in 0..d.n_rows() {
            assert_eq!(empty.first_match(&d, row), None);
            assert_eq!(catch_all.first_match(&d, row), Some(0));
        }
        assert_eq!(empty.first_match_lookup(|_| Some(1.0), |_| Some(0)), None);
        assert_eq!(catch_all.first_match_lookup(|_| None, |_| None), Some(0));
        // a code past the dictionary satisfies no `CatEq`
        let by_code = RuleSet::from_rules(vec![
            Rule::new(vec![Condition::CatEq { attr: 0, value: 0 }]),
            Rule::empty(),
        ]);
        assert_eq!(by_code.first_match_lookup(|_| None, |_| Some(7)), Some(1));
    }

    #[test]
    fn push_remove_replace() {
        let mut rs = RuleSet::new();
        assert!(rs.is_empty());
        rs.push(le(1.0));
        rs.push(le(2.0));
        assert_eq!(rs.len(), 2);
        let removed = rs.remove(0);
        assert_eq!(removed, le(1.0));
        rs.replace(0, le(3.0));
        assert_eq!(rs.rules()[0], le(3.0));
    }

    #[test]
    fn display_lines_ranks_rules() {
        let d = data();
        let rs = RuleSet::from_rules(vec![le(2.0), le(6.0)]);
        let s = rs.display_lines(d.schema());
        assert!(s.contains("[0] x <= 2.0"));
        assert!(s.contains("[1] x <= 6.0"));
    }
}
