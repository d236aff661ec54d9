//! Property-based bit-identity suite for the compiled rule-evaluation
//! engine: over random rulesets × random datasets × random unknown masks,
//! `CompiledRuleSet` must reproduce the interpreter's `first_match`
//! decisions *exactly* — same `Some`/`None`, same rank, lowest index on
//! ties — on both the dense (`Dataset`) and the lookup (serving) path,
//! for rule sets from empty up to 600 rules (every mask width the
//! evaluation loop handles).

use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};
use pnr_rules::{CompiledRuleSet, Condition, Rule, RuleSet};
use proptest::prelude::*;

const CAT_NAMES: [&str; 3] = ["a", "b", "c"];

/// Two numeric attributes and one categorical attribute with three codes —
/// enough to exercise every dispatch-table shape, including rules that pin
/// a code the dictionary never interned (`value: 3`).
fn dataset(rows: &[(f64, f64, u8)]) -> Dataset {
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_attribute("y", AttrType::Numeric);
    b.add_attribute("k", AttrType::Categorical);
    // Intern all three codes up front so row order cannot change the
    // dictionary, then the generated rows.
    for name in CAT_NAMES {
        b.push_row(
            &[Value::num(0.0), Value::num(0.0), Value::cat(name)],
            "c",
            1.0,
        )
        .unwrap();
    }
    for &(x, y, k) in rows {
        b.push_row(
            &[
                Value::num(x),
                Value::num(y),
                Value::cat(CAT_NAMES[k as usize % 3]),
            ],
            "c",
            1.0,
        )
        .unwrap();
    }
    b.finish()
}

fn rows() -> impl Strategy<Value = Vec<(f64, f64, u8)>> {
    prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0, 0u8..3), 1..40)
}

/// Random atomic condition. Attribute kinds are fixed (0 and 1 numeric,
/// 2 categorical) so every generated ruleset can run against a dataset. `CatEq` may pin
/// code 3, which no row carries, and `NumRange` may be empty (`lo >= hi`)
/// or NaN-free contradictory when conjoined — all shapes the compiler must
/// fold identically to the interpreter.
fn condition() -> impl Strategy<Value = Condition> {
    (0u8..4, 0usize..2, -8.0f64..8.0, -2.0f64..6.0, 0u32..4).prop_map(|(kind, attr, v, w, code)| {
        match kind {
            0 => Condition::NumLe { attr, value: v },
            1 => Condition::NumGt { attr, value: v },
            2 => Condition::NumRange {
                attr,
                lo: v,
                hi: v + w,
            },
            _ => Condition::CatEq {
                attr: 2,
                value: code,
            },
        }
    })
}

fn ruleset() -> impl Strategy<Value = RuleSet> {
    prop::collection::vec(prop::collection::vec(condition(), 0..4), 0..8)
        .prop_map(|rules| RuleSet::from_rules(rules.into_iter().map(Rule::new).collect()))
}

/// A rule no row of [`dataset`] satisfies: a random condition conjoined
/// with a threshold beyond every value (rows hold values in `[-10, 10)`)
/// or with code 3, which no row carries. Unless the two fold to a
/// contradiction, the compiler cannot know this, so the rule's bit stays
/// live until a program's dispatch clears it.
fn unsatisfied_rule() -> impl Strategy<Value = Rule> {
    (condition(), 0u8..3, 0usize..2, 20.0f64..100.0).prop_map(|(cond, kind, attr, far)| {
        let never = match kind {
            0 => Condition::NumGt { attr, value: far },
            1 => Condition::NumLe { attr, value: -far },
            _ => Condition::CatEq { attr: 2, value: 3 },
        };
        Rule::new(vec![cond, never])
    })
}

/// Random condition on attribute 0 or 1 of either kind, so one attribute
/// is tested categorically by some rules (or conditions) and numerically
/// by others.
fn mixed_condition() -> impl Strategy<Value = Condition> {
    (0u8..4, 0usize..2, -4.0f64..4.0, 0.0f64..4.0, 0u32..3).prop_map(|(kind, attr, v, w, code)| {
        match kind {
            0 => Condition::NumLe { attr, value: v },
            1 => Condition::NumGt { attr, value: v },
            2 => Condition::NumRange {
                attr,
                lo: v,
                hi: v + w,
            },
            _ => Condition::CatEq { attr, value: code },
        }
    })
}

fn mixed_ruleset() -> impl Strategy<Value = RuleSet> {
    prop::collection::vec(prop::collection::vec(mixed_condition(), 0..4), 0..8)
        .prop_map(|rules| RuleSet::from_rules(rules.into_iter().map(Rule::new).collect()))
}

/// One serving-time value: a dictionary code, a finite number, or unknown.
#[derive(Debug, Clone, Copy)]
enum Lookup {
    Code(u32),
    Num(f64),
    Unknown,
}

fn lookup() -> impl Strategy<Value = Lookup> {
    (0u8..3, 0u32..4, -5.0f64..5.0).prop_map(|(kind, code, x)| match kind {
        0 => Lookup::Code(code),
        1 => Lookup::Num(x),
        _ => Lookup::Unknown,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_first_match_is_bit_identical(data_rows in rows(), rules in ruleset()) {
        let d = dataset(&data_rows);
        let compiled = CompiledRuleSet::compile(&rules);
        for row in 0..d.n_rows() {
            prop_assert_eq!(
                compiled.first_match(&d, row),
                rules.first_match(&d, row),
                "row {} of {:?}", row, &rules
            );
        }
    }

    #[test]
    fn lookup_first_match_is_bit_identical_under_unknowns(
        data_rows in rows(),
        rules in ruleset(),
        mask in prop::collection::vec(prop::bool::ANY, 3),
    ) {
        // `mask[attr] == true` hides that attribute — the serving path's
        // unknown-value outcome, which must suppress the attribute's whole
        // dispatch table, never fire it.
        let d = dataset(&data_rows);
        let compiled = CompiledRuleSet::compile(&rules);
        for row in 0..d.n_rows() {
            let num = |attr: usize| (!mask[attr]).then(|| d.num(attr, row));
            let cat = |attr: usize| (!mask[attr]).then(|| d.cat(attr, row));
            prop_assert_eq!(
                compiled.first_match_lookup(num, cat),
                rules.first_match_lookup(num, cat),
                "row {} mask {:?} of {:?}", row, &mask, &rules
            );
        }
    }

    #[test]
    fn first_match_takes_the_lowest_ranked_matching_rule(
        data_rows in rows(),
        rules in ruleset(),
        dup_at in 0usize..64,
    ) {
        // Ranked tie-break: duplicating one rule at the end must never
        // change any decision (the lower index always wins), and whatever
        // either engine returns must be the *lowest* index whose rule
        // matches, checked against a brute-force scan.
        let d = dataset(&data_rows);
        let mut with_dup = rules.clone();
        if !rules.is_empty() {
            let i = dup_at % rules.len();
            with_dup.push(rules.rules()[i].clone());
        }
        let compiled = CompiledRuleSet::compile(&with_dup);
        for row in 0..d.n_rows() {
            let brute = with_dup
                .rules()
                .iter()
                .position(|r| r.matches(&d, row));
            prop_assert_eq!(with_dup.first_match(&d, row), brute);
            prop_assert_eq!(compiled.first_match(&d, row), brute);
            if !rules.is_empty() {
                prop_assert_eq!(compiled.first_match(&d, row), rules.first_match(&d, row));
            }
        }
    }

    #[test]
    fn mixed_kind_attributes_match_the_interpreter_under_lookups(
        rules in mixed_ruleset(),
        records in prop::collection::vec(prop::collection::vec(lookup(), 2), 1..24),
    ) {
        // One attribute tested both by `CatEq` and numerically compiles to
        // one program per kind; a record's value for it is one kind (or
        // unknown), so the other kind's rules must fall through exactly as
        // the interpreter's conditions do.
        let compiled = CompiledRuleSet::compile(&rules);
        for record in &records {
            let num = |attr: usize| match record[attr] {
                Lookup::Num(x) => Some(x),
                _ => None,
            };
            let cat = |attr: usize| match record[attr] {
                Lookup::Code(c) => Some(c),
                _ => None,
            };
            prop_assert_eq!(
                compiled.first_match_lookup(num, cat),
                rules.first_match_lookup(num, cat),
                "record {:?} of {:?}", record, &rules
            );
        }
    }

    #[test]
    fn wide_rule_sets_match_the_interpreter_across_mask_words(
        data_rows in rows(),
        unsatisfied in prop::collection::vec(unsatisfied_rule(), 53..=593),
        tail in prop::collection::vec(prop::collection::vec(condition(), 0..4), 1..8),
        mask in prop::collection::vec(prop::bool::ANY, 3),
    ) {
        // 54 to 600 rules: one mask word, the stack buffer (up to 512
        // rules) and the heap buffer beyond it. The unsatisfied prefix
        // stays live until dispatch clears it, and every first match lands
        // past it: in a later word than the first once it passes 64 rules.
        let mut rules = unsatisfied;
        rules.extend(tail.into_iter().map(Rule::new));
        let rules = RuleSet::from_rules(rules);
        let d = dataset(&data_rows);
        let compiled = CompiledRuleSet::compile(&rules);
        for row in 0..d.n_rows() {
            prop_assert_eq!(
                compiled.first_match(&d, row),
                rules.first_match(&d, row),
                "row {} of {} rules", row, rules.len()
            );
            let num = |attr: usize| (!mask[attr]).then(|| d.num(attr, row));
            let cat = |attr: usize| (!mask[attr]).then(|| d.cat(attr, row));
            prop_assert_eq!(
                compiled.first_match_lookup(num, cat),
                rules.first_match_lookup(num, cat),
                "row {} mask {:?} of {} rules", row, &mask, rules.len()
            );
        }
    }
}
