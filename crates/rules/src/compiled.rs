//! Compiled, attribute-indexed evaluation of ordered rule sets.
//!
//! [`RuleSet::first_match`] is a per-rule linear scan: every rule's every
//! condition is re-evaluated against the row, so scoring cost grows with
//! the *product* of rule count and rule length. [`CompiledRuleSet`] lowers
//! a rule set into an attribute-indexed predicate program once, and then
//! answers first-match queries by table dispatch:
//!
//! * **Categorical attributes** — every `CatEq` condition is grouped per
//!   attribute into a code → rule-bitset dispatch table. A rule whose
//!   equalities on the attribute pin two different codes is contradictory
//!   and is removed from the live set at compile time.
//! * **Numeric attributes** — each rule's `NumLe`/`NumGt`/`NumRange`
//!   conditions on one attribute fuse into a single half-open interval
//!   `(lo, hi]` (the workspace's closed-on-the-right convention, so the
//!   fusion is exact: `NumRange` *is* `NumGt(lo) ∧ NumLe(hi)`). All finite
//!   interval endpoints become a sorted breakpoint array partitioning the
//!   number line into segments `(b[i-1], b[i]]`; because every endpoint is
//!   a breakpoint, interval membership is constant within a segment, and a
//!   per-segment rule bitset answers "which rules' numeric constraints on
//!   this attribute does `x` satisfy" with one binary search.
//! * **First-match recovery** — bit `r` of every mask is rule `r` in rank
//!   order. Evaluation ANDs, per attribute, `base ∪ dispatch(value)`
//!   (`base` = rules with no condition on the attribute) into a live-rule
//!   mask; per-rule condition-count saturation is implicit in the AND — a
//!   rule's bit survives exactly when every attribute it tests passed it.
//!   The lowest surviving bit is the ranked first match. The AND steps
//!   commute, so programs run most-selective-first: an empty mask
//!   short-circuits the remaining attributes, and a program none of whose
//!   constrained rules are still live is skipped outright (no dispatch,
//!   no binary search).
//!
//! The unknown-value serving semantics ([`Condition::matches_lookup`]'s
//! "`None` never fires") compile to: an unknown value masks the
//! attribute's **entire dispatch table**, leaving only `base` — rules
//! without conditions on that attribute.
//!
//! Programs are keyed by `(attribute, kind)`, so every rule set compiles.
//! An attribute that some rules test with `CatEq` and others numerically
//! gets one categorical and one numeric program. Under the lookup
//! semantics this is exact: a categorical value is `None` to the numeric
//! program and a numeric value is `None` to the categorical one, so each
//! rule testing the attribute by the other kind is masked out, just as
//! the interpreter's conditions fail. A single rule mixing both kinds on
//! one attribute folds to a contradiction and never matches.
//!
//! # Value domain
//!
//! Dispatch assumes the dataset invariant that numeric cells are finite
//! (`DatasetBuilder` rejects NaN/±∞ and the `audit` feature re-checks
//! datasets that bypass the builder). Non-finite *thresholds* inside rules
//! are handled exactly: a NaN threshold makes its rule unsatisfiable (as
//! in the interpreter, where every comparison against NaN is false) and
//! infinite thresholds clamp the fused interval. Equivalence with the
//! interpreter is property-tested over random rule sets, datasets and
//! unknown-value patterns in `tests/compiled_props.rs`.

use crate::condition::Condition;
use crate::ruleset::RuleSet;
use pnr_data::Dataset;

/// Widest live mask (in 64-bit words) evaluated on the stack; rule sets
/// beyond `64 × STACK_WORDS` rules fall back to a heap buffer per call.
const STACK_WORDS: usize = 8;

/// A value fed to the predicate program for one attribute.
#[derive(Debug, Clone, Copy)]
enum AttrValue {
    /// Finite numeric value.
    Num(f64),
    /// Categorical dictionary code.
    Code(u32),
    /// Unknown: masks the attribute's entire dispatch table.
    Unknown,
}

/// Per-attribute dispatch: which rules' conditions on this attribute does
/// a value satisfy. Masks are flattened entry-major, `stride` words each.
#[derive(Debug, Clone)]
enum DispatchTable {
    /// Code-indexed table over `n_codes` entries.
    Cat {
        /// `n_codes × stride` words; entry `c` = rules pinned to code `c`.
        masks: Vec<u64>,
        /// Number of dispatchable codes (codes beyond satisfy no rule).
        n_codes: usize,
    },
    /// Sorted finite breakpoints partitioning the line into
    /// `breakpoints.len() + 1` segments `(b[i-1], b[i]]`.
    Num {
        /// Ascending, distinct, finite interval endpoints.
        breakpoints: Vec<f64>,
        /// `(breakpoints.len() + 1) × stride` words; entry `s` = rules
        /// whose fused interval covers segment `s`.
        masks: Vec<u64>,
    },
}

/// One attribute's slice of the predicate program.
#[derive(Debug, Clone)]
struct AttrProgram {
    /// The attribute this program tests.
    attr: usize,
    /// Rules with *no* condition on this attribute (`stride` words):
    /// they pass regardless of the value.
    base: Vec<u64>,
    /// Complement of `base` within the rule width: rules *with* a
    /// condition on this attribute. When the live mask carries none of
    /// them, the program's AND is a no-op and evaluation skips it — in
    /// particular skipping the numeric binary search.
    constrained: Vec<u64>,
    /// The value-indexed part.
    table: DispatchTable,
}

impl AttrProgram {
    /// The program for `attr` whose `table` dispatches `rules`.
    fn new(
        attr: usize,
        rules: impl Iterator<Item = usize>,
        table: DispatchTable,
        n_rules: usize,
        stride: usize,
    ) -> AttrProgram {
        let mut base = ones(n_rules, stride);
        let mut constrained = vec![0u64; stride];
        for r in rules {
            clear_bit(&mut base, r);
            set_bit(&mut constrained, r);
        }
        AttrProgram {
            attr,
            base,
            constrained,
            table,
        }
    }

    /// Index of the dispatch entry `value` selects, or `None` when the
    /// value reaches no entry (unknown, or a code beyond the table).
    #[inline]
    fn entry(&self, value: AttrValue) -> Option<usize> {
        match (&self.table, value) {
            (DispatchTable::Cat { n_codes, .. }, AttrValue::Code(c)) => {
                let c = c as usize;
                (c < *n_codes).then_some(c)
            }
            (DispatchTable::Num { breakpoints, .. }, AttrValue::Num(x)) => {
                Some(breakpoints.partition_point(|b| *b < x))
            }
            _ => None,
        }
    }

    /// The mask words of dispatch entry `e`.
    #[inline]
    fn entry_words(&self, e: usize, stride: usize) -> &[u64] {
        let masks = match &self.table {
            DispatchTable::Cat { masks, .. } => masks,
            DispatchTable::Num { masks, .. } => masks,
        };
        &masks[e * stride..(e + 1) * stride]
    }
}

/// A [`RuleSet`] lowered into an attribute-indexed predicate program.
/// Compile once per model, evaluate per row; see the module docs for the
/// scheme. Evaluation is bit-identical to the interpreter's
/// [`RuleSet::first_match`] / [`RuleSet::first_match_lookup`].
#[derive(Debug, Clone)]
pub struct CompiledRuleSet {
    /// Number of rules in the source rule set (bit width of the masks).
    n_rules: usize,
    /// Words per mask: `ceil(n_rules / 64)`, minimum 1.
    stride: usize,
    /// Rules that can match at all (contradictory conjunctions cleared).
    alive: Vec<u64>,
    /// Per-`(attribute, kind)` programs, most selective first (fewest
    /// `base` bits, ties on attribute index, categorical before numeric);
    /// attributes no rule tests are absent.
    programs: Vec<AttrProgram>,
}

/// Per-rule requirements on one attribute, folded from its conditions.
#[derive(Debug, Clone, Copy)]
enum Requirement {
    /// No condition on this attribute yet.
    Free,
    /// Categorical equalities pin this code.
    Pinned(u32),
    /// Fused numeric interval `(lo, hi]`.
    Interval(f64, f64),
    /// The conjunction on this attribute is unsatisfiable.
    Contradiction,
}

impl CompiledRuleSet {
    /// Lowers `rules` into a predicate program. Every rule set compiles:
    /// contradictory rules (including one mixing categorical and numeric
    /// tests on one attribute) simply never match, exactly as under the
    /// interpreter.
    pub fn compile(rules: &RuleSet) -> CompiledRuleSet {
        let n_rules = rules.len();
        let stride = n_rules.div_ceil(64).max(1);
        let n_attrs = rules
            .rules()
            .iter()
            .flat_map(|rule| rule.conditions())
            .map(|cond| cond.attr() + 1)
            .max()
            .unwrap_or(0);

        // Pass 1: fold every rule's conditions into one requirement per
        // attribute, and collect them per `(attribute, kind)`.
        let mut pins: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n_attrs];
        let mut intervals: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); n_attrs];
        let mut alive = ones(n_rules, stride);
        let mut reqs: Vec<Requirement> = vec![Requirement::Free; n_attrs];
        for (r, rule) in rules.rules().iter().enumerate() {
            let mut touched: Vec<usize> = Vec::new();
            for cond in rule.conditions() {
                let attr = cond.attr();
                if matches!(reqs[attr], Requirement::Free) {
                    touched.push(attr);
                }
                reqs[attr] = fold(reqs[attr], cond);
            }
            for &attr in &touched {
                match reqs[attr] {
                    Requirement::Free => {}
                    Requirement::Pinned(code) => pins[attr].push((r, code)),
                    Requirement::Interval(lo, hi) => intervals[attr].push((r, lo, hi)),
                    // A dead rule needs no program: it is never live.
                    Requirement::Contradiction => clear_bit(&mut alive, r),
                }
                reqs[attr] = Requirement::Free;
            }
        }

        // Pass 2: build one program per constrained `(attribute, kind)`,
        // categorical first.
        let mut programs = Vec::new();
        for attr in 0..n_attrs {
            if !pins[attr].is_empty() {
                let table = cat_table(&pins[attr], stride);
                let rules = pins[attr].iter().map(|&(r, _)| r);
                programs.push(AttrProgram::new(attr, rules, table, n_rules, stride));
            }
            if !intervals[attr].is_empty() {
                let table = num_table(&intervals[attr], stride, &mut alive);
                let rules = intervals[attr].iter().map(|&(r, ..)| r);
                programs.push(AttrProgram::new(attr, rules, table, n_rules, stride));
            }
        }

        // Most-selective programs first (fewest rules passing regardless
        // of value), so the live mask empties — and evaluation
        // short-circuits — as early as possible. The AND steps commute,
        // so ordering cannot change the result; the stable sort breaks
        // ties on attribute index, then categorical before numeric.
        programs.sort_by_key(|p| {
            (
                p.base
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>(),
                p.attr,
            )
        });

        CompiledRuleSet {
            n_rules,
            stride,
            alive,
            programs,
        }
    }

    /// Number of rules in the compiled set.
    pub fn n_rules(&self) -> usize {
        self.n_rules
    }

    /// Number of attribute programs: one per `(attribute, kind)` the
    /// rules test (a rule contradictory on an attribute adds none).
    pub fn n_programs(&self) -> usize {
        self.programs.len()
    }

    /// Core evaluation: AND per-attribute masks into the live set and
    /// return the lowest surviving bit.
    #[inline]
    fn eval(&self, value_of: impl Fn(&AttrProgram) -> AttrValue) -> Option<usize> {
        if self.stride == 1 {
            let mut mask = self.alive[0];
            for prog in &self.programs {
                if mask == 0 {
                    return None;
                }
                if mask & prog.constrained[0] == 0 {
                    continue;
                }
                let entry = match prog.entry(value_of(prog)) {
                    Some(e) => prog.entry_words(e, 1)[0],
                    None => 0,
                };
                mask &= prog.base[0] | entry;
            }
            if mask == 0 {
                None
            } else {
                Some(mask.trailing_zeros() as usize)
            }
        } else if self.stride <= STACK_WORDS {
            // Rule sets up to 64 × STACK_WORDS rules evaluate without
            // touching the heap.
            let mut buf = [0u64; STACK_WORDS];
            buf[..self.stride].copy_from_slice(&self.alive);
            self.eval_wide(value_of, &mut buf[..self.stride])
        } else {
            let mut buf = self.alive.clone();
            self.eval_wide(value_of, &mut buf)
        }
    }

    /// Multi-word evaluation over a caller-provided live mask.
    fn eval_wide(
        &self,
        value_of: impl Fn(&AttrProgram) -> AttrValue,
        mask: &mut [u64],
    ) -> Option<usize> {
        for prog in &self.programs {
            let touched = mask
                .iter()
                .zip(&prog.constrained)
                .fold(0u64, |t, (m, c)| t | (m & c));
            if touched == 0 {
                continue;
            }
            let entry = prog.entry(value_of(prog));
            let mut any = 0u64;
            for (w, m) in mask.iter_mut().enumerate() {
                let e = match entry {
                    Some(e) => prog.entry_words(e, self.stride)[w],
                    None => 0,
                };
                *m &= prog.base[w] | e;
                any |= *m;
            }
            if any == 0 {
                return None;
            }
        }
        first_bit(mask)
    }

    /// Rank of the first rule matching `row` of `data`, or `None`.
    /// Bit-identical to [`RuleSet::first_match`].
    ///
    /// # Panics
    /// Panics (like the interpreter) when a tested attribute's column
    /// type contradicts its conditions or indexes are out of range — in
    /// particular for any rule set testing one attribute both ways.
    #[inline]
    pub fn first_match(&self, data: &Dataset, row: usize) -> Option<usize> {
        self.eval(|prog| match &prog.table {
            DispatchTable::Cat { .. } => AttrValue::Code(data.cat(prog.attr, row)),
            DispatchTable::Num { .. } => AttrValue::Num(data.num(prog.attr, row)),
        })
    }

    /// Rank of the first rule whose conditions all hold against fallible
    /// value lookups, or `None`. Unknown (`None`) values mask the
    /// attribute's whole dispatch table, so no condition on that
    /// attribute can fire — bit-identical to
    /// [`RuleSet::first_match_lookup`]. Each attribute is looked up at
    /// most once per call (the interpreter may look up more often; the
    /// lookups are expected to be pure).
    pub fn first_match_lookup<N, C>(&self, num: N, cat: C) -> Option<usize>
    where
        N: Fn(usize) -> Option<f64>,
        C: Fn(usize) -> Option<u32>,
    {
        self.eval(|prog| match &prog.table {
            DispatchTable::Cat { .. } => match cat(prog.attr) {
                Some(c) => AttrValue::Code(c),
                None => AttrValue::Unknown,
            },
            DispatchTable::Num { .. } => match num(prog.attr) {
                Some(x) => AttrValue::Num(x),
                None => AttrValue::Unknown,
            },
        })
    }
}

/// A mask with the low `n` bits set, `stride` words wide.
fn ones(n: usize, stride: usize) -> Vec<u64> {
    let mut words = vec![0u64; stride];
    for (w, word) in words.iter_mut().enumerate() {
        let low = w * 64;
        if n >= low + 64 {
            *word = u64::MAX;
        } else if n > low {
            *word = (1u64 << (n - low)) - 1;
        }
    }
    words
}

/// Sets bit `r` of a mask.
#[inline]
fn set_bit(words: &mut [u64], r: usize) {
    words[r / 64] |= 1u64 << (r % 64);
}

/// Clears bit `r` of a mask.
#[inline]
fn clear_bit(words: &mut [u64], r: usize) {
    words[r / 64] &= !(1u64 << (r % 64));
}

/// Index of the lowest set bit, or `None` for an all-zero mask.
#[inline]
fn first_bit(words: &[u64]) -> Option<usize> {
    for (w, &word) in words.iter().enumerate() {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

/// Code-indexed dispatch table over one attribute's `(rule, pinned code)`
/// requirements.
fn cat_table(pins: &[(usize, u32)], stride: usize) -> DispatchTable {
    let n_codes = pins
        .iter()
        .map(|&(_, code)| code as usize + 1)
        .max()
        .unwrap_or(0);
    let mut masks = vec![0u64; n_codes * stride];
    for &(r, code) in pins {
        set_bit(&mut masks[code as usize * stride..], r);
    }
    DispatchTable::Cat { masks, n_codes }
}

/// Segment-indexed dispatch table over one attribute's `(rule, lo, hi)`
/// fused intervals. Rules whose interval is empty are cleared from
/// `alive`.
fn num_table(intervals: &[(usize, f64, f64)], stride: usize, alive: &mut [u64]) -> DispatchTable {
    let mut breakpoints: Vec<f64> = Vec::new();
    for &(_, lo, hi) in intervals {
        if lo.is_finite() {
            breakpoints.push(lo);
        }
        if hi.is_finite() {
            breakpoints.push(hi);
        }
    }
    breakpoints.sort_by(f64::total_cmp);
    breakpoints.dedup();
    let n_segments = breakpoints.len() + 1;
    let mut masks = vec![0u64; n_segments * stride];
    for &(r, lo, hi) in intervals {
        if lo.is_nan() || hi.is_nan() || lo >= hi {
            // Empty interval (includes NaN endpoints): the rule can never
            // match.
            clear_bit(alive, r);
            continue;
        }
        // Segments whose left edge is ≥ lo …
        let first = if lo.is_finite() {
            breakpoints.partition_point(|b| *b < lo) + 1
        } else {
            0
        };
        // … and whose right edge is ≤ hi.
        let last = if hi.is_finite() {
            breakpoints.partition_point(|b| *b <= hi)
        } else {
            n_segments
        };
        for s in first..last.max(first) {
            set_bit(&mut masks[s * stride..], r);
        }
    }
    DispatchTable::Num { breakpoints, masks }
}

/// Folds one more condition into an attribute requirement.
fn fold(req: Requirement, cond: &Condition) -> Requirement {
    let (lo, hi) = match *cond {
        Condition::CatEq { value, .. } => {
            return match req {
                Requirement::Free => Requirement::Pinned(value),
                Requirement::Pinned(prev) if prev == value => Requirement::Pinned(prev),
                _ => Requirement::Contradiction,
            };
        }
        Condition::NumLe { value, .. } => (f64::NEG_INFINITY, value),
        Condition::NumGt { value, .. } => (value, f64::INFINITY),
        Condition::NumRange { lo, hi, .. } => (lo, hi),
    };
    if lo.is_nan() || hi.is_nan() {
        return Requirement::Contradiction;
    }
    match req {
        Requirement::Free => Requirement::Interval(lo, hi),
        Requirement::Interval(plo, phi) => Requirement::Interval(plo.max(lo), phi.min(hi)),
        _ => Requirement::Contradiction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use pnr_data::{AttrType, DatasetBuilder, Value};

    fn data() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        b.add_cat_value(1, "a");
        b.add_cat_value(1, "b");
        b.add_cat_value(1, "c");
        for (x, k) in [
            (1.0, "a"),
            (2.0, "b"),
            (3.0, "a"),
            (4.0, "c"),
            (2.0, "c"),
            (5.0, "b"),
        ] {
            b.push_row(&[Value::num(x), Value::cat(k)], "c", 1.0)
                .unwrap();
        }
        b.finish()
    }

    fn le(v: f64) -> Condition {
        Condition::NumLe { attr: 0, value: v }
    }

    fn gt(v: f64) -> Condition {
        Condition::NumGt { attr: 0, value: v }
    }

    fn range(lo: f64, hi: f64) -> Condition {
        Condition::NumRange { attr: 0, lo, hi }
    }

    fn cat(code: u32) -> Condition {
        Condition::CatEq {
            attr: 1,
            value: code,
        }
    }

    fn assert_identical(rules: &RuleSet, data: &Dataset) {
        let compiled = CompiledRuleSet::compile(rules);
        for row in 0..data.n_rows() {
            let want = rules.first_match(data, row);
            assert_eq!(compiled.first_match(data, row), want, "row {row}");
            let via_lookup =
                compiled.first_match_lookup(|a| Some(data.num(a, row)), |a| Some(data.cat(a, row)));
            assert_eq!(via_lookup, want, "lookup row {row}");
        }
    }

    #[test]
    fn mixed_rules_dispatch_identically() {
        let d = data();
        let rules = RuleSet::from_rules(vec![
            Rule::new(vec![le(2.0), cat(2)]),
            Rule::new(vec![range(1.0, 3.0)]),
            Rule::new(vec![gt(3.0)]),
            Rule::empty(),
        ]);
        assert_identical(&rules, &d);
    }

    #[test]
    fn empty_ruleset_matches_nothing() {
        let d = data();
        let compiled = CompiledRuleSet::compile(&RuleSet::new());
        for row in 0..d.n_rows() {
            assert_eq!(compiled.first_match(&d, row), None);
        }
    }

    #[test]
    fn empty_rule_matches_everything_first() {
        let d = data();
        let rules = RuleSet::from_rules(vec![Rule::empty(), Rule::new(vec![le(10.0)])]);
        let compiled = CompiledRuleSet::compile(&rules);
        for row in 0..d.n_rows() {
            assert_eq!(compiled.first_match(&d, row), Some(0));
        }
    }

    #[test]
    fn contradictory_conjunctions_never_match() {
        let d = data();
        // two different codes on one attribute; an empty numeric interval;
        // a NaN threshold — all satisfiable by no row, exactly as under
        // the interpreter.
        let rules = RuleSet::from_rules(vec![
            Rule::new(vec![cat(0), cat(1)]),
            Rule::new(vec![gt(3.0), le(2.0)]),
            Rule::new(vec![le(f64::NAN)]),
            Rule::new(vec![range(2.0, 2.0)]),
            Rule::new(vec![le(3.0)]),
        ]);
        assert_identical(&rules, &d);
        let compiled = CompiledRuleSet::compile(&rules);
        for row in 0..d.n_rows() {
            assert!(!matches!(
                compiled.first_match(&d, row),
                Some(0) | Some(1) | Some(2) | Some(3)
            ));
        }
    }

    #[test]
    fn fused_intervals_equal_condition_conjunctions() {
        let d = data();
        let rules = RuleSet::from_rules(vec![
            Rule::new(vec![gt(1.0), le(4.0), range(1.5, 5.0)]),
            Rule::new(vec![le(f64::INFINITY)]),
            Rule::new(vec![gt(f64::NEG_INFINITY)]),
            Rule::new(vec![le(f64::NEG_INFINITY)]),
            Rule::new(vec![gt(f64::INFINITY)]),
        ]);
        assert_identical(&rules, &d);
    }

    #[test]
    fn threshold_boundaries_are_closed_on_the_right() {
        let d = data();
        // thresholds sitting exactly on data values: x ≤ 2 must include
        // x = 2, x > 2 must exclude it.
        let rules = RuleSet::from_rules(vec![Rule::new(vec![le(2.0)]), Rule::new(vec![gt(2.0)])]);
        assert_identical(&rules, &d);
    }

    #[test]
    fn unknown_masks_the_whole_dispatch_table() {
        // rank 0 tests both attributes, rank 1 only the numeric one,
        // rank 2 is unconditional.
        let rules = RuleSet::from_rules(vec![
            Rule::new(vec![le(10.0), cat(0)]),
            Rule::new(vec![le(10.0)]),
            Rule::empty(),
        ]);
        let compiled = CompiledRuleSet::compile(&rules);
        // categorical unknown: rule 0 cannot fire, rule 1 can
        assert_eq!(
            compiled.first_match_lookup(|_| Some(1.0), |_| None),
            Some(1)
        );
        // numeric unknown too: only the unconditional rule fires
        assert_eq!(compiled.first_match_lookup(|_| None, |_| None), Some(2));
        // interpreter agrees
        assert_eq!(rules.first_match_lookup(|_| Some(1.0), |_| None), Some(1));
        assert_eq!(rules.first_match_lookup(|_| None, |_| None), Some(2));
    }

    #[test]
    fn codes_beyond_the_dispatch_table_satisfy_no_equality() {
        let rules = RuleSet::from_rules(vec![Rule::new(vec![cat(0)]), Rule::empty()]);
        let compiled = CompiledRuleSet::compile(&rules);
        assert_eq!(compiled.first_match_lookup(|_| None, |_| Some(7)), Some(1));
        assert_eq!(rules.first_match_lookup(|_| None, |_| Some(7)), Some(1));
    }

    #[test]
    fn mixed_kinds_on_one_attribute_get_one_program_per_kind() {
        // rank 0 tests attribute 0 categorically, rank 1 numerically,
        // rank 2 both ways (a contradiction), rank 3 is unconditional.
        let rules = RuleSet::from_rules(vec![
            Rule::new(vec![Condition::CatEq { attr: 0, value: 0 }]),
            Rule::new(vec![le(1.0)]),
            Rule::new(vec![Condition::CatEq { attr: 0, value: 0 }, le(1.0)]),
            Rule::empty(),
        ]);
        let compiled = CompiledRuleSet::compile(&rules);
        assert_eq!(compiled.n_programs(), 2);
        for (num, cat, want) in [
            (None, Some(0), Some(0)),
            (Some(0.5), None, Some(1)),
            (Some(2.0), None, Some(3)),
            (None, Some(1), Some(3)),
            (None, None, Some(3)),
        ] {
            assert_eq!(compiled.first_match_lookup(|_| num, |_| cat), want);
            assert_eq!(rules.first_match_lookup(|_| num, |_| cat), want);
        }
    }

    #[test]
    fn wide_rulesets_use_multi_word_masks() {
        let d = data();
        // 70 rules: first 69 test successively larger thresholds on a
        // value no row reaches, the last is a catch-all — exercises the
        // multi-word path and cross-word first-bit recovery.
        let mut rules: Vec<Rule> = (0..69)
            .map(|i| Rule::new(vec![le(-100.0 + i as f64)]))
            .collect();
        rules.push(Rule::empty());
        let rules = RuleSet::from_rules(rules);
        let compiled = CompiledRuleSet::compile(&rules);
        assert_eq!(compiled.stride, 2);
        assert_identical(&rules, &d);
        for row in 0..d.n_rows() {
            assert_eq!(compiled.first_match(&d, row), Some(69));
        }
    }

    #[test]
    fn ones_mask_widths() {
        assert_eq!(ones(0, 1), vec![0]);
        assert_eq!(ones(3, 1), vec![0b111]);
        assert_eq!(ones(64, 1), vec![u64::MAX]);
        assert_eq!(ones(65, 2), vec![u64::MAX, 1]);
        assert_eq!(first_bit(&[0, 4]), Some(66));
        assert_eq!(first_bit(&[0, 0]), None);
    }
}
