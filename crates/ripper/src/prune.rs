//! IREP* rule pruning.

use pnr_data::weights::approx;
use pnr_rules::{Rule, TaskView};

/// IREP*'s pruning value `v* = (p − n) / (p + n)` of a rule on the prune
/// split, where `p`/`n` are the covered positive/negative weights. Empty
/// coverage scores 0 (equivalent to a coin flip).
pub fn prune_value(p: f64, n: f64) -> f64 {
    if approx::is_zero(p + n) {
        0.0
    } else {
        (p - n) / (p + n)
    }
}

/// Generalises `rule` by deleting a **final sequence** of conditions: every
/// prefix (including the full rule) is scored with `prune_value` on the
/// prune split and the best-scoring prefix wins; ties prefer the shorter
/// rule (more general). The empty prefix is not considered — a rule that
/// would prune to nothing is the caller's signal to stop.
pub fn prune_rule(rule: &Rule, prune_view: &TaskView<'_>) -> (Rule, f64) {
    debug_assert!(!rule.is_empty(), "cannot prune an empty rule");
    let mut best_len = rule.len();
    let mut best_v = {
        let c = prune_view.coverage(rule);
        prune_value(c.pos, c.neg())
    };
    for len in (1..rule.len()).rev() {
        let prefix = rule.truncated(len);
        let c = prune_view.coverage(&prefix);
        let v = prune_value(c.pos, c.neg());
        if v >= best_v {
            best_v = v;
            best_len = len;
        }
    }
    (rule.truncated(best_len), best_v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};
    use pnr_rules::Condition;

    fn data() -> (Dataset, Vec<bool>) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("noise", AttrType::Numeric);
        b.add_class("pos");
        b.add_class("neg");
        for i in 0..100 {
            let x = (i % 10) as f64;
            let noise = (i % 7) as f64;
            let target = x < 3.0;
            b.push_row(
                &[Value::num(x), Value::num(noise)],
                if target { "pos" } else { "neg" },
                1.0,
            )
            .unwrap();
        }
        let d = b.finish();
        let is_pos: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
        (d, is_pos)
    }

    #[test]
    fn prune_value_extremes() {
        assert_eq!(prune_value(10.0, 0.0), 1.0);
        assert_eq!(prune_value(0.0, 10.0), -1.0);
        assert_eq!(prune_value(5.0, 5.0), 0.0);
        assert_eq!(prune_value(0.0, 0.0), 0.0);
    }

    #[test]
    fn drops_overfitted_final_condition() {
        let (d, is_pos) = data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        // the second condition on `noise` is an overfit: it costs positives
        // without removing negatives
        let rule = Rule::new(vec![
            Condition::NumLe {
                attr: 0,
                value: 2.0,
            },
            Condition::NumLe {
                attr: 1,
                value: 3.0,
            },
        ]);
        let (pruned, v_star) = prune_rule(&rule, &v);
        assert_eq!(pruned.len(), 1, "noise condition must be pruned");
        assert_eq!(v_star, 1.0, "remaining rule is pure");
    }

    #[test]
    fn keeps_necessary_conditions() {
        let (d, is_pos) = data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        let rule = Rule::new(vec![Condition::NumLe {
            attr: 0,
            value: 2.0,
        }]);
        let (pruned, _) = prune_rule(&rule, &v);
        assert_eq!(pruned.len(), 1);
    }

    #[test]
    fn ties_prefer_shorter_rules() {
        let (d, is_pos) = data();
        let v = TaskView::full(&d, &is_pos, d.weights());
        // duplicate condition: same coverage at both lengths → prune to 1
        let rule = Rule::new(vec![
            Condition::NumLe {
                attr: 0,
                value: 2.0,
            },
            Condition::NumLe {
                attr: 0,
                value: 2.0,
            },
        ]);
        let (pruned, _) = prune_rule(&rule, &v);
        assert_eq!(pruned.len(), 1);
    }
}
