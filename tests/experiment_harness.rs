//! Smoke tests of the experiment harness at miniature scale: every table
//! function runs end-to-end and produces sane rows.

use pnr_experiments::experiments;
use pnr_experiments::CliOptions;

fn tiny() -> CliOptions {
    CliOptions {
        scale: 0.003,
        threads: 4,
        out_dir: "/tmp/pnr_harness_test".into(),
        // every cell runs: with resume on, a rerun would serve each
        // cell from checkpoints an earlier build left in `out_dir`
        resume: false,
        ..Default::default()
    }
}

#[test]
fn table1_smoke() {
    let results = experiments::table1(&tiny());
    assert_eq!(results.len(), 6);
    for exp in &results {
        assert_eq!(exp.rows.len(), 5, "{}", exp.id);
        for row in &exp.rows {
            assert!((0.0..=1.0).contains(&row.f), "{} {}", exp.id, row.label);
        }
    }
}

#[test]
fn table2_smoke() {
    let results = experiments::table2(&tiny());
    assert_eq!(results.len(), 4);
    for exp in &results {
        let labels: Vec<&str> = exp.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["C4.5-we", "RIPPER-we", "PNrule"]);
    }
}

#[test]
fn table3_smoke() {
    let results = experiments::table3(&tiny());
    assert_eq!(results.len(), 10);
    assert!(results[0].id.ends_with("coa1"));
    assert!(results[9].id.ends_with("coad4"));
}

#[test]
fn table4_and_5_smoke() {
    let t4 = experiments::table4(&tiny());
    assert_eq!(t4.len(), 4);
    let t5 = experiments::table5(&tiny());
    assert_eq!(t5.len(), 12);
    // the sweep must actually raise the target proportion
    let first = &t5[0].description;
    let last = &t5[6].description;
    assert!(
        first.contains("0.3%") || first.contains("0.2%") || first.contains("0.4%"),
        "{first}"
    );
    assert!(last.contains("5") || last.contains("4"), "{last}");
}

#[test]
fn section4_grid_smoke() {
    let grids = experiments::rp_rn_grid(&tiny(), "r2l", &[0.95], &[0.9], false);
    assert_eq!(grids.len(), 1);
    assert_eq!(grids[0].rows.len(), 1);
    assert_eq!(grids[0].rows[0].label, "rn=0.9");
}

#[test]
fn paper_reference_covers_every_table1_row() {
    use pnr_experiments::paper::paper_f;
    for ds in 1..=6 {
        for label in ["C4.5rules", "C4.5-we", "RIPPER", "RIPPER-we", "PNrule"] {
            assert!(
                paper_f(&format!("table1/nsyn{ds}"), label).is_some(),
                "missing paper value for nsyn{ds}/{label}"
            );
        }
    }
}
