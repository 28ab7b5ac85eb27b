//! The experiment table: unique names, and the experiments render
//! well-formed, paper-shaped reports. The golden harness
//! (`tests/golden_values.rs`) pins every report byte.

use columbia::experiments::{run, EXPERIMENTS};

#[test]
fn quick_experiments_render() {
    // The fast subset — the golden harness runs the heavyweight
    // sweeps.
    for name in ["table1", "dgemm-stream", "stride", "fig5", "fig10"] {
        let r = run(name);
        assert!(!r.rows.is_empty(), "{name} produced no rows");
        let text = r.to_text();
        assert!(text.contains("=="), "{name} header missing");
        let json = r.to_json();
        assert!(json.contains(&r.id), "{name} JSON missing id");
    }
}

#[test]
fn table2_shape_matches_paper() {
    let r = run("table2");
    // Parse the BX2b column: baseline row then thread rows.
    let parse = |s: &str| -> f64 { s.split_whitespace().next().unwrap().parse().unwrap() };
    let t1 = parse(&r.rows[1][2]); // 36x1
    let t14 = parse(&r.rows[6][2]); // 36x14
    let speedup = t1 / t14;
    assert!((2.5..4.2).contains(&speedup), "paper: 3.33; got {speedup}");
}

#[test]
fn experiment_names_unique() {
    let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), EXPERIMENTS.len());
}
