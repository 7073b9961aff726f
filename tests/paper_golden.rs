//! Golden-file tests for the paper's results: the §5.1 coverage matrix and
//! Tables 2–4, rendered as the experiment binaries print them and diffed
//! byte-for-byte against `tests/golden/paper/<name>.txt`. A verdict, an
//! alert transcript or an instruction count that shifts fails here.
//! Regenerate deliberately with:
//!
//! ```sh
//! BLESS=1 cargo test --test paper_golden
//! ```

use std::path::PathBuf;

use ptaint::experiments::coverage::run_coverage_matrix;
use ptaint::experiments::table2::run_wu_ftpd_transcript;
use ptaint::experiments::table3::run_false_positive_suite;
use ptaint::experiments::table4::run_false_negative_suite;

fn check(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/paper")
        .join(format!("{name}.txt"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: missing golden {} ({e}); run with BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        want,
        "{name}: drifted from {}; if intentional, regenerate with BLESS=1",
        path.display()
    );
}

#[test]
fn coverage_matrix_matches_golden() {
    check("coverage_5_1", &run_coverage_matrix().to_string());
}

#[test]
fn wu_ftpd_transcript_matches_golden() {
    check("table2_wu_ftpd", &run_wu_ftpd_transcript().to_string());
}

#[test]
fn false_positive_suite_matches_golden() {
    // The scale of the suite's own unit test.
    check(
        "table3_false_positives",
        &run_false_positive_suite(3).to_string(),
    );
}

#[test]
fn false_negative_suite_matches_golden() {
    check(
        "table4_false_negatives",
        &run_false_negative_suite().to_string(),
    );
}
