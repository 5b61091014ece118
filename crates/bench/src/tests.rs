//! Sanity tests of the experiment harness itself, on reduced budgets.

use crate::experiments as ex;

#[test]
fn small_matrix_supports_all_figure_functions() {
    let (m, _, _) = ex::matrix_over(&["hmmer", "lbm"], Some(120_000), 1, 2);
    assert_eq!(m.len(), 2);

    let f3 = ex::fig3(&m);
    assert!(f3.iter().all(|r| r.il1_miss_ratio >= 1.0), "naive must not improve IL1");

    let f4 = ex::fig4(&m);
    assert!(f4.iter().all(|(_, v)| *v > 0.0 && *v <= 1.05));

    let f12 = ex::fig12(&m);
    assert!(f12.iter().all(|(_, v)| *v >= 0.95), "vcfr must not lose to naive");

    for (_, a, b, c) in ex::fig13(&m) {
        assert!(a >= c - 1e-9, "512-entry DRC must beat 64-entry: {a} vs {c}");
        assert!(b > 0.5 && b <= 1.05);
    }

    for (_, m512, m64) in ex::fig14(&m) {
        assert!(m512 <= m64 + 1e-9);
        assert!((0.0..=100.0).contains(&m512));
    }

    for (_, pct) in ex::fig15(&m) {
        assert!((0.0..2.0).contains(&pct), "power overhead {pct}%");
    }
}

#[test]
fn table1_is_the_papers_matrix() {
    let t = ex::table1();
    for needle in ["No Randomization", "VCFR", "preserved", "destroyed", "diversified"] {
        assert!(t.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn table2_and_fig9_cover_all_eleven_apps() {
    let t2 = ex::table2();
    assert_eq!(t2.len(), 11);
    for (name, s) in &t2 {
        assert!(s.direct_transfers > 0, "{name}");
        assert!(s.funcs_with_ret > 0, "{name}");
    }
    assert_eq!(ex::fig9().len(), 11);
}

#[test]
fn means_behave() {
    assert!((ex::geomean([2.0, 8.0]) - 4.0).abs() < 1e-9);
    assert!((ex::mean([1.0, 3.0]) - 2.0).abs() < 1e-9);
    assert_eq!(ex::geomean(std::iter::empty()), 0.0);
    assert_eq!(ex::mean(std::iter::empty()), 0.0);
}

#[test]
fn fig2_rows_are_triple_digit_slowdowns() {
    // Only the two cheapest Fig 2 apps, to keep the test fast.
    let rows = ex::fig2();
    assert_eq!(rows.len(), 6);
    for r in rows {
        assert!(r.slowdown > 20.0, "{}: {}", r.name, r.slowdown);
        assert!(r.emulated_cpi > 50.0);
    }
}
