"""End-to-end acceptance checks for the reference pair and randomized families.

Each test covers one acceptance criterion and records a single
``[PASS]``/``[FAIL]`` line (echoed in the terminal summary).  Tolerances are
part of the contract; do not touch them to make a red test green.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from common_eig import (
    AnalysisConfig,
    DenseMatrix,
    GridScan,
    Mode,
    RealInterval,
    char_fn,
    common_eigenvalues,
    discs_of,
    emit_scan_table,
    find_real_roots,
    intersect,
    matrix_bounds,
    parse_matrix,
    render_svg,
    run_benchmark,
    scan,
)
from common_eig.cli import run_cli
from conftest import A_TEXT, ACCEPTANCE_VERDICTS, B_TEXT
from oracles import cofactor_determinant, jacobi_eigenvalues

GOLDEN = __file__.rsplit("/", 1)[0] + "/golden"


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        ACCEPTANCE_VERDICTS.append(f"[FAIL] {label}")
        raise
    ACCEPTANCE_VERDICTS.append(f"[PASS] {label}")


def _reference_pair():
    return parse_matrix(A_TEXT), parse_matrix(B_TEXT)


def test_01_reference_bounds_exact():
    with verdict("1: Gerschgorin bounds of the reference pair are exact"):
        a, b = _reference_pair()
        ia, ib = matrix_bounds(a), matrix_bounds(b)
        assert ia == RealInterval(-4.0, 8.0)
        assert ib == RealInterval(0.0, 4.0)
        assert intersect(ia, ib) == RealInterval(0.0, 4.0)


def test_02_reference_char_fn_values():
    with verdict("2: characteristic values match the tabulated scan to 1e-3"):
        a, b = _reference_pair()
        fa = lambda x: char_fn(a, x)  # noqa: E731
        fb = lambda x: char_fn(b, x)  # noqa: E731
        for fn, lam, expected in [
            (fa, 0.0, -30.0),
            (fa, 0.1, -26.999),
            (fa, 2.9, 0.189),
            (fb, 0.0, -12.0),
            (fb, 0.1, -10.179),
            (fb, 0.9, -0.651),
            (fb, 2.9, 0.209),
        ]:
            assert fn(lam) == pytest.approx(expected, abs=1e-3), lam
        assert abs(fa(3.0)) <= 1e-12
        assert abs(fb(3.0)) <= 1e-12


def test_03_reference_roots_and_common():
    with verdict("3: reference roots and the shared eigenvalue to 1e-8"):
        a, b = _reference_pair()
        report = common_eigenvalues(a, b)
        got_a = [r.value for r in report.roots_a]
        got_b = [r.value for r in report.roots_b]
        assert got_a == pytest.approx([2.0, 3.0], abs=1e-8)
        assert got_b == pytest.approx([1.0, 3.0, 4.0], abs=1e-8)
        assert list(report.common) == pytest.approx([3.0], abs=1e-8)


def test_04_proposed_never_costs_more():
    with verdict("4: restricted search is never costlier; ~2x cheaper here"):
        a, b = _reference_pair()
        pairs = [(a, b), (a, a), (DenseMatrix([[1.0]]), DenseMatrix([[10.0]]))]
        rng = np.random.default_rng(271828)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            pairs.append(
                (
                    DenseMatrix(rng.uniform(-3.0, 3.0, (n, n))),
                    DenseMatrix(rng.uniform(-3.0, 3.0, (n, n))),
                )
            )
        for ma, mb in pairs:
            prop = common_eigenvalues(ma, mb)
            conv = common_eigenvalues(
                ma, mb, AnalysisConfig(mode=Mode.CONVENTIONAL)
            )
            assert (
                prop.eval_count_a + prop.eval_count_b
                <= conv.eval_count_a + conv.eval_count_b
            )
        bench = run_benchmark(a, b, repetitions=10)
        assert 1.9 <= bench.eval_ratio <= 2.1
        assert bench.proposed_median_time <= bench.conventional_median_time


def test_05_bounds_contain_symmetric_spectra():
    with verdict("5: bounds contain every Jacobi eigenvalue, 100 matrices"):
        rng = np.random.default_rng(57721)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = rng.uniform(-1.0, 1.0, (n, n))
            m = (m + m.T) / 2.0
            box = matrix_bounds(DenseMatrix(m))
            for ev in jacobi_eigenvalues(m):
                assert box.lo - 1e-9 <= ev <= box.hi + 1e-9


def test_06_determinant_against_cofactor_oracle():
    with verdict("6: char_fn agrees with cofactor expansion of lam*I - M, 200 draws"):
        rng = np.random.default_rng(16180)
        for k in range(200):
            n = int(rng.integers(1, 6))
            m = rng.integers(-9, 10, (n, n)).astype(float)
            lam = float(k % 19 - 9)
            got = char_fn(DenseMatrix(m), lam)
            want = cofactor_determinant(lam * np.eye(n) - m)
            if want == 0.0:
                assert abs(got) <= 1e-9
            else:
                assert abs(got - want) <= 1e-9 * abs(want)


def test_07_triangular_spectra_recovered():
    with verdict("7: triangular spectra recovered to 1e-8, none spurious"):
        rng = np.random.default_rng(14142)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            while True:
                diag = np.sort(rng.uniform(0.0, 10.0, n))
                if np.min(np.diff(diag)) >= 0.25:
                    break
            m = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
            np.fill_diagonal(m, diag)
            matrix = DenseMatrix(m)
            roots = find_real_roots(GridScan(lambda x: char_fn(matrix, x), matrix_bounds(matrix)))
            assert len(roots) == n
            for est, want in zip(roots, diag):
                assert est.value == pytest.approx(want, abs=1e-8)


def test_08_disjoint_bounds_short_circuit(tmp_path, capsys):
    with verdict("8: disjoint bounds cost zero evaluations and exit cleanly"):
        one = DenseMatrix([[1.0]])
        ten = DenseMatrix([[10.0]])
        report = common_eigenvalues(one, ten)
        assert report.search_interval_a.empty
        assert report.eval_count_a == 0 and report.eval_count_b == 0
        assert report.common == ()
        pa = tmp_path / "one.mat"
        pb = tmp_path / "ten.mat"
        pa.write_text("1\n1\n", encoding="utf-8")
        pb.write_text("1\n10\n", encoding="utf-8")
        code = run_cli([str(pa), str(pb)])
        out = capsys.readouterr().out
        assert code == 0
        assert "common: (none)" in out


def test_09_rendered_outputs_match_golden_bytes(tmp_path):
    with verdict("9: SVG and scan tables reproduce the golden bytes"):
        a, b = _reference_pair()
        band = intersect(matrix_bounds(a), matrix_bounds(b))

        def artefacts():
            svg = render_svg(discs_of(a), discs_of(b), band)
            tables = []
            for m in (a, b):
                fn = lambda x: char_fn(m, x)  # noqa: E731
                records = scan(fn, band)
                tables.append(emit_scan_table(records))
            return svg, tables[0], tables[1]

        first = artefacts()
        second = artefacts()
        assert first == second  # same bytes on repeated runs
        svg, table_a, table_b = first
        assert table_a.split("\n")[1] == "1,0,-30.0000,"
        for name, text in [
            ("reference_discs.svg", svg),
            ("reference_scan_A.csv", table_a),
            ("reference_scan_B.csv", table_b),
        ]:
            with open(f"{GOLDEN}/{name}", encoding="utf-8", newline="") as fh:
                assert fh.read() == text, name
