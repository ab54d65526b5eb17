"""The generator: seeded, oracle-checked, with the planted truth it claims."""

import numpy as np
import pytest

import generate
from pairs import load_manifest


@pytest.mark.parametrize("kind", ["dense", "symmetric", "small"])
def test_same_seed_same_pairs(kind):
    first = list(generate.make_pairs(kind, 7, 3))
    again = list(generate.make_pairs(kind, 7, 3))
    other = list(generate.make_pairs(kind, 8, 3))
    for (a1, b1, *_), (a2, b2, *_) in zip(first, again):
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert not np.array_equal(first[0][0], other[0][0])


@pytest.mark.parametrize("kind", ["dense", "symmetric", "small"])
def test_common_values_are_eigenvalues_of_both(kind):
    for a, b, scale, common, reals_a, reals_b in generate.make_pairs(kind, 3, 12):
        assert len(common) >= 1
        for m, reals in ((a, reals_a), (b, reals_b)):
            ev = np.linalg.eigvals(m)
            tol = 1e-8 * scale * max(1.0, float(np.max(np.abs(ev))) / scale)
            for x in reals:
                assert np.min(np.abs(ev - x)) <= tol
            assert set(np.round(common / scale, 12)) <= set(np.round(reals / scale, 12))


def test_shapes_and_symmetry():
    a, b, *_ = next(generate.make_pairs("dense", 1, 1))
    assert a.shape == b.shape == (60, 60)
    s, t, *_ = next(generate.make_pairs("symmetric", 1, 1))
    assert s.shape == (30, 30) and np.array_equal(s, s.T) and np.array_equal(t, t.T)
    for a, b, *_ in generate.make_pairs("small", 1, 20):
        assert 3 <= a.shape[0] <= 8 and 3 <= b.shape[0] <= 8


def test_fixed_share_of_small_pairs_is_scaled():
    scales = [item[2] for item in generate.make_pairs("small", 5, 20)]
    assert scales.count(generate.SMALL_SCALE) == 2
    assert scales.count(generate.LARGE_SCALE) == 2
    assert scales.count(1.0) == 16


def test_oracle_rejects_a_wrong_spectrum():
    rng = np.random.default_rng(0)
    m, spectrum = generate.planted_matrix(rng, [1.0, 2.0], [(0.5, 1.0)])
    generate.check_spectrum(m, spectrum)
    with pytest.raises(generate.OracleMismatch):
        generate.check_spectrum(m, spectrum + 1e-3)


def test_written_pairs_round_trip(tmp_path):
    pairs = generate.write_pairs("small", 2, 4, tmp_path)
    assert load_manifest(tmp_path) == pairs
    originals = list(generate.make_pairs("small", 2, 4))
    for pair, (a, *_rest) in zip(pairs, originals):
        lines = open(pair.path_a).read().splitlines()
        assert int(lines[0]) == pair.order_a == a.shape[0]
        assert np.array_equal(np.array([[float(v) for v in row.split()] for row in lines[1:]]), a)
