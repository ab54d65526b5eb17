"""Seeded matrix pairs with a planted, known spectrum.

Every matrix is built as ``Q T Q^T`` with ``Q`` a random orthogonal matrix,
so its spectrum is the spectrum of ``T``, which is written down by hand:
real eigenvalues on the diagonal and 2x2 rotation blocks ``[[a, w], [-w, a]]``
for the complex pairs ``a +- wi``.  The two matrices of a pair share some
of their real eigenvalues; those are the true common eigenvalues.  Every
planted spectrum is cross-checked against ``numpy.linalg.eigvals`` before a
pair is used, so a wrong answer can only come from the program measured.

This module needs numpy only; it never imports the program under test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from pairs import Pair, save_manifest

__all__ = [
    "OracleMismatch",
    "orthogonal",
    "planted_matrix",
    "dense_pair",
    "symmetric_pair",
    "small_pair",
    "check_spectrum",
    "render_mat",
    "make_pairs",
    "write_pairs",
]

# Real eigenvalues of dense and small pairs are drawn from [-REAL_SPAN, REAL_SPAN].
REAL_SPAN = 2.0
SYM_SPAN = 3.0
# Of every SCALED_EVERY consecutive small pairs, one is scaled by SMALL_SCALE
# and one by LARGE_SCALE, so a fixed 20% of cli_small runs off desk scale.
SCALED_EVERY = 10
SMALL_SCALE = 1e-4
LARGE_SCALE = 1e4


class OracleMismatch(RuntimeError):
    """A planted spectrum disagrees with numpy.linalg.eigvals."""


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix from a sign-fixed QR."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def planted_matrix(rng, reals, blocks) -> tuple[np.ndarray, np.ndarray]:
    """``Q T Q^T`` for real eigenvalues ``reals`` and (a, w) rotation blocks.

    Returns the matrix and its full planted spectrum (complex).
    """
    n = len(reals) + 2 * len(blocks)
    t = np.zeros((n, n))
    t[np.arange(len(reals)), np.arange(len(reals))] = reals
    spectrum = [complex(x) for x in reals]
    for k, (a, w) in enumerate(blocks):
        i = len(reals) + 2 * k
        t[i : i + 2, i : i + 2] = [[a, w], [-w, a]]
        spectrum += [complex(a, w), complex(a, -w)]
    q = orthogonal(rng, n)
    return q @ t @ q.T, np.array(spectrum)


def _rotation_blocks(rng, count):
    return list(zip(rng.uniform(-REAL_SPAN, REAL_SPAN, count), rng.uniform(0.5, 2.0, count)))


def dense_pair(rng, n=60, n_real=6, n_shared=3):
    """Dense nonsymmetric pair: ``n_real`` real eigenvalues each, of which
    ``n_shared`` are common, the rest complex pairs."""
    shared = rng.uniform(-REAL_SPAN, REAL_SPAN, n_shared)
    out = []
    for _ in range(2):
        reals = np.concatenate([shared, rng.uniform(-REAL_SPAN, REAL_SPAN, n_real - n_shared)])
        out.append((*planted_matrix(rng, reals, _rotation_blocks(rng, (n - n_real) // 2)), reals))
    return out, shared


def symmetric_pair(rng, n=30, n_shared=4):
    """Symmetric pair: every eigenvalue real, ``n_shared`` of them common."""
    shared = rng.uniform(-SYM_SPAN, SYM_SPAN, n_shared)
    out = []
    for _ in range(2):
        reals = np.concatenate([shared, rng.uniform(-SYM_SPAN, SYM_SPAN, n - n_shared)])
        m, spectrum = planted_matrix(rng, reals, [])
        out.append((0.5 * (m + m.T), spectrum, reals))
    return out, shared


def small_pair(rng, scale=1.0):
    """Small dense pair, orders 3 to 8 each, one or two common eigenvalues,
    both matrices multiplied by ``scale``."""
    orders = rng.integers(3, 9, size=2)
    # at most (n - 1) // 2 rotation blocks, so every matrix keeps a real eigenvalue
    block_counts = [int(rng.integers(0, (n - 1) // 2 + 1)) for n in orders]
    n_reals = [int(n) - 2 * b for n, b in zip(orders, block_counts)]
    n_shared = min(2, *n_reals)
    shared = rng.uniform(-REAL_SPAN, REAL_SPAN, n_shared)
    out = []
    for n_real, blocks in zip(n_reals, block_counts):
        reals = np.concatenate([shared, rng.uniform(-REAL_SPAN, REAL_SPAN, n_real - n_shared)])
        m, spectrum = planted_matrix(rng, reals, _rotation_blocks(rng, blocks))
        out.append((scale * m, scale * spectrum, scale * reals))
    return out, scale * shared


def check_spectrum(matrix: np.ndarray, planted: np.ndarray) -> None:
    """Raise OracleMismatch unless eigvals(matrix) matches ``planted``.

    Each computed eigenvalue is paired with the nearest planted one not yet
    taken; every distance must be within a tolerance relative to the
    spectral radius.
    """
    computed = list(np.linalg.eigvals(matrix))
    if len(computed) != len(planted):
        raise OracleMismatch(f"expected {len(planted)} eigenvalues, got {len(computed)}")
    tol = 1e-8 * max(float(np.max(np.abs(planted))), np.finfo(float).tiny)
    remaining = list(planted)
    for ev in computed:
        k = min(range(len(remaining)), key=lambda j: abs(remaining[j] - ev))
        if abs(remaining[k] - ev) > tol:
            raise OracleMismatch(
                f"eigvals gave {ev}, nearest planted eigenvalue is {remaining[k]}"
            )
        remaining.pop(k)


def render_mat(matrix: np.ndarray) -> str:
    """The program's plain-text matrix format, at full float precision."""
    lines = [str(matrix.shape[0])]
    lines += [" ".join(repr(float(v)) for v in row) for row in matrix]
    return "\n".join(lines) + "\n"


def _pair_scale(index: int) -> float:
    return {3: SMALL_SCALE, 8: LARGE_SCALE}.get(index % SCALED_EVERY, 1.0)


def make_pairs(kind: str, seed: int, count: int):
    """Yield ``count`` generated pairs of one kind, oracle-checked.

    Each item is ``(matrix_a, matrix_b, scale, common, reals_a, reals_b)``.
    The same (kind, seed) always yields the same pairs.
    """
    kinds = {"dense": 0, "symmetric": 1, "small": 2}
    rng = np.random.default_rng([seed, kinds[kind]])
    for index in range(count):
        scale = 1.0
        if kind == "dense":
            mats, shared = dense_pair(rng)
        elif kind == "symmetric":
            mats, shared = symmetric_pair(rng)
        else:
            scale = _pair_scale(index)
            mats, shared = small_pair(rng, scale)
        for matrix, spectrum, _ in mats:
            check_spectrum(matrix, spectrum)
        (ma, _, ra), (mb, _, rb) = mats
        yield ma, mb, scale, np.sort(shared), np.sort(ra), np.sort(rb)


def write_pairs(kind: str, seed: int, count: int, directory: Path) -> list[Pair]:
    """Generate pairs, write them as ``.mat`` files and a ``manifest.json``."""
    directory.mkdir(parents=True, exist_ok=True)
    pairs = []
    for index, (ma, mb, scale, common, ra, rb) in enumerate(make_pairs(kind, seed, count)):
        path_a = directory / f"pair{index:04d}_A.mat"
        path_b = directory / f"pair{index:04d}_B.mat"
        path_a.write_text(render_mat(ma))
        path_b.write_text(render_mat(mb))
        pairs.append(
            Pair(
                index=index,
                order_a=ma.shape[0],
                order_b=mb.shape[0],
                path_a=str(path_a),
                path_b=str(path_b),
                scale=scale,
                common=tuple(map(float, common)),
                reals_a=tuple(map(float, ra)),
                reals_b=tuple(map(float, rb)),
            )
        )
    save_manifest(pairs, directory)
    return pairs
