"""The generated pairs as the benchmark client sees them, and their manifest.

Kept free of numpy so that the set-up probe can read the manifest before
its timer starts without importing numpy outside the timed region.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["Pair", "save_manifest", "load_manifest"]

MANIFEST = "manifest.json"


@dataclass(frozen=True)
class Pair:
    """One generated input pair, as the benchmark client sees it.

    ``common`` holds the true common eigenvalues; ``reals_a`` and
    ``reals_b`` every real eigenvalue of each matrix; ``scale`` the factor
    both matrices were multiplied by (1.0 at desk scale).
    """

    index: int
    order_a: int
    order_b: int
    path_a: str
    path_b: str
    scale: float
    common: tuple[float, ...]
    reals_a: tuple[float, ...]
    reals_b: tuple[float, ...]


def save_manifest(pairs: list[Pair], directory: Path) -> None:
    (directory / MANIFEST).write_text(json.dumps([asdict(p) for p in pairs]))


def load_manifest(directory: Path) -> list[Pair]:
    raw = json.loads((directory / MANIFEST).read_text())
    return [
        Pair(**{k: tuple(v) if isinstance(v, list) else v for k, v in item.items()})
        for item in raw
    ]
