"""Benchmark clients: how each workload feeds a pair to the program and reads
back its answer.

Importing this module imports ``common_eig``; the set-up probe relies on
that to time the program's import.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import xml.parsers.expat
from pathlib import Path

from common_eig import AnalysisConfig, Mode, common_eigenvalues, parse_matrix
from common_eig.cli import run_cli

from pairs import Pair

__all__ = ["BadOutput", "PipelineClient", "CliClient", "CLIENTS", "count_matches"]

# The program's documented defaults, restated here so that scoring does not
# move if a later version of the program changes its own constants.  Scaled
# pairs get every length-like tolerance multiplied by the pair's scale;
# --zero-tol stays at its default, as nothing tells a user how to scale it.
STEP = 0.1
WIDTH_TOL = 1e-10
MATCH_TOL = 1e-6
DEDUPE_TOL = 1e-6


class BadOutput(Exception):
    """The program exited non-zero or wrote output that does not parse."""


def _reject_constant(token):
    raise BadOutput(f"non-standard JSON token {token}")


def svg_root(data: bytes) -> str:
    """Name of the root element of a well-formed XML document.

    Parses in C without building a tree; SVG files here can run to tens
    of megabytes.
    """
    parser = xml.parsers.expat.ParserCreate(namespace_separator=" ")
    names = []

    def first_element(name, attrs):
        names.append(name)
        parser.StartElementHandler = None

    parser.StartElementHandler = first_element
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise BadOutput(f"SVG is not well-formed: {exc}") from exc
    return names[0] if names else ""


def count_matches(truth, reported, tol) -> int:
    """Reported values that pair one-to-one with a true value within tol."""
    left = sorted(truth)
    matched = 0
    for value in sorted(reported):
        near = [t for t in left if abs(t - value) <= tol]
        if near:
            left.remove(min(near, key=lambda t: abs(t - value)))
            matched += 1
    return matched


def scaled_config(scale: float, mode: Mode = Mode.PROPOSED) -> AnalysisConfig:
    if scale == 1.0:
        return AnalysisConfig(mode=mode)
    return AnalysisConfig(
        mode=mode,
        step=STEP * scale,
        width_tol=WIDTH_TOL * scale,
        match_tol=MATCH_TOL * scale,
        dedupe_tol=DEDUPE_TOL * scale,
    )


class _Client:
    """Parses every input once and runs the conventional search on demand."""

    def __init__(self, pairs: list[Pair], outdir: Path):
        self.pairs = pairs
        self.outdir = outdir
        self.matrices = {}

    def load(self) -> None:
        for p in self.pairs:
            with open(p.path_a, encoding="utf-8") as fa, open(p.path_b, encoding="utf-8") as fb:
                self.matrices[p.index] = (parse_matrix(fa.read()), parse_matrix(fb.read()))

    def evals(self, pair: Pair, mode: Mode) -> int:
        a, b = self.matrices[pair.index]
        report = common_eigenvalues(a, b, scaled_config(pair.scale, mode))
        return report.eval_count_a + report.eval_count_b


class PipelineClient(_Client):
    """Calls ``common_eigenvalues`` in proposed mode on parsed matrices."""

    def run(self, pair: Pair):
        a, b = self.matrices[pair.index]
        return common_eigenvalues(a, b)

    def answer(self, pair: Pair, report) -> tuple[float, ...]:
        if not all(math.isfinite(v) for v in report.common):
            raise BadOutput(f"non-finite common value in {report.common}")
        return report.common


class CliClient(_Client):
    """Runs the command line with --json, --svg and --scan-table per pair."""

    def _stem(self, pair: Pair) -> str:
        return str(self.outdir / f"pair{pair.index:04d}")

    def _paths(self, pair: Pair) -> dict[str, Path]:
        stem = self._stem(pair)
        return {
            "json": Path(f"{stem}.json"),
            "svg": Path(f"{stem}.svg"),
            "csv_a": Path(f"{stem}_A.csv"),
            "csv_b": Path(f"{stem}_B.csv"),
        }

    def argv(self, pair: Pair) -> list[str]:
        paths = self._paths(pair)
        argv = [
            pair.path_a,
            pair.path_b,
            "--json", str(paths["json"]),
            "--svg", str(paths["svg"]),
            "--scan-table", self._stem(pair),
        ]
        if pair.scale != 1.0:
            cfg = scaled_config(pair.scale)
            argv += [
                "--step", repr(cfg.step),
                "--width-tol", repr(cfg.width_tol),
                "--match-tol", repr(cfg.match_tol),
                "--dedupe-tol", repr(cfg.dedupe_tol),
            ]
        return argv

    def run(self, pair: Pair) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return run_cli(self.argv(pair))

    def answer(self, pair: Pair, code: int) -> tuple[float, ...]:
        """Check every file the run wrote, then delete them."""
        paths = self._paths(pair)
        try:
            if code != 0:
                raise BadOutput(f"exit code {code}")
            try:
                payload = json.loads(
                    paths["json"].read_text(encoding="utf-8"), parse_constant=_reject_constant
                )
                root = svg_root(paths["svg"].read_bytes())
                tables = [paths[k].read_text(encoding="utf-8") for k in ("csv_a", "csv_b")]
            except (OSError, ValueError) as exc:
                raise BadOutput(str(exc)) from exc
            if root != "http://www.w3.org/2000/svg svg":
                raise BadOutput(f"SVG root element is {root!r}")
            for table in tables:
                lines = table.splitlines()
                if lines[:1] != ["sr_no,lambda,det,remark"] or any(
                    line.count(",") != 3 for line in lines
                ):
                    raise BadOutput("malformed scan table")
            common = payload.get("common")
            if not isinstance(common, list) or not all(
                isinstance(v, (int, float)) for v in common
            ):
                raise BadOutput(f"bad common list {common!r}")
            return tuple(float(v) for v in common)
        finally:
            for path in paths.values():
                path.unlink(missing_ok=True)


CLIENTS = {"pipeline": PipelineClient, "cli": CliClient}
