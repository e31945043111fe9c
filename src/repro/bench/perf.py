"""Same-host A/B timing: the one primitive behind every perf gate.

* :func:`engine` pins the simulation engine (``REPRO_FASTSIM``) for a
  ``with`` block and restores it after.
* :func:`abba` times two variants in interleaved A,B,B,A rounds and
  summarizes the per-round B/A ratios by their median and IQR.
* :func:`source_tree` unpacks ``src/`` at a git ref into a temporary
  directory, so a subprocess can run that ref's code beside the
  working tree (``python -m repro.bench.profile --against``).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import tarfile
import tempfile
from typing import Callable, Iterator, NamedTuple

from repro.core.simulator import clear_setup_cache

#: The checkout this package was imported from (the parent of ``src/``).
REPO_ROOT = os.path.abspath(os.path.join(__file__, *[os.pardir] * 4))


@contextlib.contextmanager
def engine(fast: bool) -> Iterator[None]:
    """Run the body on the batch engine (``fast``) or the reference loop.

    The setup-prototype cache is dropped on entry and on exit: cached
    machines carry one engine's fast-path closures and must not leak
    across the pin.
    """
    previous = os.environ.get("REPRO_FASTSIM")
    os.environ["REPRO_FASTSIM"] = "1" if fast else "0"
    clear_setup_cache()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_FASTSIM", None)
        else:
            os.environ["REPRO_FASTSIM"] = previous
        clear_setup_cache()


class ABBAResult(NamedTuple):
    ratio: float    # median over rounds of (b1 + b2) / (a1 + a2)
    iqr: float      # interquartile range of those ratios (0 for one)
    best_a: float   # fastest single A run, seconds
    best_b: float   # fastest single B run, seconds


def abba(run_a: Callable[[], float], run_b: Callable[[], float],
         rounds: int) -> ABBAResult:
    """Time B against A in ``rounds`` rounds of A, B, B, A.

    Each callable does one run and returns the seconds it measured, so
    the caller decides what is inside the clock. Ambient load on a
    shared host drifts over minutes, far more than the differences
    worth gating, so best-of-N per side (minima from different load
    eras) misleads. Back-to-back A,B,B,A cancels linear drift within a
    round; the median over rounds shrugs off a round that a background
    task stomped on, and the IQR says how far to trust it.
    """
    if rounds < 1:
        raise ValueError("abba needs at least one round")
    ratios = []
    best_a = best_b = float("inf")
    for _ in range(rounds):
        a1, b1, b2, a2 = run_a(), run_b(), run_b(), run_a()
        ratios.append((b1 + b2) / (a1 + a2))
        best_a = min(best_a, a1, a2)
        best_b = min(best_b, b1, b2)
    iqr = 0.0
    if rounds > 1:
        q1, _median, q3 = statistics.quantiles(ratios, n=4,
                                               method="inclusive")
        iqr = q3 - q1
    return ABBAResult(statistics.median(ratios), iqr, best_a, best_b)


def _git(*args: str) -> bytes:
    proc = subprocess.run(["git", "-C", REPO_ROOT, *args],
                          capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: "
                           f"{proc.stderr.decode().strip()}")
    return proc.stdout


def base_ref() -> str:
    """HEAD if ``src/`` has uncommitted changes, else HEAD~1."""
    return "HEAD" if _git("status", "--porcelain", "--", "src").strip() \
        else "HEAD~1"


@contextlib.contextmanager
def source_tree(ref: str) -> Iterator[str]:
    """Yield the path of ``src/`` as of git ``ref``, unpacked in a temp dir.

    A ref git cannot resolve (say HEAD~1 in a one-commit shallow clone)
    raises ``RuntimeError``.
    """
    archive = _git("archive", "--format=tar", ref, "src")
    # Python >= 3.12 warns unless told how far to trust the archive.
    trust = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tempfile.TemporaryDirectory(prefix="repro-src-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, **trust)
        yield os.path.join(tmp, "src")
