"""Benchmark harness regenerating the paper's evaluation figures.

The figure runners live in :mod:`repro.bench.figures`; the package does
not import that module, so ``python -m repro.bench.figures`` runs it
fresh (runpy warns when the package has already loaded it).
"""

from repro.bench.configs import (
    FIGURE8_THREADS,
    FIGURE_MECHANISMS,
    PAPER_CONFIG,
    SCALED_CONFIG,
    all_figure_specs,
    figure_spec,
    uncached,
)

__all__ = [
    "FIGURE8_THREADS",
    "FIGURE_MECHANISMS",
    "PAPER_CONFIG",
    "SCALED_CONFIG",
    "all_figure_specs",
    "figure_spec",
    "uncached",
]
