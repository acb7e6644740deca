"""Shared helpers for the per-figure benchmark harness.

Every benchmark regenerates one paper artefact (figure or table) at a
laptop-friendly scale, times it through pytest-benchmark, prints the
regenerated rows next to the paper's expectation, and asserts the *shape*
(orderings, growth trends, ratios) rather than absolute numbers — the
substrate here is a simulator, not the authors' 40-core testbed.

Heavyweight experiment runs use ``benchmark.pedantic(..., rounds=1)`` so
pytest-benchmark reports their wall time without re-running a multi-second
experiment dozens of times.
"""

from __future__ import annotations

import os
import sys


#: regenerated figure/table rows from the latest benchmark run land here
#: (pytest's fd-level capture swallows per-test output of passing tests,
#: so an artifact file is the reliable place to inspect them).  Untracked:
#: every run rewrites it, and CI uploads it as an artifact.
FIGURES_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmark_figures.txt")

#: set by this session's first :func:`report`, which truncates the file
#: (pytest never calls ``pytest_sessionstart`` from a non-root conftest,
#: so a session hook cannot do it)
_figures_started = False


def report(result) -> None:
    """Record a regenerated figure/table and assert its shape checks."""
    global _figures_started
    print(result.render(), file=sys.stderr)  # visible with -s / on failure
    with open(FIGURES_PATH, "a" if _figures_started else "w",
              encoding="utf-8") as handle:
        if not _figures_started:
            handle.write("# Regenerated paper figures/tables from the latest "
                         "benchmark run\n\n")
            _figures_started = True
        handle.write(result.render() + "\n\n")
    result.check()


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once through pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
