"""Figure 3a — Redis' delay in erasing expired keys beyond their TTL.

The paper populates Redis with keys whose TTLs are 20% short-term
(5 minutes) and 80% long-term (5 days), waits out the 5 minutes, then
measures how long the stock lazy expiry cycle takes to fully erase the
expired keys: hours at 128K keys, growing with total volume.  Their
modified (strict) algorithm erases everything within sub-second latency.

We reproduce the experiment on minikv with a virtual clock: simulated time
advances 100 ms per expiry tick, so hours of Redis wall-clock take
milliseconds to simulate while exercising the identical algorithm.
"""

from __future__ import annotations

from repro.common.clock import VirtualClock
from repro.minikv.engine import MiniKV, MiniKVConfig
from repro.minikv.expiry import TICK_SECONDS

from .base import ExperimentResult

SHORT_TTL = 300.0          # 5 minutes, the paper's short-term keys
LONG_TTL = 5 * 86400.0     # 5 days
SHORT_FRACTION = 0.2

#: paper's x-axis is 1K..128K total records; default scale trimmed for CI
DEFAULT_COUNTS = (1000, 2000, 4000, 8000, 16000)


def erasure_delay(total_keys: int, strict: bool, seed: int = 3, max_hours: float = 24.0) -> float:
    """Simulated seconds after the deadline until every expired key is gone."""
    clock = VirtualClock()
    kv = MiniKV(MiniKVConfig(ttl_algorithm="strict" if strict else "lazy",
                             expiry_seed=seed), clock=clock)
    for i in range(total_keys):
        ttl = SHORT_TTL if i % int(1 / SHORT_FRACTION) == 0 else LONG_TTL
        kv.set(f"k{i}", b"v", ttl=ttl)
    clock.advance(SHORT_TTL + TICK_SECONDS)  # the short-term keys just expired
    deadline = clock.now()
    budget_ticks = int(max_hours * 3600 / TICK_SECONDS)
    for _ in range(budget_ticks):
        kv.cron()
        if not kv._expires.all_expired(clock.now()):
            return clock.now() - deadline
        clock.advance(TICK_SECONDS)
    return clock.now() - deadline  # budget exhausted (reported as-is)


def run(counts=DEFAULT_COUNTS, seed: int = 3) -> ExperimentResult:
    rows = []
    for total in counts:
        lazy = erasure_delay(total, strict=False, seed=seed)
        strict = erasure_delay(total, strict=True, seed=seed)
        rows.append(
            {
                "total_keys": total,
                "expired_keys": total // int(1 / SHORT_FRACTION),
                "lazy_erasure_s": round(lazy, 1),
                "lazy_erasure_min": round(lazy / 60, 2),
                "strict_erasure_s": round(strict, 3),
            }
        )
    lazy_series = [row["lazy_erasure_s"] for row in rows]
    strict_series = [row["strict_erasure_s"] for row in rows]
    checks = [
        (
            "lazy erasure delay grows with total keys (monotone, >=4x end to end)",
            all(b > a for a, b in zip(lazy_series, lazy_series[1:]))
            and lazy_series[-1] >= 4 * lazy_series[0],
        ),
        (
            "strict erasure is sub-second at every scale",
            all(s < 1.0 for s in strict_series),
        ),
        (
            "lazy is orders of magnitude slower than strict at the largest scale",
            lazy_series[-1] > 100 * max(strict_series[-1], 1e-9),
        ),
    ]
    return ExperimentResult(
        experiment="fig3a",
        title="Redis TTL erasure delay: lazy sampling vs strict scan",
        paper_expectation=(
            "stock Redis takes minutes-to-hours to erase expired keys, growing "
            "with DB size (~3h at 128K keys); the modified strict algorithm "
            "erases all expired keys within sub-second latency"
        ),
        rows=rows,
        shape_checks=checks,
    )
