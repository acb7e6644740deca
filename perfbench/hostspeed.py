"""Host-speed calibration: time expressed at a nominal machine speed.

The sandbox this benchmark must repeat on is a shared virtual machine
whose effective speed drifts: a fixed pure-Python loop takes 0.68 to
1.1 ms (10th to 90th percentile) depending on what the neighbours do,
in bursts of 0.1 to 30 s.  No stream of CPU-bound database operations
repeats within a tenth on such a host — not even a spin loop does.

So a small calibrator process runs the same fixed loop every
``SAMPLE_GAP_S`` for the whole run and records ``(start, duration)``
pairs in shared memory.  ``HostSpeed.normalise(a, b)`` integrates
``NOMINAL_SPIN_NS / duration`` over the interval ``[a, b]``: the time
the interval would have taken on a host where the loop takes exactly
``NOMINAL_SPIN_NS``.  On the seed commit this cut the run-to-run spread
of a fixed stream from 6.6 % to 2.1 % (README.md, "Calibration").

Both commits of a comparison are scaled by the same frozen loop, so a
change that makes the program faster still shows in full; only the
host's share of the noise is divided out.  The raw wall-clock values
are kept in the report files next to the normalised ones.
"""

from __future__ import annotations

import bisect
import mmap
import multiprocessing
import os
import statistics
import time

#: the calibration loop's length; frozen, as is the nominal duration
SPIN_ITERATIONS = 20_000
#: the loop's duration on the host the op counts were calibrated on
NOMINAL_SPIN_NS = 850_000
SAMPLE_GAP_S = 0.012
#: room for 40 minutes of samples; an int64 count, a stop flag, then pairs
MAX_SAMPLES = 200_000
PROCESS_NAME = "perfbench-hostspeed"
#: samples on each side of a point that are combined (median) into the
#: speed at that point: rejects a sample the scheduler preempted mid-loop
SMOOTH = 2


def _spin() -> tuple[int, int]:
    start = time.perf_counter_ns()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i * i
    return start, time.perf_counter_ns() - start


def _calibrate(buffer: mmap.mmap, parent: int) -> None:
    view = memoryview(buffer).cast("q")
    while not view[1] and view[0] < MAX_SAMPLES and os.getppid() == parent:
        start, spent = _spin()
        count = view[0]
        view[2 + 2 * count] = start
        view[3 + 2 * count] = spent
        view[0] = count + 1         # publish after the pair is written
        time.sleep(SAMPLE_GAP_S)


class HostSpeed:
    """Owns the calibrator process; converts intervals to nominal time."""

    def __init__(self) -> None:
        self._buffer = mmap.mmap(-1, 8 * (2 + 2 * MAX_SAMPLES))
        self._view = memoryview(self._buffer).cast("q")
        self._process = None
        self._times: list[int] = []
        self._gain: list[float] = []    # smoothed NOMINAL / duration per sample
        self._area: list[float] = []    # integral of gain up to each sample

    def start(self) -> None:
        """Fork the calibrator; call before any thread or client exists."""
        context = multiprocessing.get_context("fork")
        self._process = context.Process(
            target=_calibrate, args=(self._buffer, os.getpid()),
            name=PROCESS_NAME, daemon=True)
        self._process.start()

    def stop(self) -> None:
        if self._process is None:
            return
        self._view[1] = 1
        self._process.join(timeout=5)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5)
        self._process = None

    def _load(self, until_ns: int) -> None:
        """Pull new samples in; wait briefly for one taken after ``until_ns``."""
        deadline = time.monotonic() + 1.0
        while True:
            count = self._view[0]
            if count and self._view[2 + 2 * (count - 1)] >= until_ns:
                break
            if self._process is None or time.monotonic() > deadline:
                break
            time.sleep(SAMPLE_GAP_S)
        if count == len(self._times):
            return
        # a few thousand samples per run: rebuilding everything is cheap,
        # and keeps the smoothed tail consistent as its neighbours arrive
        self._times = [self._view[2 + 2 * i] for i in range(count)]
        spent = [self._view[3 + 2 * i] for i in range(count)]
        self._gain = [
            NOMINAL_SPIN_NS / statistics.median(spent[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(count)
        ]
        self._area = [0.0]
        for i in range(1, count):
            self._area.append(self._area[-1] + self._gain[i - 1]
                              * (self._times[i] - self._times[i - 1]))

    def _integral(self, at_ns: int) -> float:
        index = bisect.bisect_right(self._times, at_ns) - 1
        if index < 0:
            index = 0                   # before the first sample: its speed
        return self._area[index] + self._gain[index] * (at_ns - self._times[index])

    def normalise(self, start_ns: int, end_ns: int) -> float:
        """Nominal-speed nanoseconds of the interval ``[start_ns, end_ns]``."""
        if not self._times or self._times[-1] < end_ns:
            self._load(end_ns)
        if not self._times:
            raise RuntimeError("host-speed calibrator produced no samples")
        return self._integral(end_ns) - self._integral(start_ns)

    def summary(self) -> dict:
        """Spread of the raw loop durations over the run (for the report)."""
        self._load(0)
        spent = sorted(self._view[3 + 2 * i] for i in range(len(self._times)))
        if not spent:
            return {"samples": 0}
        return {
            "samples": len(spent),
            "spin_p10_us": spent[len(spent) // 10] / 1e3,
            "spin_p50_us": spent[len(spent) // 2] / 1e3,
            "spin_p90_us": spent[9 * len(spent) // 10] / 1e3,
            "nominal_us": NOMINAL_SPIN_NS / 1e3,
        }
