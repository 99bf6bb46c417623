"""Per-interval time series: the feedback signals behind every figure.

The paper's mechanism is *interval-based*: every ``interval_evictions``
L2 evictions the feedback counters are halved-and-accumulated (Eq. 3)
and the Table 3 heuristic moves each prefetcher's aggressiveness level.
End-of-run aggregates hide that whole trajectory; this recorder hooks
the roll-over (``FeedbackCollector.on_interval_telemetry``, which fires
*after* the throttling controller) and captures one sample per interval:

* per-prefetcher smoothed accuracy and coverage — exactly the Eq. 1/2
  values the controller just decided on,
* per-prefetcher aggressiveness level (post-decision),
* interval BPKI (bus transfers per thousand retired instructions, over
  this interval only),
* interval demand misses,
* DRAM request-buffer occupancy and L2 MSHR pressure at the boundary.

Memory is bounded by *decimation*: when the series exceeds
``max_points`` every other retained sample is dropped and the keep
stride doubles, so an arbitrarily long run costs O(max_points) while
preserving even temporal spacing.  The throttle-decision trajectory is
kept undecimated (it is ``n_prefetchers`` tuples per interval, the same
data :mod:`tests.differential.harness` extracts) so the recorded
trajectory is *identical* to the differential harness's, not a sampled
approximation of it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.registry import dram_occupancy

DecisionTuple = Tuple[str, int, str, float, float, float]


class IntervalSeriesRecorder:
    """Records one sample per feedback interval for one core."""

    def __init__(self, core, dram, max_points: int = 4096) -> None:
        if max_points < 2:
            raise ValueError("series max_points must be at least 2")
        self._core = core
        self._dram = dram
        self.max_points = max_points
        self.samples: List[Dict[str, Any]] = []
        self.stride = 1
        self.intervals_seen = 0
        self.decimated = 0
        #: undecimated throttle trajectory, ``(owner, case, action,
        #: coverage, accuracy, rival_coverage)`` per decision — the same
        #: tuples the differential harness extracts from the controller
        self.trajectory: List[DecisionTuple] = []
        self._decisions_seen = 0
        self._last_levels: Dict[str, int] = {}
        self._last_bus = core.bus_transfers
        self._last_retired = core.retired
        self._last_misses = core.feedback.lifetime_misses

    # -- hook ----------------------------------------------------------------

    def on_interval(self, collector, tail: bool) -> None:
        """Fires after the controller at each roll-over (tail: end of run)."""
        core = self._core
        cycle = core.cycle
        self._capture_decisions(collector)

        prefetchers: Dict[str, Dict[str, float]] = {}
        tracer = core._tracer
        for prefetcher in self._throttled(core):
            name = prefetcher.name
            level = prefetcher.level
            last = self._last_levels.get(name)
            if last is not None and level != last and tracer is not None:
                tracer.emit(
                    cycle, "throttle", name,
                    args={
                        "from": last,
                        "to": level,
                        "interval": collector.intervals_completed,
                    },
                )
            self._last_levels[name] = level
            prefetchers[name] = {
                "accuracy": collector.accuracy(name),
                "coverage": collector.coverage(name),
                "level": level,
            }

        bus = core.bus_transfers
        retired = core.retired
        misses = core.feedback.lifetime_misses
        d_bus = bus - self._last_bus
        d_retired = retired - self._last_retired
        sample = {
            "interval": collector.intervals_completed,
            "tail": tail,
            "cycle": cycle,
            "bpki": (d_bus / d_retired * 1000.0) if d_retired else 0.0,
            "demand_misses": misses - self._last_misses,
            "dram_occupancy": dram_occupancy(self._dram, cycle),
            "mshr_occupancy": len(core._outstanding),
            "prefetchers": prefetchers,
        }
        self._last_bus = bus
        self._last_retired = retired
        self._last_misses = misses

        index = self.intervals_seen
        self.intervals_seen += 1
        if tracer is not None:
            tracer.emit(cycle, "interval", core.name,
                        args={"interval": collector.intervals_completed})
        if tail or index % self.stride == 0:
            self.samples.append(sample)
            if len(self.samples) > self.max_points:
                self._decimate()
        else:
            self.decimated += 1

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _throttled(core) -> list:
        prefetchers = list(core._trained_prefetchers)
        if core.cdp is not None:
            prefetchers.append(core.cdp)
        return prefetchers

    def _capture_decisions(self, collector) -> None:
        """Append this interval's controller decisions, if any.

        Duck-typed on the attached ``on_interval`` hook exposing a
        ``decisions`` list (:class:`~repro.policy.controller.
        PolicyThrottle` does); other controllers simply record no
        trajectory.
        """
        controller = getattr(collector.on_interval, "__self__", None)
        decisions = getattr(controller, "decisions", None)
        if decisions is None:
            return
        fresh = decisions[self._decisions_seen:]
        self._decisions_seen = len(decisions)
        self.trajectory.extend(
            (d.owner, d.case, d.action, d.coverage, d.accuracy,
             d.rival_coverage)
            for d in fresh
        )

    def _decimate(self) -> None:
        """Halve the retained series, doubling the keep stride."""
        self.decimated += len(self.samples) - len(self.samples[::2])
        self.samples = self.samples[::2]
        self.stride *= 2

    # -- views ---------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Compact per-run digest of the series (export-friendly)."""
        out: Dict[str, Any] = {
            "intervals": self.intervals_seen,
            "samples": len(self.samples),
            "stride": self.stride,
            "decimated": self.decimated,
        }
        if self.samples:
            bpki = [s["bpki"] for s in self.samples]
            out["bpki_min"] = min(bpki)
            out["bpki_max"] = max(bpki)
            out["bpki_mean"] = sum(bpki) / len(bpki)
        return out
