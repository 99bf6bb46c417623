"""Mechanism presets: every prefetching configuration the paper evaluates.

A :class:`Mechanism` names which prefetchers run, how CDP is filtered, and
which throttling controller (if any) manages them.  The presets cover every
bar in the paper's figures, from the stream-only baseline through the full
proposal (ECDP + coordinated throttling) and all the comparison points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.config import SystemConfig
from repro.errors import UnknownNameError

__all__ = ["Mechanism", "MECHANISMS", "SystemConfig"]


@dataclass(frozen=True)
class Mechanism:
    """One prefetching system configuration."""

    name: str
    stream: bool = True
    cdp: bool = False
    hints: str = "none"  # none | ecdp | grp | loadfilter
    throttle: str = "none"  # none | coordinated | fdp | gendler
    correlation: str = "none"  # none | markov | ghb | dbp | stride | nextline
    hw_filter: bool = False
    oracle_lds: bool = False

    @property
    def needs_profile(self) -> bool:
        return self.hints != "none"


MECHANISMS: Dict[str, Mechanism] = {
    mech.name: mech
    for mech in [
        # Baselines and motivation (Figures 1, 2)
        Mechanism("no-prefetch", stream=False),
        Mechanism("baseline"),  # aggressive stream prefetcher (Table 5)
        Mechanism("oracle-lds", oracle_lds=True),
        # The paper's four main configurations (Figure 7)
        Mechanism("cdp", cdp=True),
        Mechanism("ecdp", cdp=True, hints="ecdp"),
        Mechanism("cdp+throttle", cdp=True, throttle="coordinated"),
        Mechanism("ecdp+throttle", cdp=True, hints="ecdp", throttle="coordinated"),
        # LDS/correlation prefetcher comparisons (Figure 11)
        Mechanism("dbp", correlation="dbp"),
        Mechanism("markov", correlation="markov"),
        Mechanism("ghb", stream=False, correlation="ghb"),
        Mechanism("ghb+ecdp", stream=False, correlation="ghb", cdp=True, hints="ecdp"),
        Mechanism(
            "ghb+ecdp+throttle",
            stream=False,
            correlation="ghb",
            cdp=True,
            hints="ecdp",
            throttle="coordinated",
        ),
        # Hardware prefetch filtering (Figure 12)
        Mechanism("hwfilter", cdp=True, hw_filter=True),
        Mechanism("hwfilter+throttle", cdp=True, hw_filter=True, throttle="coordinated"),
        # Feedback-directed prefetching (Figure 13)
        Mechanism("ecdp+fdp", cdp=True, hints="ecdp", throttle="fdp"),
        # Gendler et al. PAB selector (Section 7.4)
        Mechanism("gendler", cdp=True, hints="ecdp", throttle="gendler"),
        # Related-work coarse-grained hint baselines (Sections 7.1, 7.2)
        Mechanism("grp", cdp=True, hints="grp"),
        Mechanism("loadfilter", cdp=True, hints="loadfilter"),
        # Per-PC stride and next-line prefetchers (library extensions)
        Mechanism("stride", correlation="stride"),
        Mechanism("nextline", stream=False, correlation="nextline"),
    ]
}


def get_mechanism(name: str) -> Mechanism:
    try:
        return MECHANISMS[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown mechanism {name!r}; known: {sorted(MECHANISMS)}"
        ) from None
