"""Named sweep presets and the sweep specification.

Each preset pins the fixed parameters of one standard parameter study
(the fig* family used throughout the docs) and declares up to two swept
axes.  Caption-level values (temperatures, fixed frequencies, coupling
structure) are exact; axis extents are best-effort reading of the plots
and are documented per preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["Axis", "SweepSpec", "SCENARIOS", "resolve_scenario", "scenario_names"]

SWEEPABLE = ("lambda", "wa", "wb", "T")

FULL = "full"
SQUEEZE_ONLY = "squeeze-only"
MIX_ONLY = "mix-only"


@dataclass(frozen=True)
class Axis:
    """One swept parameter with an explicit, ordered value grid."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in SWEEPABLE:
            raise ValueError(f"cannot sweep {self.name!r}; one of {SWEEPABLE}")
        if len(self.values) < 2:
            raise ValueError("an axis needs at least two points")
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"axis {self.name!r} values must be finite")

    @classmethod
    def linspace(cls, name: str, start: float, stop: float, count: int) -> "Axis":
        if count < 2:
            raise ValueError("an axis needs at least two points")
        return cls(name, tuple(float(v) for v in np.linspace(start, stop, count)))


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: axes (row-major order), fixed values, state kind."""

    scenario: str
    axes: tuple[Axis, ...]
    fixed: dict = field(default_factory=dict)
    diamag_mode: str | float = "auto"  # "auto", "zero", or an explicit value
    state: str = "thermal"  # "ground" | "thermal"
    coupling: str = FULL
    description: str = ""

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep uses one or two axes")
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("swept parameters must be distinct")
        if self.state not in ("ground", "thermal"):
            raise ValueError("state must be 'ground' or 'thermal'")
        if self.coupling not in (FULL, SQUEEZE_ONLY, MIX_ONLY):
            raise ValueError(f"unknown coupling structure {self.coupling!r}")
        if self.diamag_mode not in ("auto", "zero"):
            try:
                float(self.diamag_mode)
            except (TypeError, ValueError):
                msg = "diamag_mode must be 'auto', 'zero' or a number"
                raise ValueError(msg) from None

    def grid(self):
        """Row-major iteration over the axes, yielding parameter updates."""
        if len(self.axes) == 1:
            for v in self.axes[0].values:
                yield {self.axes[0].name: v}
        else:
            outer, inner = self.axes
            for vo in outer.values:
                for vi in inner.values:
                    yield {outer.name: vo, inner.name: vi}


def _ground_coupling_sweep(name, description, coupling, diamag, wa_values=None):
    axes = []
    if wa_values is not None:
        axes.append(Axis("wa", wa_values))
    axes.append(Axis.linspace("lambda", 0.012, 1.2, 100))
    return SweepSpec(
        scenario=name,
        axes=tuple(axes),
        fixed={"wa": 1.0, "wb": 1.0, "T": 0.0},
        diamag_mode=diamag,
        state="ground",
        coupling=coupling,
        description=description,
    )


def _build_scenarios() -> dict[str, SweepSpec]:
    scenarios = {}

    scenarios["fig2a"] = _ground_coupling_sweep(
        "fig2a",
        "Ground-state entanglement vs coupling for cavity frequencies "
        "0.5, 1, 2 (axis extent 0..1.2 read off the plot).",
        FULL,
        "auto",
        wa_values=(0.5, 1.0, 2.0),
    )
    scenarios["fig2b"] = _ground_coupling_sweep(
        "fig2b",
        "Ground-state steering on the fig2a grid.",
        FULL,
        "auto",
        wa_values=(0.5, 1.0, 2.0),
    )
    scenarios["fig2c"] = SweepSpec(
        scenario="fig2c",
        axes=(Axis.linspace("lambda", 0.01, 0.9, 90),),
        fixed={"wa": 1.0, "wb": 1.0, "T": 0.0},
        diamag_mode="zero",
        state="ground",
        coupling=SQUEEZE_ONLY,
        description="Squeezing-interaction-only ground state at resonance "
        "(lambda2 swept, lambda1 = 0; extent 0..0.9, stability ends at 1).",
    )
    scenarios["fig2d"] = SweepSpec(
        scenario="fig2d",
        axes=(Axis.linspace("lambda", 0.01, 0.9, 90),),
        fixed={"wa": 1.0, "wb": 1.0, "T": 0.0},
        diamag_mode="zero",
        state="ground",
        coupling=MIX_ONLY,
        description="Mixing-interaction-only ground state at resonance "
        "(lambda1 swept, lambda2 = 0); stays the vacuum.",
    )
    scenarios["fig3a"] = SweepSpec(
        scenario="fig3a",
        axes=(
            Axis.linspace("wa", 0.1, 2.0, 39),
            Axis.linspace("lambda", 0.02, 1.5, 75),
        ),
        fixed={"wb": 1.0, "T": 0.15},
        diamag_mode="auto",
        state="thermal",
        description="Steady-state entanglement over (cavity frequency, "
        "coupling) at T = 0.15 (extents best-effort).",
    )
    scenarios["fig3b"] = SweepSpec(
        scenario="fig3b",
        axes=(
            Axis.linspace("lambda", 0.02, 1.5, 75),
            Axis.linspace("T", 0.01, 1.0, 34),
        ),
        fixed={"wa": 1.0, "wb": 1.0},
        diamag_mode="auto",
        state="thermal",
        description="Steady-state entanglement over (coupling, temperature) "
        "at resonance; also carries the steering columns of the "
        "matching (T, lambda) steering panels.",
    )
    scenarios["fig4"] = replace(
        scenarios["fig3a"],
        scenario="fig4",
        description="Both steering directions over (cavity frequency, "
        "coupling) at T = 0.15; the temperature panels of the same "
        "study live on the fig3b grid.",
    )
    scenarios["fig5"] = SweepSpec(
        scenario="fig5",
        axes=(Axis.linspace("lambda", 0.025, 2.0, 80),),
        fixed={"wa": 1.0, "wb": 1.0, "T": 0.25},
        diamag_mode="auto",
        state="thermal",
        description="Resonant steady state vs coupling at T = 0.25 "
        "(one-way steering regime); rerun with --diamag zero for the "
        "no-diamagnetic comparison panels (unstable rows flagged past 0.5).",
    )
    scenarios["fig6"] = SweepSpec(
        scenario="fig6",
        axes=(Axis.linspace("wa", 0.05, 2.0, 79),),
        fixed={"wb": 1.0, "T": 0.2, "lambda": 0.25},
        diamag_mode="auto",
        state="thermal",
        description="Cavity-frequency sweep at lambda = 0.25, T = 0.2: "
        "steering direction flips at the purity-balance frequency 0.8828.",
    )
    scenarios["fig8"] = SweepSpec(
        scenario="fig8",
        axes=(Axis.linspace("lambda", 0.01, 0.7, 70),),
        fixed={"wa": 2.0, "wb": 1.0, "T": 0.25},
        diamag_mode="zero",
        state="thermal",
        description="Off-resonant (wa = 2) no-diamagnetic model vs coupling "
        "at T = 0.25; a one-way steering window by the hot matter mode "
        "opens below the critical coupling sqrt(2)/2.",
    )
    return scenarios


SCENARIOS = _build_scenarios()

# common shorthand for the frequency panel of the fig6 study
_ALIASES = {"fig6a": "fig6"}


def scenario_names() -> tuple[str, ...]:
    return tuple(SCENARIOS) + tuple(_ALIASES)


def resolve_scenario(name: str) -> SweepSpec:
    key = _ALIASES.get(name, name)
    try:
        return SCENARIOS[key]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
