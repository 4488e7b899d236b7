"""The coupling-gain table g_eff/g = exp(2 eta2) over flux, without numpy.

Like ``physics``, this module imports only the standard library,
``errors`` and ``physics``: ``amplify`` then runs without loading numpy.
``coupling`` and the package re-export both names defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ParameterError
from .physics import (
    INTERACTION_FLUX, CircuitParams, CouplingGeometry, bare_coupling, cos_pi, default_geometry,
)


@dataclass(frozen=True)
class AmplificationRow:
    """One point of the gain sweep; unstable points carry NaNs and a flag."""

    ratio: float
    f_s: float
    eta1: float
    eta2: float
    gain: float
    g_eff: float
    status: str


def amplification_sweep(
    e_c: float,
    ratios: tuple[float, ...],
    t: float,
    fs_grid: Iterable[float],
    e_l: float = 58.6,
    geometry: CouplingGeometry | None = None,
    two_pi: bool = False,
) -> list[AmplificationRow]:
    """Gain table g_eff/g over flux for several E_L/E_J ratios.

    E_L is held fixed (the loop hardware) and E_J = E_L / ratio, so the
    bare coupling g is one number for the whole table.  eta2 = -eta1 * t
    with the plain GHz*ns phase; ``two_pi`` switches in the alternative
    angular convention eta2 = -2 pi eta1 t for sensitivity studies.
    Unstable points become flagged gap rows instead of failures.
    """
    phase = 2.0 * math.pi if two_pi else 1.0
    f_s_values = [float(f_s) for f_s in fs_grid]
    # cos(pi f_s) is shared by every ratio; E_J(f_s) = 2 E_J cos(pi f_s)
    # is then formed as effective_josephson forms it
    cosines = [cos_pi(f_s) for f_s in f_s_values]
    rows: list[AmplificationRow] = []
    for ratio in ratios:
        if not ratio > 0:
            raise ParameterError(f"E_L/E_J ratio must be positive, got {ratio}")
        p0 = CircuitParams(e_c=e_c, e_j=e_l / ratio, e_l=e_l, f_s=INTERACTION_FLUX)
        geom = geometry if geometry is not None else default_geometry(p0)
        g = bare_coupling(p0, geom)
        # the operations of stability() and reduced_params() in their
        # order, on floats, without a CircuitParams per point; the factors
        # that do not depend on f_s are formed once, as the first step of
        # each product
        two_e_j, two_e_l = 2.0 * p0.e_j, 2.0 * e_l
        for f_s, cosine in zip(f_s_values, cosines):
            if not math.isfinite(f_s):
                raise ParameterError(f"f_s must be finite, got {f_s}")
            ejf = two_e_j * cosine
            margin = e_l + 0.5 * ejf
            stiffness = two_e_l + ejf
            # boundary points (margin exactly 0) have no quadratic reduction
            # either, so they land in the gap branch with the unstable ones
            if not (margin >= 0.0 and stiffness > 0):
                rows.append(
                    AmplificationRow(
                        ratio=ratio,
                        f_s=f_s,
                        eta1=math.nan,
                        eta2=math.nan,
                        gain=math.nan,
                        g_eff=math.nan,
                        status="unstable",
                    )
                )
                continue
            eta1 = 0.25 * (p0.e_c / (2.0 * stiffness)) * ejf
            # + 0.0 normalizes the negative zero at the sweet spot
            eta2 = -eta1 * t * phase + 0.0
            try:
                gain = math.exp(2.0 * eta2)
            except OverflowError:
                gain = math.inf
            if not (math.isfinite(eta2) and math.isfinite(g * gain)):
                raise ParameterError(
                    f"coupling gain exp(2 eta2) overflows float at ratio={ratio}, "
                    f"f_s={f_s} (eta2={eta2:.6g}); shorten the evolution "
                    f"time run.t (t={t} ns)"
                )
            rows.append(
                AmplificationRow(
                    ratio=ratio,
                    f_s=f_s,
                    eta1=eta1,
                    eta2=eta2,
                    gain=gain,
                    g_eff=g * gain,
                    status="ok",
                )
            )
    return rows
