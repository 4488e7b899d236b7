"""The gain table's one array pass over the flux grid against its per-point loop.

``amplification_sweep`` evaluates E_J(f_s), the stability margin, the
stiffness and eta1 for a whole grid at once.  ``loop_amplification_sweep``
below is the per-point version it replaces, kept as the reference: one
``CircuitParams`` per point, then ``stability`` and ``reduced_params``.
Every row must match it exactly (floats compared by ``repr``, so a zero
must also keep its sign); unstable rows carry NaNs and are compared by
status.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fluxsqueeze.circuit import CircuitParams, cos_pi, reduced_params, stability
from fluxsqueeze.coupling import (
    INTERACTION_FLUX,
    AmplificationRow,
    amplification_sweep,
    bare_coupling,
    default_geometry,
)
from fluxsqueeze.errors import ParameterError, StabilityError

E_C, E_L = 0.12, 58.6
DEFAULT_GRID = np.linspace(0.5, 1.0, 101)
DEFAULT_RATIOS = (1.005, 1.01, 1.05, 1.1)


def loop_amplification_sweep(e_c, ratios, t, fs_grid, e_l=58.6, geometry=None, two_pi=False):
    phase = 2.0 * math.pi if two_pi else 1.0
    rows = []
    for ratio in ratios:
        if not ratio > 0:
            raise ParameterError(f"E_L/E_J ratio must be positive, got {ratio}")
        p0 = CircuitParams(e_c=e_c, e_j=e_l / ratio, e_l=e_l, f_s=INTERACTION_FLUX)
        geom = geometry if geometry is not None else default_geometry(p0)
        g = bare_coupling(p0, geom)
        for f_s in fs_grid:
            p = replace(p0, f_s=float(f_s))
            try:
                usable = stability(p).stable
                r = reduced_params(p) if usable else None
            except StabilityError:
                r = None
            if r is None:
                nan = math.nan
                rows.append(AmplificationRow(ratio, float(f_s), nan, nan, nan, nan, "unstable"))
                continue
            eta2 = -r.eta1 * t * phase + 0.0
            try:
                gain = math.exp(2.0 * eta2)
            except OverflowError:
                gain = math.inf
            if not (math.isfinite(eta2) and math.isfinite(g * gain)):
                raise ParameterError(
                    f"coupling gain exp(2 eta2) overflows float at ratio={ratio}, "
                    f"f_s={float(f_s)} (eta2={eta2:.6g}); shorten the evolution "
                    f"time run.t (t={t} ns)"
                )
            rows.append(AmplificationRow(ratio, float(f_s), r.eta1, eta2, gain, g * gain, "ok"))
    return rows


def assert_rows_identical(got, want):
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert row.status == ref.status
        if ref.status == "ok":
            assert [repr(x) for x in vars(row).values()] == [repr(x) for x in vars(ref).values()]
        else:
            assert (row.ratio, row.f_s) == (ref.ratio, ref.f_s)
            assert all(math.isnan(x) for x in (row.eta1, row.eta2, row.gain, row.g_eff))


@pytest.mark.parametrize(
    "ratios, t, grid, two_pi",
    [
        (DEFAULT_RATIOS, 1.0, DEFAULT_GRID, False),
        (DEFAULT_RATIOS, 1.0, DEFAULT_GRID, True),
        (DEFAULT_RATIOS, 0.9, np.linspace(0.0, 1.0, 101), False),
        ((0.5, 1.0, 2.0, 4.0, 8.0), 1.0, DEFAULT_GRID, False),
        (DEFAULT_RATIOS, 1.0, np.linspace(-1.0, 2.0, 301), False),
        ((1.0, 3.0), 1.3, [0.5, 1, 1.25, -0.5, 2.5], False),
    ],
    ids=["default", "two_pi", "t0.9_from_0", "ratios_0.5_to_8", "301_points", "list_grid"],
)
def test_grid_pass_matches_the_per_point_loop(ratios, t, grid, two_pi):
    got = amplification_sweep(E_C, ratios, t, grid, e_l=E_L, two_pi=two_pi)
    assert_rows_identical(got, loop_amplification_sweep(E_C, ratios, t, grid, E_L, None, two_pi))


def test_unstable_rows_include_the_zero_margin_point():
    ratios = (0.5, 1.0, 2.0, 4.0, 8.0)
    rows = amplification_sweep(E_C, ratios, 1.0, DEFAULT_GRID, e_l=E_L)
    assert sum(row.status == "unstable" for row in rows) == 68
    # ratio 1 puts E_L + E_J(1)/2 at exactly 0 GHz: flagged, not solved
    edge = CircuitParams(e_c=E_C, e_j=E_L, e_l=E_L, f_s=1.0)
    assert stability(edge).margin == 0.0
    assert [row.status for row in rows if row.ratio == 1.0 and row.f_s == 1.0] == ["unstable"]


def test_grid_pass_matches_the_loop_on_random_points():
    rng = np.random.default_rng(20261018)
    grid = rng.uniform(-3.0, 3.0, 2000)
    got = amplification_sweep(E_C, (1.005, 2.0), 0.7, grid, e_l=E_L)
    assert_rows_identical(got, loop_amplification_sweep(E_C, (1.005, 2.0), 0.7, grid, E_L))
    # the array cos_pi the pass rests on has the bits of the scalar one,
    # which runs in math rather than numpy: also on 100k more points and
    # every half-integer in [-4, 4]
    assert np.array_equal(cos_pi(grid), [cos_pi(float(x)) for x in grid])
    points = np.concatenate([rng.uniform(-4.0, 4.0, 100_000), np.arange(-8, 9) / 2.0])
    assert np.array_equal(cos_pi(points), [cos_pi(x) for x in points.tolist()])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_flux_point_is_rejected_naming_f_s(bad):
    grid = [0.5, 0.7, bad, 0.9]
    with pytest.raises(ParameterError) as ref:
        loop_amplification_sweep(E_C, DEFAULT_RATIOS, 1.0, grid, E_L)
    with pytest.raises(ParameterError, match="f_s must be finite") as got:
        amplification_sweep(E_C, DEFAULT_RATIOS, 1.0, grid, e_l=E_L)
    assert str(got.value) == str(ref.value)


def test_gain_overflow_message_matches_the_loop():
    with pytest.raises(ParameterError) as ref:
        loop_amplification_sweep(E_C, DEFAULT_RATIOS, 1e4, DEFAULT_GRID, E_L)
    with pytest.raises(ParameterError, match="overflows") as got:
        amplification_sweep(E_C, DEFAULT_RATIOS, 1e4, DEFAULT_GRID, e_l=E_L)
    assert str(got.value) == str(ref.value)
