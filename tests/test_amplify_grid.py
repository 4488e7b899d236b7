"""The gain table and its flux grid, without numpy, against numpy references.

``amplification_sweep`` evaluates E_J(f_s), the stability margin, the
stiffness and eta1 point by point on Python floats.  Two references are
kept: ``loop_amplification_sweep`` builds one ``CircuitParams`` per point,
then calls ``stability`` and ``reduced_params``; ``array_amplification_sweep``
is the numpy pass over the whole grid that the float loop replaced, with
``array_cos_pi``, numpy's form of ``cos_pi``.  Every
row must match them exactly (floats compared by ``repr``, so a zero must
also keep its sign); unstable rows carry NaNs and are compared by status.
The CLI's grids come from ``cli.linspace``, which must give the points of
``numpy.linspace`` bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxsqueeze.cli import linspace
from fluxsqueeze.config import MAX_GRID_POINTS
from fluxsqueeze.errors import ParameterError, StabilityError
from fluxsqueeze.physics import (
    INTERACTION_FLUX,
    AmplificationRow,
    CircuitParams,
    amplification_sweep,
    bare_coupling,
    cos_pi,
    default_geometry,
    reduced_params,
    stability,
)

E_C, E_L = 0.12, 58.6
DEFAULT_GRID = np.linspace(0.5, 1.0, 101)
DEFAULT_RATIOS = (1.005, 1.01, 1.05, 1.1)


def array_cos_pi(x):
    """cos(pi * x) of an array, snapped to 0 and +-1 at half-integers."""
    arr = np.asarray(x, dtype=float)
    doubled = 2.0 * np.mod(arr, 2.0)
    nearest = np.round(doubled)
    snapped = np.array([1.0, 0.0, -1.0, 0.0])[nearest.astype(np.int64) % 4]
    return np.where(doubled == nearest, snapped, np.cos(np.pi * arr))


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


def array_amplification_sweep(e_c, ratios, t, fs_grid, e_l=58.6, geometry=None, two_pi=False):
    phase = 2.0 * math.pi if two_pi else 1.0
    f_s_values = [float(f_s) for f_s in fs_grid]
    fs = np.array(f_s_values)
    rows = []
    for ratio in ratios:
        if not ratio > 0:
            raise ParameterError(f"E_L/E_J ratio must be positive, got {ratio}")
        p0 = CircuitParams(e_c=e_c, e_j=e_l / ratio, e_l=e_l, f_s=INTERACTION_FLUX)
        geom = geometry if geometry is not None else default_geometry(p0)
        g = bare_coupling(p0, geom)
        with np.errstate(all="ignore"):
            ejf = 2.0 * p0.e_j * array_cos_pi(fs)
            margin = p0.e_l + 0.5 * ejf
            stiffness = 2.0 * p0.e_l + ejf
            eta1 = 0.25 * (p0.e_c / (2.0 * stiffness)) * ejf
            eta2 = -eta1 * t * phase + 0.0
        usable = (margin >= 0.0) & (stiffness > 0)
        for f_s, ok, eta1_i, eta2_i in zip(f_s_values, usable.tolist(), eta1.tolist(), eta2.tolist()):
            if not math.isfinite(f_s):
                raise ParameterError(f"circuit.f_s must be finite, got {f_s!r}")
            if not ok:
                nan = math.nan
                rows.append(AmplificationRow(ratio, f_s, nan, nan, nan, nan, "unstable"))
                continue
            try:
                gain = math.exp(2.0 * eta2_i)
            except OverflowError:
                gain = math.inf
            if not (math.isfinite(eta2_i) and math.isfinite(g * gain)):
                raise ParameterError(
                    f"coupling gain exp(2 eta2) overflows float at ratio={ratio}, "
                    f"f_s={f_s} (eta2={eta2_i:.6g}); shorten the evolution "
                    f"time run.t (t={t} ns)"
                )
            rows.append(AmplificationRow(ratio, f_s, eta1_i, eta2_i, gain, g * gain, "ok"))
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
    # the scalar cos_pi, which runs in math rather than numpy, has the bits
    # of numpy's array form: also on 100k more points and every
    # half-integer in [-4, 4]
    assert np.array_equal(array_cos_pi(grid), [cos_pi(float(x)) for x in grid])
    points = np.concatenate([rng.uniform(-4.0, 4.0, 100_000), np.arange(-8, 9) / 2.0])
    assert np.array_equal(array_cos_pi(points), [cos_pi(x) for x in points.tolist()])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_flux_point_is_rejected_naming_f_s(bad):
    grid = [0.5, 0.7, bad, 0.9]
    with pytest.raises(ParameterError) as ref:
        loop_amplification_sweep(E_C, DEFAULT_RATIOS, 1.0, grid, E_L)
    with pytest.raises(ParameterError, match="^circuit.f_s must be finite") as got:
        amplification_sweep(E_C, DEFAULT_RATIOS, 1.0, grid, e_l=E_L)
    assert str(got.value) == str(ref.value)


def test_gain_overflow_message_matches_the_loop():
    with pytest.raises(ParameterError) as ref:
        loop_amplification_sweep(E_C, DEFAULT_RATIOS, 1e4, DEFAULT_GRID, E_L)
    with pytest.raises(ParameterError, match="overflows") as got:
        amplification_sweep(E_C, DEFAULT_RATIOS, 1e4, DEFAULT_GRID, e_l=E_L)
    assert str(got.value) == str(ref.value)


def _outcome(sweep, *args, **kwargs):
    try:
        return sweep(*args, **kwargs)
    except ParameterError as exc:
        return str(exc)


def test_rows_match_the_array_pass_on_random_grids():
    # both phase conventions, grids reaching the unstable side, and times
    # long enough that some grids end in the gain overflow error
    rng = np.random.default_rng(20261019)
    overflows = 0
    for _ in range(300):
        grid = rng.uniform(-3.0, 3.0, rng.integers(1, 60))
        grid[rng.random(grid.size) < 0.1] = 0.5
        ratios = tuple(rng.uniform(0.3, 3.0, rng.integers(1, 4)).tolist())
        t = float(rng.choice([rng.uniform(0.0, 2.0), rng.uniform(1e3, 1e4)]))
        two_pi = bool(rng.integers(2))
        got = _outcome(amplification_sweep, E_C, ratios, t, grid, e_l=E_L, two_pi=two_pi)
        want = _outcome(array_amplification_sweep, E_C, ratios, t, grid, E_L, None, two_pi)
        if isinstance(want, str):
            overflows += 1
            assert got == want
        else:
            assert_rows_identical(got, want)
    assert 0 < overflows < 300


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(lo=finite, hi=finite, n=st.integers(2, MAX_GRID_POINTS))
@example(lo=0.5, hi=1.0, n=101)
@example(lo=0.0, hi=15.0, n=151)
@example(lo=1.0, hi=0.5, n=101)
@example(lo=0.7, hi=0.7, n=5)
@example(lo=0.0, hi=-0.0, n=3)
@example(lo=-0.0, hi=0.0, n=3)
@example(lo=-0.0, hi=-0.0, n=2)
@example(lo=5e-324, hi=1e-323, n=7)
@example(lo=-1.7e308, hi=1.7e308, n=4)
@example(lo=-1.0, hi=2.0, n=MAX_GRID_POINTS)
def test_cli_grid_is_numpy_linspace(lo, hi, n):
    with np.errstate(all="ignore"):
        want = np.linspace(lo, hi, n)
    # bit patterns, stricter than reprs and faster on 2^18 points: a zero
    # must keep its sign
    got = np.array(linspace(lo, hi, n))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
