import math
from dataclasses import replace

import numpy as np
import pytest

from dbmc import (
    DisturbanceSpec,
    DomainError,
    SpecError,
    build_model,
    load_graph,
)

from helpers import build_model_per_kind, out_edges, random_weighted_graph

HORIZON = 5.0
LINE4 = "nodes 4\nsources 1\n4 3 1.0\n3 2 1.0\n2 1 1.0\n"


def line4():
    return load_graph(LINE4)


def sample_times(knot_spacing: float) -> list[float]:
    """0, every knot time in [0, HORIZON], HORIZON and 1000 random times."""
    knots = [k * knot_spacing for k in range(int(math.ceil(HORIZON / knot_spacing)) + 1)]
    random = np.random.default_rng(5).uniform(0.0, HORIZON, 1000).tolist()
    return [0.0] + [t for t in knots if t <= HORIZON] + [HORIZON] + random


def test_zero_model():
    g = line4()
    m = build_model(DisturbanceSpec(kind="zero"), g, 0, HORIZON)
    assert m.u_minus == 0.0 and m.u_plus == 0.0
    assert np.all(m.sample_all(1.7) == 0.0)
    assert m.sample_all(0.0)[out_edges(g)[2][1][1]] == 0.0


def test_sinusoid_bounds_forty_percent():
    g = line4()
    m = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.4), g, 3, HORIZON)
    assert m.u_minus == pytest.approx(0.4)
    assert m.u_plus == pytest.approx(0.4)
    _, k = out_edges(g)[3][2]
    assert (m.edge_lower[k], m.edge_upper[k]) == (pytest.approx(0.4), pytest.approx(0.4))


def test_sinusoid_bounds_three_percent():
    g = line4()
    m = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.03), g, 3, HORIZON)
    assert m.u_minus == pytest.approx(0.03)
    assert m.u_plus == pytest.approx(0.03)


def test_sinusoid_sample_quarter_period():
    g = line4()
    spec = DisturbanceSpec(kind="sinusoid", amplitude=0.4, omega=2 * math.pi, phase=0.0)
    m = build_model(spec, g, 0, HORIZON)
    assert m.sample_all(0.25)[out_edges(g)[2][1][1]] == pytest.approx(
        0.4 * math.sin(math.pi / 2)
    )


def test_piecewise_sample_at_knot_equals_stored_value():
    g = line4()
    spec = DisturbanceSpec(kind="piecewise", amplitude=0.3, knot_spacing=0.25)
    m = build_model(spec, g, 11, HORIZON)
    for k in (0, 3, 7):
        t = k * m.knot_spacing
        got = m.sample_all(t)
        assert got == pytest.approx(m.rows[k], abs=1e-12)


def test_piecewise_envelope_is_exact_knot_extremes():
    g = line4()
    spec = DisturbanceSpec(kind="piecewise", amplitude=0.3)
    m = build_model(spec, g, 5, HORIZON)
    knots = np.array(m.rows)
    assert np.allclose(m.edge_lower, np.maximum(0.0, -knots.min(axis=0)))
    assert np.allclose(m.edge_upper, np.maximum(0.0, knots.max(axis=0)))


@pytest.mark.parametrize(
    "spec",
    [
        DisturbanceSpec(kind="sinusoid", amplitude=0.4),
        DisturbanceSpec(kind="piecewise", amplitude=0.4),
        DisturbanceSpec(kind="proportional", alpha_lower=0.1, alpha_upper=0.4,
                        carrier="sinusoid"),
        DisturbanceSpec(kind="proportional", alpha_lower=0.0, alpha_upper=0.3,
                        carrier="piecewise"),
    ],
    ids=["sinusoid", "piecewise", "prop-sin", "prop-pw"],
)
def test_envelope_property_ten_thousand_samples(spec):
    g = random_weighted_graph(123, max_nodes=8)
    m = build_model(spec, g, 42, HORIZON)
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.0, HORIZON, 10_000)
    for t in ts:
        u = m.sample_all(float(t))
        assert np.all(u >= -m.edge_lower - 1e-12)
        assert np.all(u <= m.edge_upper + 1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        DisturbanceSpec(kind="sinusoid", amplitude=0.4),
        DisturbanceSpec(kind="piecewise", amplitude=0.4, knot_spacing=0.05),
        DisturbanceSpec(kind="proportional", alpha_lower=0.2, alpha_upper=0.4,
                        carrier="sinusoid"),
    ],
    ids=["sinusoid", "piecewise", "prop-sin"],
)
def test_continuity_slope_proxy(spec):
    # Lipschitz constant of the spec: largest fraction times the largest
    # weight times the carrier's slope (omega, or 2 / knot spacing).
    g = line4()
    m = build_model(spec, g, 9, HORIZON)
    fraction = max(spec.amplitude, spec.alpha_lower, spec.alpha_upper)
    carrier = spec.kind if spec.kind != "proportional" else spec.carrier
    base_slope = spec.omega if carrier == "sinusoid" else 2.0 / spec.knot_spacing
    slope_limit = fraction * max(w for _, _, w in g.edges) * base_slope
    rng = np.random.default_rng(1)
    delta = 1e-4
    for t in rng.uniform(0.0, HORIZON - delta, 500):
        step = np.abs(m.sample_all(float(t) + delta) - m.sample_all(float(t)))
        assert np.all(step <= slope_limit * delta * (1 + 1e-9) + 1e-15)


@pytest.mark.parametrize(
    "spec",
    [
        DisturbanceSpec(kind="sinusoid", amplitude=0.03),
        DisturbanceSpec(kind="sinusoid", amplitude=0.4),
        DisturbanceSpec(kind="proportional", alpha_lower=0.1, alpha_upper=0.4,
                        carrier="sinusoid"),
    ],
    ids=["sinusoid-3pct", "sinusoid-40pct", "prop-sin"],
)
def test_quadrature_sampler_matches_phase_shifted_sine(spec):
    # Reference s*sin(omega*t + phase), with s = amplitude*w for the sinusoid
    # kind and s = 1 for the proportional carrier.  Rounding omega*t + phase
    # (up to about 38 here) alone costs the reference ~4e-15 relative.
    # The phases are the model's first draw from its seed.
    g = random_weighted_graph(123, max_nodes=8)
    m = build_model(spec, g, 42, HORIZON)
    w = np.array([wt for _, _, wt in g.edges])
    phases = np.random.default_rng(42).uniform(0.0, 2 * math.pi, len(w))
    tol = 1e-14 * np.maximum(m.edge_lower, m.edge_upper)
    for t in np.random.default_rng(3).uniform(0.0, HORIZON, 10_000):
        ref = np.sin(spec.omega * t + phases)
        if spec.kind == "sinusoid":
            ref = spec.amplitude * w * ref
        else:
            ref = w * np.where(ref >= 0.0, spec.alpha_upper, spec.alpha_lower) * ref
        assert np.all(np.abs(m.sample_all(float(t)) - ref) <= tol)


@pytest.mark.parametrize("carrier", ["sinusoid", "piecewise"])
@pytest.mark.parametrize("lo, hi", [(0.0, 0.4), (0.1, 0.3)])
def test_sign_step_matches_np_where_bit_for_bit(carrier, lo, hi):
    """A proportional sample takes each edge's fraction from a two-entry
    table; it must have the bits of np.where(c >= 0.0, hi, lo) * c on the
    carrier c, signed zeros included."""
    g = random_weighted_graph(12, max_nodes=10)
    spec = DisturbanceSpec(kind="proportional", alpha_lower=lo, alpha_upper=hi,
                           carrier=carrier, knot_spacing=0.25)
    m = build_model(spec, g, 3, HORIZON)
    table = np.array(m.rows)
    table[:, ::3] = 0.0
    table[:, 1::3] = -0.0
    m = replace(m, rows=tuple(table))
    carrier_only = replace(m, proportional_fractions=(1.0, 1.0))
    signs = set()
    for t in sample_times(0.25):
        c = carrier_only.sample_all(t)
        want = np.where(c >= 0.0, hi, lo) * c
        assert np.array_equal(m.sample_all(t).view(np.uint64), want.view(np.uint64))
        signs.update(np.signbit(c[c == 0.0]).tolist())
    assert signs == {False, True}  # both signed zeros reached the sign step


def test_identical_seeds_give_bit_identical_streams():
    g = random_weighted_graph(5)
    spec = DisturbanceSpec(kind="piecewise", amplitude=0.25)
    a = build_model(spec, g, 99, HORIZON)
    b = build_model(spec, g, 99, HORIZON)
    assert np.array_equal(np.array(a.rows), np.array(b.rows))
    ts = np.random.default_rng(0).uniform(0.0, HORIZON, 100)
    for t in ts:
        assert np.array_equal(a.sample_all(float(t)), b.sample_all(float(t)))


def test_different_seeds_differ():
    g = line4()
    spec = DisturbanceSpec(kind="sinusoid", amplitude=0.1)
    w = np.array([wt for _, _, wt in g.edges])
    a = build_model(spec, g, 1, HORIZON)
    b = build_model(spec, g, 2, HORIZON)
    for m, seed in ((a, 1), (b, 2)):
        phases = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, len(w))
        assert np.array_equal(m.rows[0], 0.1 * w * np.cos(phases))
        assert np.array_equal(m.rows[1], 0.1 * w * np.sin(phases))
    assert not np.array_equal(a.sample_all(0.3), b.sample_all(0.3))


def test_amplitude_at_or_above_one_rejected():
    g = line4()
    with pytest.raises(SpecError):
        build_model(DisturbanceSpec(kind="sinusoid", amplitude=1.0), g, 0, HORIZON)
    with pytest.raises(SpecError):
        build_model(
            DisturbanceSpec(kind="proportional", alpha_lower=1.0, alpha_upper=0.1),
            g, 0, HORIZON,
        )


def test_negative_seed_rejected():
    with pytest.raises(SpecError, match="disturbance seed must be non-negative, got -1"):
        build_model(DisturbanceSpec(kind="zero"), line4(), -1, HORIZON)


def test_unknown_kind_and_carrier_rejected():
    g = line4()
    with pytest.raises(SpecError):
        build_model(DisturbanceSpec(kind="brownian"), g, 0, HORIZON)
    with pytest.raises(SpecError):
        build_model(
            DisturbanceSpec(kind="proportional", carrier="square"), g, 0, HORIZON
        )


def test_sample_outside_horizon_rejected():
    g = line4()
    m = build_model(DisturbanceSpec(kind="zero"), g, 0, HORIZON)
    with pytest.raises(DomainError):
        m.sample_all(HORIZON + 0.1)
    with pytest.raises(DomainError):
        m.sample_all(-0.1)


def test_uniform_override_only_upward():
    g = line4()
    spec_up = DisturbanceSpec(kind="sinusoid", amplitude=0.1, uniform_upper=0.5,
                              uniform_lower=0.5)
    m = build_model(spec_up, g, 0, HORIZON)
    assert m.u_plus == 0.5 and m.u_minus == 0.5
    spec_down = DisturbanceSpec(kind="sinusoid", amplitude=0.1, uniform_upper=0.05)
    with pytest.raises(SpecError):
        build_model(spec_down, g, 0, HORIZON)


def test_proportional_with_zero_lower_is_nonnegative():
    g = random_weighted_graph(2)
    spec = DisturbanceSpec(kind="proportional", alpha_lower=0.0, alpha_upper=0.4,
                           carrier="sinusoid")
    m = build_model(spec, g, 8, HORIZON)
    assert m.u_minus == 0.0
    for t in np.linspace(0.0, HORIZON, 400):
        assert np.all(m.sample_all(float(t)) >= 0.0)


def test_proportional_fractions_recorded():
    g = line4()
    m = build_model(DisturbanceSpec(kind="sinusoid", amplitude=0.4), g, 0, HORIZON)
    assert m.proportional_fractions == (0.4, 0.4)
    m = build_model(
        DisturbanceSpec(kind="proportional", alpha_lower=0.1, alpha_upper=0.2),
        g, 0, HORIZON,
    )
    assert m.proportional_fractions == (0.1, 0.2)


@pytest.mark.parametrize(
    "spec",
    [
        DisturbanceSpec(kind="zero"),
        DisturbanceSpec(kind="sinusoid", amplitude=0.03),
        DisturbanceSpec(kind="sinusoid", amplitude=0.4, omega=3.0, phase=0.7),
        DisturbanceSpec(kind="piecewise", amplitude=0.4),
        DisturbanceSpec(kind="piecewise", amplitude=0.2, knot_spacing=0.3),
    ],
    ids=["zero", "sinusoid", "sinusoid-fixed-phase", "piecewise", "piecewise-coarse"],
)
def test_equal_fraction_kinds_match_per_kind_builder(spec):
    # The sinusoid and piecewise kinds keep the per-kind builder's
    # arithmetic: the carrier is scaled by amplitude*w, so samples and
    # envelopes are bitwise equal.
    g = random_weighted_graph(31, max_nodes=10)
    m = build_model(spec, g, 17, HORIZON)
    ref = build_model_per_kind(spec, g, 17, HORIZON)
    assert np.array_equal(m.edge_lower, ref.edge_lower)
    assert np.array_equal(m.edge_upper, ref.edge_upper)
    assert (m.u_minus, m.u_plus) == (ref.u_minus, ref.u_plus)
    # Bits, not values: the last-interval clamp at t = horizon and the zero
    # kind's +0.0 must match too.
    for t in sample_times(ref.knot_spacing):
        got, want = m.sample_all(t), ref.sample_all(t)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t


@pytest.mark.parametrize(
    "spec",
    [
        DisturbanceSpec(kind="proportional", alpha_lower=0.1, alpha_upper=0.4,
                        carrier="sinusoid"),
        DisturbanceSpec(kind="proportional", alpha_lower=0.0, alpha_upper=0.3,
                        carrier="piecewise"),
        DisturbanceSpec(kind="proportional", alpha_lower=0.25, alpha_upper=0.25,
                        carrier="sinusoid", phase=1.1),
    ],
    ids=["prop-sin", "prop-pw", "prop-sin-equal"],
)
def test_proportional_samples_match_per_kind_builder(spec):
    # alpha*(w*c) instead of (alpha*w)*c: only the last bits may move.
    g = random_weighted_graph(31, max_nodes=10)
    w = np.array([wt for _, _, wt in g.edges])
    m = build_model(spec, g, 17, HORIZON)
    ref = build_model_per_kind(spec, g, 17, HORIZON)
    for t in sample_times(ref.knot_spacing):
        diff = np.abs(m.sample_all(t) - ref.sample_all(t))
        assert np.all(diff <= 1e-15 * w), t


def test_proportional_piecewise_envelope_is_fraction_times_knot_extremes():
    # The carrier holds w-scaled knots; the envelope is each fraction times
    # their extremes, no wider than the fraction of the weight.
    g = random_weighted_graph(4)
    w = np.array([wt for _, _, wt in g.edges])
    spec = DisturbanceSpec(kind="proportional", alpha_lower=0.1, alpha_upper=0.3,
                           carrier="piecewise")
    m = build_model(spec, g, 6, HORIZON)
    knots = np.array(m.rows)
    assert np.array_equal(m.edge_lower, 0.1 * np.maximum(0.0, -knots.min(axis=0)))
    assert np.array_equal(m.edge_upper, 0.3 * np.maximum(0.0, knots.max(axis=0)))
    assert np.all(m.edge_lower <= 0.1 * w) and np.all(m.edge_upper <= 0.3 * w)
    assert m.u_plus == float(m.edge_upper.max())


@pytest.mark.parametrize("spacing", [1e-300, 1e-320])
def test_knot_table_numpy_refuses_is_a_spec_error(spacing):
    # 1e-300 gives 5e300 knots, past any numpy dimension; 1e-320 gives inf
    spec = DisturbanceSpec(kind="piecewise", amplitude=0.1, knot_spacing=spacing)
    with pytest.raises(SpecError, match=f"^knot_spacing = {spacing!r} needs"):
        build_model(spec, line4(), 0, HORIZON)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "kind, field",
    [
        ("sinusoid", "amplitude"),
        ("sinusoid", "omega"),
        ("sinusoid", "phase"),
        ("piecewise", "knot_spacing"),
        ("proportional", "alpha_lower"),
        ("proportional", "alpha_upper"),
        ("sinusoid", "uniform_lower"),
        ("piecewise", "uniform_upper"),
    ],
)
def test_non_finite_spec_values_rejected(kind, field, value):
    values = {"amplitude": 0.1, "alpha_upper": 0.1, field: value}
    with pytest.raises(SpecError, match=f"{field} must be finite"):
        build_model(DisturbanceSpec(kind=kind, **values), line4(), 0, HORIZON)


@pytest.mark.parametrize(
    "spec",
    [
        DisturbanceSpec(kind="zero"),
        DisturbanceSpec(kind="sinusoid", amplitude=0.3),
        DisturbanceSpec(kind="piecewise", amplitude=0.3),
        DisturbanceSpec(kind="proportional", alpha_lower=0.1, alpha_upper=0.4,
                        carrier="sinusoid"),
        DisturbanceSpec(kind="proportional", alpha_lower=0.0, alpha_upper=0.3,
                        carrier="piecewise"),
    ],
    ids=["zero", "sinusoid", "piecewise", "prop-sin", "prop-pw"],
)
@pytest.mark.parametrize("subset", [False, True], ids=["permutation", "subset"])
def test_take_reorders_samples_and_edges_together(spec, subset):
    g = random_weighted_graph(12, max_nodes=10)
    m = build_model(spec, g, 3, HORIZON)
    rng = np.random.default_rng(8)
    order = rng.permutation(len(g.edges))
    if subset:
        order = order[: len(order) // 2]
    taken = m.take(order)
    assert len(taken.edge_lower) == len(order)
    for t in rng.uniform(0.0, HORIZON, 1000):
        got, want = taken.sample_all(float(t)), m.sample_all(float(t))[order]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # Row r of the taken model is the edge g.edges[order[r]].
    kept = [g.edges[k][:2] for k in order]
    taken_u, u = taken.sample_all(1.3), m.sample_all(1.3)
    adj = out_edges(g)
    for r, (i, j) in enumerate(kept):
        _, k = adj[i][j]
        assert (taken.edge_lower[r], taken.edge_upper[r]) == (m.edge_lower[k], m.edge_upper[k])
        assert taken_u[r] == u[k]


@pytest.mark.parametrize(
    "spec, n_rows",
    [
        (DisturbanceSpec(kind="zero"), 2),
        (DisturbanceSpec(kind="sinusoid", amplitude=0.3), 2),
        (DisturbanceSpec(kind="piecewise", amplitude=0.3), 501),
        (DisturbanceSpec(kind="proportional", alpha_lower=0.0, alpha_upper=0.3,
                         carrier="piecewise", knot_spacing=0.3), 18),
    ],
    ids=["zero", "sinusoid", "piecewise", "prop-pw-coarse"],
)
def test_rows_are_views_of_one_time_major_block(spec, n_rows):
    # One row per basis vector, each over every edge, so a sample reads two
    # contiguous rows; take keeps that layout.
    g = random_weighted_graph(12, max_nodes=10)
    m = build_model(spec, g, 3, HORIZON)
    order = np.random.default_rng(8).permutation(len(g.edges))
    for model in (m, m.take(order)):
        block = model.rows[0].base
        assert block.flags.c_contiguous
        assert block.shape == (n_rows, len(g.edges))
        assert all(row.base is block for row in model.rows)
