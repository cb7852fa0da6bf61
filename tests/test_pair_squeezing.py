"""``pair_squeezing`` against the dense 2N x 2N covariance chain.

It reads only the few offsets its pairs need, through one
``offset_amplitudes`` call with their tuple, and the weights of that
call are checked to give a unitary propagator once, where they are
built.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pstnet.propagation as propagation
from pstnet import (
    NetworkSpec,
    TmsvParams,
    custom_profile,
    evolve_covariance,
    pair_squeezing,
    propagator,
    squeezing_factor,
    symplectic_from_propagator,
    tmsv_covariance,
    uniform_profile,
)
from pstnet.propagation import z_grid


def dense_columns(spec, params, pairs, zs):
    """S_Q, S_P of each pair from the full covariance, one z at a time."""
    initial = tmsv_covariance(params, spec.n_modes)
    rows = []
    for z in zs:
        evo = symplectic_from_propagator(propagator(spec, float(z)))
        state = evolve_covariance(initial, evo)
        rows.append([squeezing_factor(state, j, k, q) for j, k in pairs for q in "QP"])
    return np.array(rows).T


def exact_dense_columns(spec, params, pairs, zs):
    """S_Q, S_P of each pair from M V0 M^T, each 2N x 2N contraction one fsum.

    With x, y the Q (or P) rows of modes j, k the combined variance is
    (v_xx + v_yy -+ 2 v_xy) / 2, v_xy = sum_cd M_xc V0_cd M_yd: the dense
    chain's quantity with every sum correctly rounded.  In double precision
    the chain's 2N-term sums are off by up to about 30 eps cosh(2w) at
    N = 64, and its per-step check refuses N = 64 at w = 4.
    """
    v0 = tmsv_covariance(params, spec.n_modes).matrix
    rows = []
    for z in zs:
        m = symplectic_from_propagator(propagator(spec, float(z))).matrix
        row = []
        for j, k in pairs:
            for x, y, sign in ((2 * j, 2 * k, -1.0), (2 * j + 1, 2 * k + 1, 1.0)):
                terms = [
                    (f * np.outer(m[a], m[b]) * v0).ravel()
                    for a, b, f in ((x, x, 1.0), (y, y, 1.0), (x, y, 2.0 * sign))
                ]
                row.append(math.fsum(np.concatenate([*terms, [-1.0]])) / 2.0)
        rows.append(row)
    return np.array(rows).T


def pair_input(params):
    """The squeezed pair's checked 4 x 4 covariance, as ``tmsv`` builds it."""
    return tmsv_covariance(TmsvParams(params.w, params.theta, (0, 1)), 2)


def block_columns(spec, params, pairs, zs):
    return np.array(pair_squeezing(spec, zs, pair_input(params), params.mode_pair, pairs))


# The README grid (N = 8) and the benchmark grids (N = 64 and 8), with
# the CLI's default track: the antipodal pair.
CLI_GRIDS = [
    (8, 3, (0, 1)),
    (64, 31, (0, 1)),
    (64, 31, (6, 7)),
    (64, 31, (63, 0)),
    (8, 3, (7, 0)),
]


@pytest.mark.parametrize("n,reach,pair", CLI_GRIDS)
def test_matches_dense_chain_on_cli_grids(n, reach, pair):
    spec = NetworkSpec(n, uniform_profile(1.0, reach))
    params = TmsvParams(0.881374, 0.0, pair)
    track = tuple((i + n // 2) % n for i in pair)
    zs = z_grid(math.pi, 0.01, 0.0)
    want = dense_columns(spec, params, (pair, track), zs)
    got = block_columns(spec, params, (pair, track), zs)
    assert got.shape == want.shape == (4, 315)
    assert np.abs(got - want).max() <= 1e-12


@st.composite
def rings(draw):
    n = draw(st.integers(2, 16))
    couplings = draw(
        st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=n // 2)
    )
    modes = st.integers(0, n - 1)
    pair = draw(st.lists(modes, min_size=2, max_size=2, unique=True))
    track = draw(st.lists(modes, min_size=2, max_size=2, unique=True))
    w = draw(st.floats(0.0, 1.2))
    theta = draw(st.floats(-math.pi, math.pi))
    zs = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
    return n, couplings, tuple(pair), tuple(track), w, theta, zs


@settings(max_examples=60, deadline=None)
@given(rings())
@example((2, [1.0], (0, 1), (1, 0), 0.7, 0.3, [0.0, 0.4, math.pi / 2]))
@example((7, [0.5, -1.0, 0.25], (2, 5), (6, 1), 0.9, -1.1, [0.3, 2.0]))
@example((12, [1.0, 0.5], (3, 4), (4, 9), 0.5, 2.0, [0.0, 1.7]))
def test_matches_dense_chain_on_random_rings(ring):
    n, couplings, pair, track, w, theta, zs = ring
    spec = NetworkSpec(n, custom_profile(couplings))
    params = TmsvParams(w, theta, pair)
    want = dense_columns(spec, params, (pair, track), zs)
    got = block_columns(spec, params, (pair, track), zs)
    assert np.abs(got - want).max() <= 1e-12


# (N, couplings, input pair, tracked pair); N = 7 and 64 track a pair
# that is not the antipode of the input
STRONG_RINGS = [
    (2, [1.0], (0, 1), (1, 0)),
    (7, [0.5, -1.0, 0.25], (2, 3), (0, 5)),
    (64, [1.0] * 31, (6, 7), (20, 45)),
]


@pytest.mark.parametrize("n,couplings,pair,track", STRONG_RINGS)
@pytest.mark.parametrize("theta", [0.0, 0.7])
@pytest.mark.parametrize("w", [2.0, 3.0, 4.0])
def test_matches_dense_chain_at_strong_squeezing(n, couplings, pair, track, theta, w):
    spec = NetworkSpec(n, custom_profile(couplings))
    params = TmsvParams(w, theta, pair)
    zs = [0.0, 0.4, 1.3, math.pi / 2, 2.9]
    want = exact_dense_columns(spec, params, (pair, track), zs)
    got = block_columns(spec, params, (pair, track), zs)
    assert got.shape == want.shape == (4, 5)
    assert np.abs(got - want).max() <= 1e-15 * math.cosh(2.0 * w)


@pytest.mark.parametrize("n", [4, 8, 12, 64, 1024])
@pytest.mark.parametrize("w", [0.3, 0.881374])
def test_antipodal_pair_carries_the_input_squeezing_at_half_pi(n, w):
    # the collapse profile with C = 1 gives U(pi/2) = -shift(N/2) for N = 4n
    spec = NetworkSpec(n, uniform_profile(1.0, n // 2 - 1))
    pair = (1, 2)
    track = tuple((i + n // 2) % n for i in pair)
    columns = block_columns(spec, TmsvParams(w, 0.0, pair), (pair, track), [math.pi / 2])
    floor = (math.exp(-2.0 * w) - 1.0) / 2.0
    assert columns[:, 0] == pytest.approx([0.0, 0.0, floor, floor], abs=1e-12)


@pytest.mark.parametrize("column", [0, -1], ids=["offset-0", "offset-7"])
@pytest.mark.parametrize(
    "shift,defect",
    [(2e-10, "2.00e-10"), (np.nan, "nan"), (5e-11, None)],
    ids=["off", "nan", "within"],
)
def test_weights_off_the_identity_are_rejected_as_non_unitary(monkeypatch, column, shift, defect):
    # U(0) = I: the offset-0 column of the weights sums to 1 and every
    # other column to 0, checked within 1e-10 once, where they are built
    build = propagation._group_weights

    def shifted(spectrum, offsets):
        mu, weights = build(spectrum, offsets)
        weights[0, column] += shift
        return mu, weights

    monkeypatch.setattr(propagation, "_group_weights", shifted)
    spec = NetworkSpec(8, uniform_profile(1.0, 3))
    v = pair_input(TmsvParams(0.5, 0.0, (0, 1)))
    # the offsets (0, 1, 3, 4, 5, 7)
    args = (spec, [0.0, 0.5, 1.0], v, (0, 1), [(0, 1), (4, 5)])
    if defect is None:
        assert np.isfinite(pair_squeezing(*args)).all()
        return
    with pytest.raises(ValueError, match=rf"^propagator is not unitary \(defect {defect}\)$"):
        pair_squeezing(*args)


@pytest.mark.parametrize(
    "v,mode_pair,message",
    [
        (tmsv_covariance(TmsvParams(0.5, 0.0, (0, 1)), 4), (0, 1), "squeezed pair's, 4 x 4"),
        (tmsv_covariance(TmsvParams(0.5, 0.0, (0, 1)), 2), (2, 2), "two distinct modes"),
        (tmsv_covariance(TmsvParams(0.5, 0.0, (0, 1)), 2), (2, 8), "out of range"),
    ],
)
def test_bad_inputs_are_rejected(v, mode_pair, message):
    spec = NetworkSpec(8, uniform_profile(1.0, 3))
    with pytest.raises(ValueError, match=message):
        pair_squeezing(spec, [0.5], v, mode_pair, [(4, 5)])


@pytest.mark.parametrize(
    "track,message",
    [((3, 3), "two distinct modes"), ((3, 8), "out of range"), ((-1, 2), "out of range")],
)
def test_bad_pairs_are_rejected(track, message):
    spec = NetworkSpec(8, uniform_profile(1.0, 3))
    with pytest.raises(ValueError, match=message):
        pair_squeezing(spec, [0.5], pair_input(TmsvParams(0.5, 0.0, (0, 1))), (0, 1), [track])


def test_no_pairs_give_no_columns():
    spec = NetworkSpec(8, uniform_profile(1.0, 3))
    assert pair_squeezing(spec, [0.5], pair_input(TmsvParams(0.5, 0.0, (0, 1))), (0, 1), []) == []
