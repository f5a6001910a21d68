"""Centered FFTs, the scaled FFT, and both gridding NUFFT types."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorfield import ValidationError, oracle, spectral
from phasorfield.spectral import (
    cfft_2d,
    cfft_n,
    cifft_2d,
    cifft_n,
    nufft1,
    nufft2,
    sfft_1d,
    sfft_2d,
    sfft_2d_centered,
)

from helpers import rel_linf


def _random_points(rng, n, dim):
    pts = rng.uniform(-np.pi, np.pi, size=(n, dim))
    pts[pts >= np.pi] -= 2 * np.pi
    return pts


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ---------------------------------------------------------------------------
# Centered transforms
# ---------------------------------------------------------------------------


class TestCenteredFfts:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 15])
    def test_roundtrip(self, rng, n):
        u = _complex(rng, (n, n))
        assert rel_linf(cifft_2d(cfft_2d(u)), u) < 1e-12
        assert rel_linf(cfft_n(cifft_n(u, (0,)), (0,)), u) < 1e-12

    def test_centered_delta_transforms_to_ones(self):
        for n in (4, 5, 9, 16):
            u = np.zeros(n, complex)
            u[n // 2] = 1.0
            assert rel_linf(cfft_n(u, (-1,)), np.ones(n)) < 1e-13

    def test_matches_shifted_numpy_fft(self, rng):
        u = _complex(rng, (6, 10))
        ref = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(u)))
        assert rel_linf(cfft_2d(u), ref) < 1e-12

    def test_convolution_identity(self, rng):
        # cifft(cfft(a) * cfft(b)) is the circular convolution of a and b
        # evaluated in the centered-index convention.
        n = 8
        a = _complex(rng, (n,))
        b = _complex(rng, (n,))
        fast = cifft_n(cfft_n(a, (-1,)) * cfft_n(b, (-1,)), (-1,))
        # position k holds the centered lag (k - n//2); sum runs over the
        # centered positions of a and b
        direct = np.array([
            sum(a[j] * b[(n // 2 + ((k - n // 2) - (j - n // 2))) % n]
                for j in range(n))
            for k in range(n)
        ])
        assert rel_linf(fast, direct) < 1e-12


def _window(data, p):
    """``None`` or a run of centered indices of a length-``p`` axis."""
    if data.draw(st.booleans()):
        return None
    lo = data.draw(st.integers(-(p // 2), p - p // 2 - 1))
    return np.arange(lo, data.draw(st.integers(lo + 1, p - p // 2)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_windowed_inverse_is_a_bitwise_slice_of_the_full_one(data):
    batch = data.draw(st.lists(st.integers(1, 3), max_size=2))
    py, px = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    u = _complex(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                 (*batch, py, px))
    rows, cols = _window(data, py), _window(data, px)
    full = cifft_2d(u)
    if rows is not None:
        full = full[..., rows + py // 2, :]
    if cols is not None:
        full = full[..., cols + px // 2]
    out = cifft_2d(u, rows, cols)
    assert out.shape == full.shape and out.tobytes() == full.tobytes()


@pytest.mark.parametrize("p", [1, 2, 7, 8])
def test_windowed_inverse_at_the_edges_of_the_index_set(rng, p):
    u = _complex(rng, (2, p, p + 3))
    full = cifft_2d(u)
    first, last = np.array([-(p // 2)]), np.array([p - p // 2 - 1])
    for rows, cols in [(first, None), (last, None), (None, np.array([-((p + 3) // 2)])),
                       (None, np.array([p + 3 - (p + 3) // 2 - 1])), (first, last)]:
        want = full if rows is None else full[..., rows + p // 2, :]
        want = want if cols is None else want[..., cols + (p + 3) // 2]
        assert cifft_2d(u, rows, cols).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Scaled FFT
# ---------------------------------------------------------------------------


class TestScaledFft:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16, 31, 32])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 1.0, -0.7, 1.3])
    def test_matches_quadratic_time_evaluation(self, rng, m, alpha):
        u = _complex(rng, (m,))
        for offset in {0, m // 2, m - 1}:
            fast = sfft_1d(u, alpha, offset)
            slow = oracle.scaled_dft(u, alpha, offset)
            assert rel_linf(fast, slow) < 1e-9

    def test_alpha_one_is_plain_fft(self, rng):
        u = _complex(rng, (33,))
        assert rel_linf(sfft_1d(u, 1.0), np.fft.fft(u)) < 1e-10

    def test_batched_axis_handling(self, rng):
        u = _complex(rng, (3, 7))
        row_by_row = np.stack([sfft_1d(r, 0.6, 2) for r in u])
        assert rel_linf(sfft_1d(u, 0.6, 2, axis=-1), row_by_row) < 1e-12
        assert rel_linf(sfft_1d(u.T, 0.6, 2, axis=0).T, row_by_row) < 1e-12

    def test_2d_separates_into_1d_passes(self, rng):
        u = _complex(rng, (6, 9))
        fast = sfft_2d(u, 0.45, 0.8, offsets=(3, 4))
        slow = sfft_1d(sfft_1d(u, 0.45, 4, axis=-1), 0.8, 3, axis=-2)
        assert rel_linf(fast, slow) < 1e-11

    def test_2d_default_beta_equals_alpha(self, rng):
        u = _complex(rng, (5, 5))
        assert rel_linf(sfft_2d(u, 0.7), sfft_2d(u, 0.7, 0.7)) < 1e-13

    def test_centered_variant_degenerates_to_cfft(self, rng):
        u = _complex(rng, (8, 8))
        assert rel_linf(sfft_2d_centered(u, 1.0, 1.0), cfft_2d(u)) < 1e-10

    def test_linearity(self, rng):
        a = _complex(rng, (12,))
        b = _complex(rng, (12,))
        lhs = sfft_1d(2.0 * a - 1j * b, 0.3, 5)
        rhs = 2.0 * sfft_1d(a, 0.3, 5) - 1j * sfft_1d(b, 0.3, 5)
        assert rel_linf(lhs, rhs) < 1e-11

    @pytest.mark.parametrize("alpha", [0.0, np.inf, np.nan])
    def test_rejects_degenerate_scale(self, alpha):
        with pytest.raises(ValidationError):
            sfft_1d(np.ones(4, complex), alpha)

    def test_rejects_bad_offset(self):
        with pytest.raises(ValidationError):
            sfft_1d(np.ones(4, complex), 0.5, offset=-1)


# ---------------------------------------------------------------------------
# NUFFTs
# ---------------------------------------------------------------------------


MODES_BY_DIM = {1: (24,), 2: (12, 10), 3: (6, 5, 4)}


class TestNufft:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    def test_type1_matches_direct_sum(self, rng, dim, eps):
        modes = MODES_BY_DIM[dim]
        pts = _random_points(rng, 50, dim)
        vals = _complex(rng, (50,))
        fast = nufft1(pts, vals, modes, eps)
        slow = oracle.nudft1(pts, vals, modes)
        assert fast.shape == modes
        assert rel_linf(fast, slow) < eps

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    def test_type2_matches_direct_sum(self, rng, dim, eps):
        modes = MODES_BY_DIM[dim]
        pts = _random_points(rng, 50, dim)
        coeff = _complex(rng, modes)
        fast = nufft2(coeff, pts, eps)
        slow = oracle.nudft2(coeff, pts)
        assert fast.shape == (50,)
        assert rel_linf(fast, slow) < eps

    def test_small_mode_counts(self, rng):
        # tiny grids exercise the oversampling floor
        for modes in [(1,), (2,), (3,), (2, 2), (1, 3)]:
            pts = _random_points(rng, 11, len(modes))
            vals = _complex(rng, (11,))
            err = rel_linf(nufft1(pts, vals, modes, 1e-10),
                           oracle.nudft1(pts, vals, modes))
            assert err < 1e-10

    def test_on_grid_points_are_exact(self, rng):
        # points on the sample lattice reduce to a plain DFT; even a loose
        # accuracy target must then be exact to roundoff
        m = 8
        j = rng.integers(0, m, size=20)
        pts = (-np.pi + 2 * np.pi * j / m).reshape(-1, 1)
        vals = _complex(rng, (20,))
        err = rel_linf(nufft1(pts, vals, (m,), 1e-4),
                       oracle.nudft1(pts, vals, (m,)))
        assert err < 1e-13

    def test_type2_is_adjoint_of_type1(self, rng):
        modes = (9, 7)
        pts = _random_points(rng, 31, 2)
        vals = _complex(rng, (31,))
        coeff = _complex(rng, modes)
        lhs = np.vdot(nufft1(pts, vals, modes, 1e-12), coeff)
        rhs = np.vdot(vals, nufft2(coeff, pts, 1e-12))
        assert abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_accuracy_improves_with_target(self, rng):
        pts = _random_points(rng, 200, 1)
        vals = _complex(rng, (200,))
        slow = oracle.nudft1(pts, vals, (32,))
        errs = [rel_linf(nufft1(pts, vals, (32,), e), slow)
                for e in (1e-3, 1e-12)]
        assert errs[1] < errs[0]

    def test_rejects_empty_point_list(self):
        with pytest.raises(ValidationError):
            nufft1(np.zeros((0, 1)), np.zeros(0, complex), (8,), 1e-6)
        with pytest.raises(ValidationError):
            nufft2(np.ones(8, complex), np.zeros((0, 1)), 1e-6)

    @pytest.mark.parametrize("eps", [0.0, 0.2, 1e-15, -1e-6])
    def test_rejects_bad_accuracy_target(self, rng, eps):
        pts = _random_points(rng, 4, 1)
        with pytest.raises(ValidationError):
            nufft1(pts, np.ones(4, complex), (8,), eps)
        with pytest.raises(ValidationError):
            nufft2(np.ones(8, complex), pts, eps)

    def test_rejects_out_of_range_points(self):
        with pytest.raises(ValidationError):
            nufft1(np.array([[3.15]]), np.ones(1, complex), (8,), 1e-6)
        with pytest.raises(ValidationError):
            nufft2(np.ones(8, complex), np.array([[-4.0]]), 1e-6)

    def test_rejects_shape_mismatches(self):
        with pytest.raises(ValidationError):
            nufft1(np.zeros((3, 2)), np.ones(3, complex), (8,), 1e-6)
        with pytest.raises(ValidationError):
            nufft1(np.zeros((3, 1)), np.ones(4, complex), (8,), 1e-6)
        with pytest.raises(ValidationError):
            nufft2(np.ones((8, 8), complex), np.zeros((3, 1)), 1e-6)


def _loop_nufft1(pts, vals, modes, eps):
    """Per-point gridding loops: the reference for the sparse spread operator."""
    plan = spectral._nufft_plan(modes, eps)
    idx, win = plan.windows(pts)
    fine = np.zeros(plan.mrs, dtype=complex)
    for l in range(pts.shape[0]):
        fine[np.ix_(*[i[l] for i in idx])] += vals[l] * reduce(np.multiply.outer,
                                                               [w[l] for w in win])
    gathered = np.fft.fftn(fine)[np.ix_(*plan.mode_slots())]
    return gathered / reduce(np.multiply.outer, plan.kers)


def _loop_nufft2(coeff, pts, eps):
    plan = spectral._nufft_plan(coeff.shape, eps)
    arr = np.zeros(plan.mrs, dtype=complex)
    arr[np.ix_(*plan.mode_slots())] = coeff / reduce(np.multiply.outer, plan.kers)
    fine = np.fft.ifftn(arr) * float(np.prod(plan.mrs))
    idx, win = plan.windows(pts)
    return np.array([np.sum(fine[np.ix_(*[i[l] for i in idx])]
                            * reduce(np.multiply.outer, [w[l] for w in win]))
                     for l in range(pts.shape[0])])


class TestBatchedNufft:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_per_point_gridding_loop(self, rng, dim):
        modes = MODES_BY_DIM[dim]
        pts = _random_points(rng, 40, dim)
        vals = _complex(rng, (40,))
        coeff = _complex(rng, modes)
        loop1 = _loop_nufft1(pts, vals, modes, 1e-8)
        assert rel_linf(nufft1(pts, vals, modes, 1e-8), loop1) < 1e-13
        assert rel_linf(nufft2(coeff, pts, 1e-8), _loop_nufft2(coeff, pts, 1e-8)) < 1e-13

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        # Fine grids of a few columns per chunk, so batches span several chunks.
        monkeypatch.setattr(spectral, "_FINE_CHUNK_BYTES", 3 * 16 * 24 * 24)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_type1_batch_equals_columns(self, rng, small_chunks, dim):
        modes = MODES_BY_DIM[dim]
        pts = _random_points(rng, 40, dim)
        vals = _complex(rng, (40, 7))
        batched = nufft1(pts, vals, modes, 1e-8)
        assert batched.shape == (7,) + modes
        for b in range(7):
            assert rel_linf(batched[b], nufft1(pts, vals[:, b], modes, 1e-8)) < 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_type2_batch_equals_columns(self, rng, small_chunks, dim):
        modes = MODES_BY_DIM[dim]
        pts = _random_points(rng, 40, dim)
        coeff = _complex(rng, (7,) + modes)
        batched = nufft2(coeff, pts, 1e-8, batch=True)
        assert batched.shape == (7, 40)
        for b in range(7):
            assert rel_linf(batched[b], nufft2(coeff[b], pts, 1e-8)) < 1e-13

    def test_3d_batch_matches_direct_sum_across_depth_wrap(self, rng):
        modes = (7, 6, 5)
        pts = _random_points(rng, 30, 3)
        pts[:10, 2] = rng.uniform(-0.05, 0.05, 10)
        pts[10:20, 2] = np.pi - rng.uniform(0.0, 0.05, 10)
        # Depth stencils of the first ten points run past the end of the
        # fine depth axis and wrap to its start.
        z_idx = spectral._nufft_plan(modes, 1e-10).windows(pts)[0][0]
        assert (np.diff(z_idx[:10], axis=1) != 1).any(axis=1).all()
        vals = _complex(rng, (30, 4))
        coeff = _complex(rng, (4,) + modes)
        fast1 = nufft1(pts, vals, modes, 1e-10)
        fast2 = nufft2(coeff, pts, 1e-10, batch=True)
        for b in range(4):
            assert rel_linf(fast1[b], oracle.nudft1(pts, vals[:, b], modes)) < 1e-10
            assert rel_linf(fast2[b], oracle.nudft2(coeff[b], pts)) < 1e-10

    @pytest.mark.parametrize("modes", [(9, 7), (5, 6, 4)])
    def test_batched_adjointness(self, rng, small_chunks, modes):
        pts = _random_points(rng, 31, len(modes))
        vals = _complex(rng, (31, 5))
        coeff = _complex(rng, (5,) + modes)
        lhs = np.vdot(nufft1(pts, vals, modes, 1e-12), coeff)
        rhs = np.vdot(vals.T, nufft2(coeff, pts, 1e-12, batch=True))
        assert abs(lhs - rhs) / abs(lhs) < 1e-12

    @pytest.mark.parametrize("modes", [(16,), (12, 10), (6, 5, 4)])
    def test_spread_operator_structure(self, rng, modes):
        # CSR over the lateral axes only: a 3-D operator keeps depth as a
        # dense factor instead of (2w+1)^3 taps per row.
        plan = spectral._nufft_plan(modes, 1e-6)
        spread = spectral._Spread(plan, _random_points(rng, 13, len(modes)))
        lateral = min(len(modes), 2)
        s = spread.matrix
        assert s.format == "csr" and s.indices.dtype == np.int32
        assert s.shape == (13, int(np.prod(plan.mrs[-lateral:])))
        assert (np.diff(s.indptr) == (2 * plan.w + 1) ** lateral).all()
        if len(modes) == 3:
            assert spread.depth.shape == (13, modes[0])
        else:
            assert spread.depth is None

    def test_rejects_batch_shape_mismatches(self):
        pts = np.zeros((3, 1))
        with pytest.raises(ValidationError):
            nufft1(pts, np.ones((4, 2), complex), (8,), 1e-6)
        with pytest.raises(ValidationError):
            nufft1(pts, np.ones((3, 2, 2), complex), (8,), 1e-6)
        with pytest.raises(ValidationError):
            nufft2(np.ones(8, complex), pts, 1e-6, batch=True)
        with pytest.raises(ValidationError):
            nufft2(np.ones((2, 8, 8), complex), pts, 1e-6, batch=True)


class TestPlanCaches:
    def test_sfft_plans_stay_within_bound(self, rng):
        u = _complex(rng, (8,))
        for alpha in np.linspace(0.1, 0.9, 2 * spectral._SFFT_CACHE_SIZE):
            sfft_1d(u, float(alpha))
        assert spectral._sfft_plan.cache_info().currsize <= spectral._SFFT_CACHE_SIZE
        hits = spectral._sfft_plan.cache_info().hits
        sfft_1d(u, 0.9)
        assert spectral._sfft_plan.cache_info().hits == hits + 1

    def test_nufft_plans_stay_within_bound(self, rng):
        pts = _random_points(rng, 4, 1)
        for eps in np.geomspace(1e-12, 1e-2, 2 * spectral._NUFFT_CACHE_SIZE):
            nufft1(pts, np.ones(4, complex), (8,), float(eps))
        assert spectral._nufft_plan.cache_info().currsize <= spectral._NUFFT_CACHE_SIZE
        hits = spectral._nufft_plan.cache_info().hits
        nufft2(np.ones(8, complex), pts, 1e-2)
        assert spectral._nufft_plan.cache_info().hits == hits + 1
