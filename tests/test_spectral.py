"""Centered FFTs, the scaled FFT, and both gridding NUFFT types."""

import copy
import hashlib
import inspect
import time
import tracemalloc
import types
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len as scipy_next_fast_len
from scipy.sparse import csr_array

import phasorfield
from phasorfield import ValidationError, oracle, spectral
from phasorfield.spectral import (
    cfft_2d,
    cfft_n,
    cifft_2d,
    cifft_n,
    next_fast_len,
    nufft1,
    nufft2,
    sfft_1d,
    sfft_2d_centered,
)

from helpers import rel_linf


def _random_points(rng, n, dim):
    pts = rng.uniform(-np.pi, np.pi, size=(n, dim))
    pts[pts >= np.pi] -= 2 * np.pi
    return pts


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _fft_ordered(a):
    """``a``'s last two axes rolled from the centered layout into FFT order."""
    return np.fft.ifftshift(a, axes=(-2, -1))


def _nudft1(pts, vals, modes):
    """The direct type-1 sum's modes in FFT order."""
    return _fft_ordered(oracle.nudft1(pts, vals, modes))


def _nudft2(coeff, pts):
    """The direct type-2 sum of coefficients in FFT order."""
    return oracle.nudft2(np.fft.fftshift(coeff, axes=(-2, -1)), pts)


def test_package_exports_exactly_its_public_names():
    # The transforms are the API; their cached setups are internal.
    public = {name for name, value in vars(phasorfield).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(phasorfield.__all__) == sorted(public | {"__version__"})
    assert len(set(phasorfield.__all__)) == len(phasorfield.__all__)
    for gone in ("SfftPlan", "NufftPlan", "_nufft_plan", "_lateral"):
        assert not hasattr(phasorfield, gone) and not hasattr(spectral, gone)


class TestNextFastLen:
    def test_matches_scipy_up_to_20000(self):
        assert all(next_fast_len(t) == scipy_next_fast_len(t) for t in range(1, 20001))

    # Lattice reaches up to 2**30 pitches give padded targets up to 2**31 + 10;
    # the last three are primes near that ceiling.
    @pytest.mark.parametrize("target", [2**30, 2**31 + 11, 10**9 + 7,
                                        2147483629, 2147483647, 2147483693])
    def test_matches_scipy_at_large_targets_quickly(self, target):
        assert next_fast_len(target) == scipy_next_fast_len(target)
        # A search stepping through integers takes tens of milliseconds at these targets.
        seconds = []
        for _ in range(7):
            start = time.perf_counter()
            next_fast_len(target)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 1e-3

    def test_accepts_numpy_integers(self):
        assert next_fast_len(np.int64(13)) == 14

    @pytest.mark.parametrize("target", [0, -1])
    def test_target_below_one_is_refused(self, target):
        with pytest.raises(ValueError, match=">= 1"):
            next_fast_len(target)


# ---------------------------------------------------------------------------
# Centered transforms
# ---------------------------------------------------------------------------


class TestCenteredFfts:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 15])
    def test_roundtrip(self, rng, n):
        u = _complex(rng, (n, n))
        assert rel_linf(cifft_2d(cfft_2d(np.fft.ifftshift(u))), u) < 1e-12
        assert rel_linf(cfft_n(cifft_n(u, (0,)), (0,)), u) < 1e-12

    def test_centered_delta_transforms_to_ones(self):
        for n in (4, 5, 9, 16):
            u = np.zeros(n, complex)
            u[n // 2] = 1.0
            assert rel_linf(cfft_n(u, (-1,)), np.ones(n)) < 1e-13

    def test_is_the_centered_transform_in_fft_order(self, rng):
        # Samples at the wrap-around slots of their centered indices to modes
        # in FFT order: the centered transform, rolled both sides.
        u = _complex(rng, (6, 10))
        want = np.fft.ifftshift(cfft_n(u, (-2, -1)))
        assert cfft_2d(np.fft.ifftshift(u)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (7, 9), (8, 6), (3, 16, 15), (2, 3, 11, 12)])
    @pytest.mark.parametrize("real", [True, False])
    def test_in_place_passes_equal_fftn_bitwise(self, rng, shape, real):
        u = rng.standard_normal(shape).astype(complex) if real else _complex(rng, shape)
        ref = np.fft.fftn(u, axes=(-2, -1))
        got = cfft_2d(u)
        assert got is u
        assert got.tobytes() == ref.tobytes()

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
    full = cifft_n(u, axes=(-2, -1))
    if rows is not None:
        full = full[..., rows + py // 2, :]
    if cols is not None:
        full = full[..., cols + px // 2]
    out = cifft_2d(_fft_ordered(u), rows, cols)
    assert out.shape == full.shape and out.tobytes() == full.tobytes()


@pytest.mark.parametrize("p", [1, 2, 7, 8])
def test_windowed_inverse_at_the_edges_of_the_index_set(rng, p):
    u = _complex(rng, (2, p, p + 3))
    full = cifft_n(u, axes=(-2, -1))
    first, last = np.array([-(p // 2)]), np.array([p - p // 2 - 1])
    for rows, cols in [(first, None), (last, None), (None, np.array([-((p + 3) // 2)])),
                       (None, np.array([p + 3 - (p + 3) // 2 - 1])), (first, last)]:
        want = full if rows is None else full[..., rows + p // 2, :]
        want = want if cols is None else want[..., cols + (p + 3) // 2]
        assert cifft_2d(_fft_ordered(u), rows, cols).tobytes() == want.tobytes()


class TestCenteredFftArguments:
    @pytest.mark.parametrize("ndim", [0, 1])
    def test_an_input_of_fewer_than_two_axes_is_refused(self, ndim):
        u = np.ones((4,) * ndim, complex)
        for call in (cfft_2d, cifft_2d):
            with pytest.raises(ValidationError, match="at least two axes"):
                call(u)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (2, 0, 3)])
    def test_an_empty_transform_axis_is_refused(self, shape):
        for call in (cfft_2d, cifft_2d):
            with pytest.raises(ValidationError, match="^transform lengths must be >= 1$"):
                call(np.ones(shape, complex))

    @pytest.mark.parametrize("window", [[0.5], np.array([1.0, 2.0]), [[0, 1]],
                                        np.zeros((2, 2), int), np.int64(1), [True, False],
                                        ["1"], [[0], [1, 2]], []])
    def test_a_window_that_is_not_a_vector_of_integers_is_refused(self, window):
        u = np.ones((4, 4), complex)
        with pytest.raises(ValidationError, match="^rows must be a 1-D array of integers$"):
            cifft_2d(u, window)
        with pytest.raises(ValidationError, match="^cols must be a 1-D array of integers$"):
            cifft_2d(u, None, window)

    def test_a_refused_window_leaves_the_spectrum_untransformed(self, rng):
        u = _complex(rng, (3, 4))
        before = u.copy()
        with pytest.raises(ValidationError):
            cifft_2d(u, np.arange(2), [0.5])
        assert u.tobytes() == before.tobytes()

    def test_integer_windows_of_any_integer_type_are_read(self, rng):
        u = _complex(rng, (2, 5, 6))
        want = cifft_2d(u.copy(), np.array([-2, 0]), np.array([1, 2, -3]))
        for kind in (np.int8, np.uint16, np.int32):
            got = cifft_2d(u.copy(), np.array([-2 % 5, 0], kind), np.array([1, 2, 3], kind))
            assert got.tobytes() == want.tobytes()
        assert cifft_2d(u, [-2, 0], (1, 2, -3)).tobytes() == want.tobytes()


# Odd and even axes, and the 1 x 1 and 1 x 2 lattices where a half is empty.
LAYOUT_SHAPES = [(1, 1), (1, 2), (2, 1), (7, 9), (8, 6), (3, 5, 4)]
over_layouts = pytest.mark.parametrize("shape", LAYOUT_SHAPES,
                                       ids=lambda s: "x".join(map(str, s)))


class TestFftOrder:
    """Every spectrum a transform takes or gives is in FFT order, centered
    index ``k`` at slot ``k mod P``: each against a named reference."""

    def test_no_transform_takes_a_layout_argument(self):
        params = {f.__name__: list(inspect.signature(f).parameters)
                  for f in (cfft_2d, cifft_2d, sfft_2d_centered, nufft1, nufft2)}
        assert params == {"cfft_2d": ["u"], "cifft_2d": ["u", "rows", "cols"],
                          "sfft_2d_centered": ["u", "alpha", "beta", "shape"],
                          "nufft1": ["points", "values", "modes", "eps"],
                          "nufft2": ["coefficients", "points", "eps"]}

    @over_layouts
    def test_forward_is_fftn_in_place(self, rng, shape):
        u = _complex(rng, shape)
        want = np.fft.fftn(u, axes=(-2, -1))
        out = cfft_2d(u)
        assert out is u
        assert out.tobytes() == want.tobytes()

    @over_layouts
    def test_inverse_is_the_centered_inverses_window(self, rng, shape):
        spec = _complex(rng, shape)
        py, px = shape[-2:]
        full = cifft_n(np.fft.fftshift(spec, axes=(-2, -1)), (-2, -1))
        windows = [(None, None), (np.arange(-(py // 2), 1), None),
                   (None, np.array([px - px // 2 - 1])), (np.array([0]), np.arange(-(px // 2), 1))]
        for rows, cols in windows:
            want = full if rows is None else full[..., rows + py // 2, :]
            want = want if cols is None else want[..., cols + px // 2]
            assert cifft_2d(spec.copy(), rows, cols).tobytes() == want.tobytes()

    @over_layouts
    def test_nufft_type1_writes_the_direct_sums_modes(self, rng, shape):
        modes = shape[-2:]
        pts = _random_points(rng, 30, 2)
        vals = _complex(rng, (30, 3))
        out = nufft1(pts, vals, modes, 1e-8)
        for b in range(3):
            assert rel_linf(out[b], _nudft1(pts, vals[:, b], modes)) < 1e-8
        assert nufft1(pts, vals[:, 0], modes, 1e-8).tobytes() == out[0].tobytes()

    @over_layouts
    def test_nufft_type2_reads_the_direct_sums_coefficients(self, rng, shape):
        pts = _random_points(rng, 30, 2)
        coeff = _complex(rng, shape)
        out = nufft2(coeff, pts, 1e-8)
        for b, c in enumerate(coeff.reshape((-1,) + shape[-2:])):
            assert rel_linf(out.reshape(-1, 30)[b], _nudft2(c, pts)) < 1e-8

    def test_batched_nufft_chunks_keep_the_layout(self, rng, small_chunks):
        pts = _random_points(rng, 40, 2)
        vals, coeff = _complex(rng, (40, 9)), _complex(rng, (9, 24, 24))
        fast1, fast2 = nufft1(pts, vals, (24, 24), 1e-6), nufft2(coeff, pts, 1e-6)
        for b in range(9):
            assert rel_linf(fast1[b], _nudft1(pts, vals[:, b], (24, 24))) < 1e-6
            assert rel_linf(fast2[b], _nudft2(coeff[b], pts)) < 1e-6

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.8, 0.93, 1.0, -0.7321])
    def test_scaled_fft_is_the_product_of_fft_order_matrices(self, rng, alpha):
        u = _complex(rng, (4, 48, 48))
        got = sfft_2d_centered(u, alpha, shape=(96, 96))
        assert got.flags.c_contiguous
        w = _rolled_matrix(48, 96, alpha)
        assert got.tobytes() == (w.T @ (u @ w)).tobytes()

    def test_scaled_fft_caches_one_matrix_per_layout(self, rng):
        # The x axis's matrix in ascending order for sfft_1d, in FFT order for
        # sfft_2d_centered.
        u = _complex(rng, (6, 5))
        spectral._sfft_plan.cache_clear()
        sfft_1d(u, 0.7, 2, m_out=8, offset_out=4)
        sfft_2d_centered(u, 0.7, shape=(9, 8))
        sfft_2d_centered(u, 0.7, shape=(9, 8))
        info = spectral._sfft_plan.cache_info()
        assert (info.currsize, info.hits) == (3, 2)

    @pytest.mark.parametrize("make", [
        lambda u: u.real.copy(),
        lambda u: u.astype(np.complex64),
        lambda u: u.tolist(),
        lambda u: np.lib.stride_tricks.as_strided(u, writeable=False),
    ], ids=["float64", "complex64", "list", "read-only"])
    def test_refuses_all_but_a_writeable_complex128_array(self, rng, make):
        u = make(_complex(rng, (4, 6)))
        for call in (cfft_2d, cifft_2d):
            with pytest.raises(ValidationError, match="writeable complex128"):
                call(u)

    @pytest.mark.parametrize("call", [
        lambda u, pts: cfft_n(u, (-2, -1)),
        lambda u, pts: cifft_n(u, (-2, -1)),
        lambda u, pts: sfft_1d(u, 0.7, 3, m_out=11, offset_out=5),
        lambda u, pts: sfft_2d_centered(u, 0.7, shape=(9, 10)),
        lambda u, pts: nufft1(pts, u.reshape(48, 2), (6, 8), 1e-8),
        lambda u, pts: nufft2(u, pts, 1e-8),
    ], ids=["cfft_n", "cifft_n", "sfft_1d", "sfft_2d_centered", "nufft1", "nufft2"])
    def test_the_other_transforms_leave_their_input_unchanged(self, rng, call):
        # Only cfft_2d and cifft_2d consume their input; the rest read a
        # writeable complex128 array, which they could have run in place on.
        u, pts = _complex(rng, (2, 6, 8)), _random_points(rng, 48, 2)
        before = u.copy(), pts.copy()
        call(u, pts)
        assert (u.tobytes(), pts.tobytes()) == tuple(a.tobytes() for a in before)


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

    def test_centered_variant_degenerates_to_cfft(self, rng):
        u = _complex(rng, (8, 8))
        assert rel_linf(sfft_2d_centered(u, 1.0, 1.0), cfft_2d(_fft_ordered(u))) < 1e-10

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
        # A non-integer offset is refused, not truncated.
        for offset in (1.7, np.float64(1.0), float("nan"), "1", None):
            with pytest.raises(ValidationError, match="^index offset must be an integer$"):
                sfft_1d(np.ones(4, complex), 0.5, offset=offset)

    @pytest.mark.parametrize("m_out", [0, -3, 6.9, float("nan"), "6"])
    def test_rejects_an_empty_output(self, m_out):
        with pytest.raises(ValidationError, match="output length"):
            sfft_1d(np.ones(4, complex), 0.5, m_out=m_out)

    @pytest.mark.parametrize("offset_out", [-1, 6, 2.5, np.float64(2.0)])
    def test_rejects_an_output_offset_outside_the_output(self, offset_out):
        with pytest.raises(ValidationError, match="output index offset"):
            sfft_1d(np.ones(4, complex), 0.5, m_out=6, offset_out=offset_out)

    @pytest.mark.parametrize("shape", [(5.5, 7.2), (float("nan"), 4), (4,), (4, 4, 4), 4,
                                       "ab", (np.float64(6.0), 6)])
    def test_rejects_an_output_shape_that_is_not_two_integers(self, shape):
        with pytest.raises(ValidationError, match="^output shape must be"):
            sfft_2d_centered(np.ones((4, 4), complex), 0.5, shape=shape)

    @pytest.mark.parametrize("ndim", [0, 1])
    def test_rejects_an_input_of_fewer_than_two_axes(self, ndim):
        with pytest.raises(ValidationError, match="at least two axes"):
            sfft_2d_centered(np.ones((4,) * ndim, complex), 0.5)

    def test_integer_types_are_read_as_their_values(self, rng):
        u = _complex(rng, (2, 5, 6))
        want = sfft_2d_centered(u, 0.7, shape=(9, 8))
        assert np.array_equal(sfft_2d_centered(u, 0.7, shape=np.array([9, 8])), want)
        assert np.array_equal(sfft_1d(u, 0.7, np.int32(2), m_out=np.int64(8)),
                              sfft_1d(u, 0.7, 2, m_out=8))


_TWO_PI_LD = 8 * np.arctan(np.longdouble(1))


def _long_double_matrix(n_in, m_out, alpha, offset_in, offset_out):
    """The scaled DFT's ``[n_in, m_out]`` matrix in long double, its phases
    reduced to whole turns before the cosine and sine."""
    n = np.arange(n_in, dtype=np.longdouble) - offset_in
    k = np.arange(m_out, dtype=np.longdouble) - offset_out
    turns = np.longdouble(alpha) * np.multiply.outer(n, k) / m_out
    turns -= np.round(turns)
    return np.cos(_TWO_PI_LD * turns) - 1j * np.sin(_TWO_PI_LD * turns).astype(np.clongdouble)


def _rel_linf_ld(fast, want):
    return float(np.abs(fast.astype(np.clongdouble) - want).max() / np.abs(want).max())


# Relative L-inf error per input sample against a long-double direct sum: on
# these inputs the matrix products read at most 2.2e-16 * n_in, and the
# chirp-z convolution up to 1.1e-15 * n_in, above this bound in 11 of the 12
# non-centred 1-D cases.
_LD_ERR_PER_SAMPLE = 4e-16


class TestScaledFftAccuracy:
    @pytest.mark.parametrize("n_in, m_out", [(48, 96), (96, 192), (256, 512)])
    @pytest.mark.parametrize("alpha", [0.5, -0.7321, 1.0, -1.0])
    @pytest.mark.parametrize("centred", [True, False])
    def test_1d_matches_a_long_double_direct_sum(self, n_in, m_out, alpha, centred):
        o_in, o_out = (n_in // 2, m_out // 2) if centred else (3, m_out - 5)
        u = _complex(np.random.default_rng(n_in), (64, n_in))
        want = u.astype(np.clongdouble) @ _long_double_matrix(n_in, m_out, alpha, o_in, o_out)
        fast = sfft_1d(u, alpha, o_in, m_out=m_out, offset_out=o_out)
        assert _rel_linf_ld(fast, want) < _LD_ERR_PER_SAMPLE * n_in

    @pytest.mark.parametrize("n, m", [((48, 40), (96, 80)), ((96, 64), (192, 128)),
                                      ((33, 48), (33, 48)), ((47, 32), (99, 70)),
                                      ((48, 48), (105, 105))])
    @pytest.mark.parametrize("alpha, beta", [(0.5, -0.7321), (-1.0, 1.0)])
    @pytest.mark.parametrize("lead", [(2,), ()], ids=["batch", "single"])
    def test_2d_matches_a_long_double_direct_sum(self, n, m, alpha, beta, lead):
        (ny, nx), (my, mx) = n, m
        u = _complex(np.random.default_rng(ny * nx), (*lead, ny, nx))
        wx = _long_double_matrix(nx, mx, alpha, nx // 2, mx // 2)
        wy = _long_double_matrix(ny, my, beta, ny // 2, my // 2)
        want = _fft_ordered(wy.T @ (u.astype(np.clongdouble) @ wx))
        fast = sfft_2d_centered(u, alpha, beta, shape=m)
        assert fast.flags.c_contiguous
        assert _rel_linf_ld(fast, want) < _LD_ERR_PER_SAMPLE * max(n)


def _embedded_scaled_dft(u, alpha, offset_in, m_out, offset_out):
    """The ``n_in -> m_out`` scaled DFT as ``oracle.scaled_dft`` of ``u``
    zero-embedded in a length ``L`` long enough for input and output, with
    the scale rescaled to the oracle's denominator ``L``."""
    o = max(offset_in, offset_out)
    length = o + max(u.size, m_out)
    v = np.zeros(length, dtype=np.complex128)
    v[o - offset_in:o - offset_in + u.size] = u
    full = oracle.scaled_dft(v, alpha * length / m_out, o)
    return full[o - offset_out:o - offset_out + m_out]


_SCALE = st.floats(-1.0, 1.0).filter(lambda a: a != 0.0)


class TestRectangularScaledFft:
    """``sfft_1d`` from ``n_in`` samples to ``m_out != n_in`` modes and the
    centered 2-D transform onto a larger lattice."""

    @settings(max_examples=200, deadline=None)
    @given(n_in=st.integers(1, 64), m_out=st.integers(1, 64), alpha=_SCALE,
           centred=st.booleans(), data=st.data())
    def test_matches_the_oracle_on_the_embedded_input(self, n_in, m_out, alpha, centred, data):
        if centred:
            o_in, o_out = n_in // 2, m_out // 2
        else:
            o_in = data.draw(st.integers(0, n_in - 1), label="offset_in")
            o_out = data.draw(st.integers(0, m_out - 1), label="offset_out")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        u = _complex(rng, (n_in,))
        fast = sfft_1d(u, alpha, o_in, m_out=m_out, offset_out=o_out)
        assert fast.shape == (m_out,)
        assert rel_linf(fast, _embedded_scaled_dft(u, alpha, o_in, m_out, o_out)) < 1e-9

    def test_batched_axis_handling(self, rng):
        u = _complex(rng, (5, 3, 7))
        want = np.stack([np.stack([sfft_1d(r, 0.6, 2, m_out=11, offset_out=4) for r in b])
                         for b in u])
        assert rel_linf(sfft_1d(u, 0.6, 2, m_out=11, offset_out=4), want) < 1e-12
        along_y = sfft_1d(np.swapaxes(u, 1, 2), 0.6, 2, axis=-2, m_out=11, offset_out=4)
        assert rel_linf(np.swapaxes(along_y, 1, 2), want) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(ny=st.integers(1, 12), nx=st.integers(1, 12), grow_y=st.integers(0, 12),
           grow_x=st.integers(0, 12), alpha=_SCALE, beta=_SCALE,
           seed=st.integers(0, 2**32 - 1))
    def test_2d_equals_the_square_transform_of_the_embedded_relay(self, ny, nx, grow_y, grow_x,
                                                                  alpha, beta, seed):
        # Embedded centred in a zero [my, mx] lattice, as reconstruct._embed_relay does.
        my, mx = ny + grow_y, nx + grow_x
        u = _complex(np.random.default_rng(seed), (2, ny, nx))
        lattice = np.zeros((2, my, mx), dtype=np.complex128)
        oy, ox = my // 2 - ny // 2, mx // 2 - nx // 2
        lattice[:, oy:oy + ny, ox:ox + nx] = u
        fast = sfft_2d_centered(u, alpha, beta, shape=(my, mx))
        assert fast.shape == (2, my, mx)
        assert rel_linf(fast, sfft_2d_centered(lattice, alpha, beta)) < 1e-12


def _square_matrix(m, alpha, offset):
    """The square scaled DFT's (``m_out = n_in``) ``[m, m]`` matrix, built
    as the transform builds it: the right operand of one product."""
    n = np.arange(m, dtype=np.float64) - offset
    return np.exp(-2j * np.pi * (alpha * np.outer(n, n) / m))


def _rolled_matrix(n_in, m_out, alpha):
    """The centered scaled DFT's ``[n_in, m_out]`` matrix, its columns rolled
    into FFT order: the right operand of one of ``sfft_2d_centered``'s
    products."""
    n = np.arange(n_in, dtype=np.float64) - n_in // 2
    k = np.arange(m_out, dtype=np.float64) - m_out // 2
    return np.fft.ifftshift(np.exp(-2j * np.pi * (alpha * np.outer(n, k) / m_out)), axes=-1)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_default_square_path_is_bit_identical():
    # Digests rather than hard-coded bytes: the square arithmetic is pinned
    # against its own step-for-step copy on the machine that runs the test,
    # one matrix product per axis.
    rng = np.random.default_rng(7)
    cases = [(m, alpha, o) for m in (1, 2, 5, 8, 17, 48, 96)
             for alpha in (0.3, -0.7, 1.0, 1.7) for o in sorted({0, m // 2, m - 1})]
    inputs = [_complex(rng, (3, m)) for m, _, _ in cases]
    fast = [sfft_1d(u, alpha, o) for u, (_, alpha, o) in zip(inputs, cases)]
    slow = [u @ _square_matrix(m, alpha, o) for u, (m, alpha, o) in zip(inputs, cases)]
    assert _digest(fast) == _digest(slow)
    u = _complex(rng, (4, 12, 10))
    for alpha, beta in [(0.6, 0.8), (0.5, None), (1.0, 1.0)]:
        b = alpha if beta is None else beta
        slow = _rolled_matrix(12, 12, b).T @ (u @ _rolled_matrix(10, 10, alpha))
        assert _digest([sfft_2d_centered(u, alpha, beta)]) == _digest([slow])


# ---------------------------------------------------------------------------
# NUFFTs
# ---------------------------------------------------------------------------


# Even and odd mode counts, and a one-row spectrum whose single y mode
# leaves only the x coordinate to resolve.
MODE_SHAPES = [(12, 10), (7, 5), (1, 24)]
over_modes = pytest.mark.parametrize("modes", MODE_SHAPES, ids=lambda m: f"{m[0]}x{m[1]}")


class TestNufft:
    @over_modes
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12, 1e-13])
    def test_type1_matches_direct_sum(self, rng, modes, eps):
        pts = _random_points(rng, 50, 2)
        vals = _complex(rng, (50,))
        fast = nufft1(pts, vals, modes, eps)
        slow = _nudft1(pts, vals, modes)
        assert fast.shape == modes
        assert rel_linf(fast, slow) < eps

    @over_modes
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12, 1e-13])
    def test_type2_matches_direct_sum(self, rng, modes, eps):
        pts = _random_points(rng, 50, 2)
        coeff = _complex(rng, modes)
        fast = nufft2(coeff, pts, eps)
        slow = _nudft2(coeff, pts)
        assert fast.shape == (50,)
        assert rel_linf(fast, slow) < eps

    def test_small_mode_counts(self, rng):
        # tiny grids exercise the oversampling floor
        for modes in [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2)]:
            pts = _random_points(rng, 11, 2)
            vals = _complex(rng, (11,))
            err = rel_linf(nufft1(pts, vals, modes, 1e-10),
                           _nudft1(pts, vals, modes))
            assert err < 1e-10

    def test_on_grid_points_are_exact(self, rng):
        # points on the sample lattice reduce to a plain DFT; even a loose
        # accuracy target must then be exact to roundoff
        my, mx = 10, 8
        pts = np.column_stack([-np.pi + 2 * np.pi * rng.integers(0, mx, size=20) / mx,
                               -np.pi + 2 * np.pi * rng.integers(0, my, size=20) / my])
        vals = _complex(rng, (20,))
        err = rel_linf(nufft1(pts, vals, (my, mx), 1e-4),
                       _nudft1(pts, vals, (my, mx)))
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
        pts = _random_points(rng, 200, 2)
        vals = _complex(rng, (200,))
        slow = _nudft1(pts, vals, (16, 12))
        errs = [rel_linf(nufft1(pts, vals, (16, 12), e), slow)
                for e in (1e-3, 1e-12)]
        assert errs[1] < errs[0]

    def test_rejects_empty_point_list(self):
        with pytest.raises(ValidationError):
            nufft1(np.zeros((0, 2)), np.zeros(0, complex), (8, 8), 1e-6)
        with pytest.raises(ValidationError):
            nufft2(np.ones((8, 8), complex), np.zeros((0, 2)), 1e-6)

    # 1e-14 is refused: roundoff alone reads up to 2.7e-14 there.
    @pytest.mark.parametrize("eps", [0.0, 0.2, 1e-14, 1e-15, -1e-6])
    def test_rejects_bad_accuracy_target(self, rng, eps):
        pts = _random_points(rng, 4, 2)
        with pytest.raises(ValidationError):
            nufft1(pts, np.ones(4, complex), (8, 8), eps)
        with pytest.raises(ValidationError):
            nufft2(np.ones((8, 8), complex), pts, eps)

    def test_rejects_out_of_range_points(self):
        with pytest.raises(ValidationError):
            nufft1(np.array([[3.15, 0.0]]), np.ones(1, complex), (8, 8), 1e-6)
        with pytest.raises(ValidationError):
            nufft2(np.ones((8, 8), complex), np.array([[0.0, -4.0]]), 1e-6)

    def test_rejects_shape_mismatches(self):
        with pytest.raises(ValidationError):
            nufft1(np.zeros((2, 3)), np.ones(2, complex), (8, 8), 1e-6)
        # Mode counts are integers: neither truncated nor refused with a bare error.
        for modes in ((5.5, 6.7), (float("nan"), 6), (np.float64(8.0), 8), 8, None):
            with pytest.raises(ValidationError, match="^modes must be"):
                nufft1(np.zeros((3, 2)), np.ones(3, complex), modes, 1e-6)
        with pytest.raises(ValidationError):
            nufft1(np.zeros((3, 2)), np.ones(4, complex), (8, 8), 1e-6)
        with pytest.raises(ValidationError):
            nufft2(np.ones((8, 8), complex), np.zeros((2, 3)), 1e-6)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_rejects_other_dimensionalities(self, rng, dim):
        # The transforms are two-dimensional: 1-D and 3-D points, modes and
        # mode arrays are refused, whether or not they agree with each other.
        pts, pts2 = _random_points(rng, 5, dim), _random_points(rng, 5, 2)
        vals = np.ones(5, complex)
        with pytest.raises(ValidationError):
            nufft1(pts, vals, (8, 8), 1e-6)
        with pytest.raises(ValidationError):
            nufft1(pts2, vals, (8,) * dim, 1e-6)
        with pytest.raises(ValidationError):
            nufft1(pts, vals, (8,) * dim, 1e-6)
        with pytest.raises(ValidationError):
            nufft2(np.ones((8, 8), complex), pts, 1e-6)
        with pytest.raises(ValidationError):
            nufft2(np.ones((2, 8, 8), complex), pts, 1e-6)
        rank = {1: (8,), 3: (2, 3, 8, 8)}[dim]
        with pytest.raises(ValidationError):
            nufft2(np.ones(rank, complex), pts2, 1e-6)


def _loop_axes(modes, eps, pts):
    """Per-axis ``(mr, slots, ker, idx, win)`` straight from the cached axis
    and the window, independent of the CSR assembly: mode axis ``a`` reads
    point column ``1 - a`` (x is last), and ``slots`` are the fine-grid
    slots of the modes in FFT order."""
    out = []
    for a, m in enumerate(modes):
        w, mr, tau, ker = spectral._nufft_axis(m, eps)
        idx, win = spectral._windows(pts[:, 1 - a], w, mr, tau)
        out.append((mr, np.fft.ifftshift(np.arange(m) - m // 2) % mr, ker, idx, win))
    return zip(*out)


def _loop_nufft1(pts, vals, modes, eps):
    """Per-point gridding loops: the reference for the sparse spread operator."""
    mrs, slots, kers, idx, win = _loop_axes(modes, eps, pts)
    fine = np.zeros(mrs, dtype=complex)
    for l in range(pts.shape[0]):
        fine[np.ix_(*[i[l] for i in idx])] += vals[l] * reduce(np.multiply.outer,
                                                               [w[l] for w in win])
    gathered = np.fft.fftn(fine)[np.ix_(*slots)]
    return gathered / reduce(np.multiply.outer, kers)


def _loop_nufft2(coeff, pts, eps):
    mrs, slots, kers, idx, win = _loop_axes(coeff.shape, eps, pts)
    arr = np.zeros(mrs, dtype=complex)
    arr[np.ix_(*slots)] = coeff / reduce(np.multiply.outer, kers)
    fine = np.fft.ifftn(arr) * float(np.prod(mrs))
    return np.array([np.sum(fine[np.ix_(*[i[l] for i in idx])]
                            * reduce(np.multiply.outer, [w[l] for w in win]))
                     for l in range(pts.shape[0])])


@pytest.fixture
def small_chunks(monkeypatch):
    # Fine grids of a few columns per chunk, so batches span several chunks.
    monkeypatch.setattr(spectral, "_FINE_CHUNK_BYTES", 3 * 16 * 24 * 24)


class TestBatchedNufft:
    @over_modes
    def test_matches_per_point_gridding_loop(self, rng, modes):
        pts = _random_points(rng, 40, 2)
        vals = _complex(rng, (40,))
        coeff = _complex(rng, modes)
        loop1 = _loop_nufft1(pts, vals, modes, 1e-8)
        assert rel_linf(nufft1(pts, vals, modes, 1e-8), loop1) < 1e-13
        assert rel_linf(nufft2(coeff, pts, 1e-8), _loop_nufft2(coeff, pts, 1e-8)) < 1e-13

    @over_modes
    def test_type1_batch_equals_columns(self, rng, small_chunks, modes):
        pts = _random_points(rng, 40, 2)
        vals = _complex(rng, (40, 7))
        batched = nufft1(pts, vals, modes, 1e-8)
        assert batched.shape == (7,) + modes
        for b in range(7):
            assert rel_linf(batched[b], nufft1(pts, vals[:, b], modes, 1e-8)) < 1e-13

    @over_modes
    def test_type2_batch_equals_columns(self, rng, small_chunks, modes):
        pts = _random_points(rng, 40, 2)
        coeff = _complex(rng, (7,) + modes)
        batched = nufft2(coeff, pts, 1e-8)
        assert batched.shape == (7, 40)
        for b in range(7):
            assert rel_linf(batched[b], nufft2(coeff[b], pts, 1e-8)) < 1e-13

    def test_batch_matches_direct_sum_across_the_wrap(self, rng):
        # Coordinates just either side of -pi/pi on both axes, where every
        # spread stencil wraps round its fine axis.
        modes = (7, 6)
        pts = _random_points(rng, 30, 2)
        pts[:10] = -np.pi + rng.uniform(0.0, 0.05, (10, 2))
        pts[10:20] = np.pi - rng.uniform(1e-9, 0.05, (10, 2))
        vals = _complex(rng, (30, 4))
        coeff = _complex(rng, (4,) + modes)
        fast1 = nufft1(pts, vals, modes, 1e-10)
        fast2 = nufft2(coeff, pts, 1e-10)
        for b in range(4):
            assert rel_linf(fast1[b], _nudft1(pts, vals[:, b], modes)) < 1e-10
            assert rel_linf(fast2[b], _nudft2(coeff[b], pts)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(modes=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           n=st.integers(1, 12), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_sum_and_is_adjoint(self, modes, n, batch, seed):
        rng = np.random.default_rng(seed)
        pts = _random_points(rng, n, 2)
        vals = _complex(rng, (n, batch))
        coeff = _complex(rng, (batch,) + modes)
        fast1 = nufft1(pts, vals, modes, 1e-10)
        fast2 = nufft2(coeff, pts, 1e-10)
        for b in range(batch):
            assert rel_linf(fast1[b], _nudft1(pts, vals[:, b], modes)) < 1e-10
            assert rel_linf(fast2[b], _nudft2(coeff[b], pts)) < 1e-10
        lhs = np.vdot(fast1, coeff)
        assert abs(lhs - np.vdot(vals.T, fast2)) <= 1e-12 * max(abs(lhs), 1e-300)

    @pytest.mark.parametrize("modes", [(9, 7), (1, 16)])
    def test_batched_adjointness(self, rng, small_chunks, modes):
        pts = _random_points(rng, 31, 2)
        vals = _complex(rng, (31, 5))
        coeff = _complex(rng, (5,) + modes)
        lhs = np.vdot(nufft1(pts, vals, modes, 1e-12), coeff)
        rhs = np.vdot(vals.T, nufft2(coeff, pts, 1e-12))
        assert abs(lhs - rhs) / abs(lhs) < 1e-12

    @over_modes
    def test_spread_operator_structure(self, rng, modes):
        # One CSR row of (2w+1)^2 taps per point over the touched fine rows
        # (y) by every fine column (x).
        spread = spectral._Spread(modes, 1e-6, _random_points(rng, 13, 2))
        axes = [spectral._nufft_axis(m, 1e-6) for m in modes]
        s = spread.matrix
        assert s.format == "csr" and s.indices.dtype == np.int32
        assert s.shape == (13, len(spread.rows) * axes[1][1])
        assert (np.diff(s.indptr) == (2 * axes[0][0] + 1) ** 2).all()
        assert not hasattr(spread, "depth") and not hasattr(spread, "phase")

    def test_rejects_batch_shape_mismatches(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValidationError):
            nufft1(pts, np.ones((4, 2), complex), (8, 8), 1e-6)
        with pytest.raises(ValidationError):
            nufft1(pts, np.ones((3, 2, 2), complex), (8, 8), 1e-6)
        with pytest.raises(ValidationError):
            nufft2(np.ones((2, 8, 0), complex), pts, 1e-6)
        with pytest.raises(ValidationError):
            nufft2(np.ones((2, 8, 8), complex), pts[:, :, None], 1e-6)


# Points confined to part of the torus, where the spread touches only some
# fine rows and the pruned passes skip the rest: x or y within
# [-pi/2, pi/2), both, and both within a window straddling -pi/pi.
WINDOWS = ("x", "y", "xy", "wrap")
# Mode shapes whose fine rows a confined point set leaves partly untouched,
# and ones whose stencils reach every row whatever the window.
PRUNE_SHAPES = [(12, 10), (7, 5), (1, 24), (17, 30), (54, 54)]
over_windows = pytest.mark.parametrize("window", WINDOWS)
over_prune_shapes = pytest.mark.parametrize("modes", PRUNE_SHAPES,
                                            ids=lambda m: f"{m[0]}x{m[1]}")


def _confined_points(rng, n, window):
    pts = _random_points(rng, n, 2)
    if window == "wrap":
        return np.mod(rng.uniform(-np.pi / 4, np.pi / 4, (n, 2)), 2 * np.pi) - np.pi
    for axis in {"x": [0], "y": [1], "xy": [0, 1]}[window]:
        pts[:, axis] = rng.uniform(-np.pi / 2, np.pi / 2, n)
    return pts


def _full_grid(spread):
    """``spread`` over every fine row: its operator re-indexed onto the whole
    fine grid, taps in the same order."""
    full = copy.copy(spread)
    s, (mry, mrx) = spread.matrix, spread.mrs
    cols = spread.rows[s.indices // mrx] * mrx + s.indices % mrx
    full.rows = np.arange(mry)
    full.matrix = csr_array((s.data, cols.astype(s.indices.dtype), s.indptr),
                            shape=(s.shape[0], mry * mrx))
    return full


class TestPrunedNufft:
    @over_windows
    @over_prune_shapes
    def test_matches_per_point_gridding_loop(self, rng, window, modes):
        pts = _confined_points(rng, 40, window)
        vals = _complex(rng, (40,))
        coeff = _complex(rng, modes)
        loop1 = _loop_nufft1(pts, vals, modes, 1e-8)
        assert rel_linf(nufft1(pts, vals, modes, 1e-8), loop1) < 1e-13
        assert rel_linf(nufft2(coeff, pts, 1e-8), _loop_nufft2(coeff, pts, 1e-8)) < 1e-13

    @over_windows
    @over_prune_shapes
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    def test_matches_direct_sums(self, rng, window, modes, eps):
        pts = _confined_points(rng, 50, window)
        vals = _complex(rng, (50,))
        coeff = _complex(rng, modes)
        assert rel_linf(nufft1(pts, vals, modes, eps), _nudft1(pts, vals, modes)) < eps
        assert rel_linf(nufft2(coeff, pts, eps), _nudft2(coeff, pts)) < eps

    @over_windows
    @over_prune_shapes
    def test_batches_are_adjoint_and_equal_their_columns(self, rng, small_chunks, window, modes):
        pts = _confined_points(rng, 31, window)
        vals = _complex(rng, (31, 5))
        coeff = _complex(rng, (5,) + modes)
        fast1, fast2 = nufft1(pts, vals, modes, 1e-12), nufft2(coeff, pts, 1e-12)
        lhs = np.vdot(fast1, coeff)
        assert abs(lhs - np.vdot(vals.T, fast2)) / abs(lhs) < 1e-12
        for b in range(5):
            assert rel_linf(fast1[b], nufft1(pts, vals[:, b], modes, 1e-12)) < 1e-13
            assert rel_linf(fast2[b], nufft2(coeff[b], pts, 1e-12)) < 1e-13

    def test_pruned_passes_equal_the_full_grid_bitwise(self, rng):
        # Same kernel and stencils; the full grid transforms every row.
        pruned, full, touched = [], [], []
        for window in ("y", "xy", "wrap"):
            for modes in PRUNE_SHAPES:
                spread = spectral._Spread(modes, 1e-6, _confined_points(rng, 40, window))
                wide = _full_grid(spread)
                coeff = _complex(rng, (3,) + modes)
                vals = _complex(rng, (40, 3))
                out = [np.empty((3,) + modes, dtype=complex) for _ in range(2)]
                spread.type1(vals, out[0])
                wide.type1(vals, out[1])
                pruned += [spread.type2(coeff), out[0]]
                full += [wide.type2(coeff), out[1]]
                touched.append(len(spread.rows) / spread.mrs[0])
        assert _digest(pruned) == _digest(full)
        assert min(touched) < 0.6

    def test_spread_touches_only_the_stencils_rows(self, rng):
        pts = _confined_points(rng, 40, "y")
        spread = spectral._Spread((54, 54), 1e-6, pts)
        w, mry, beta, _ = spectral._nufft_axis(54, 1e-6)
        idx, _ = spectral._windows(pts[:, 1], w, mry, beta)
        assert np.array_equal(spread.rows, np.unique(idx))
        assert len(spread.rows) <= mry * 0.6
        assert spread.matrix.shape == (40, len(spread.rows) * spread.mrs[1])

    def test_axis_cost_and_integer_oversampling(self):
        # At most 9 taps per axis at 1e-6, and a fine grid of exactly 2m
        # samples for the 11-smooth mode counts the planners pad to, which
        # puts every mode-lattice point on a fine node.
        for m in (m for m in range(5, 400) if next_fast_len(m) == m):
            w, mr, _, _ = spectral._nufft_axis(m, 1e-6)
            assert 2 * w + 1 <= 9 and mr == 2 * m

    @settings(max_examples=60, deadline=None)
    @given(modes=st.tuples(st.integers(1, 30), st.integers(1, 30)),
           kind=st.sampled_from(("torus", "lattice") + WINDOWS),
           log_eps=st.floats(-12.0, -2.0), n=st.integers(20, 60),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_sums_at_any_target(self, modes, kind, log_eps, n, seed):
        rng = np.random.default_rng(seed)
        eps = 10.0 ** log_eps
        if kind == "torus":
            pts = _random_points(rng, n, 2)
        elif kind == "lattice":
            pts = np.column_stack([-np.pi + 2 * np.pi * rng.integers(0, m, n) / m
                                   for m in modes[::-1]])
        else:
            pts = _confined_points(rng, n, kind)
        vals = _complex(rng, (n,))
        coeff = _complex(rng, modes)
        assert rel_linf(nufft1(pts, vals, modes, eps), _nudft1(pts, vals, modes)) < eps
        assert rel_linf(nufft2(coeff, pts, eps), _nudft2(coeff, pts)) < eps


class TestPlanCaches:
    def test_sfft_plans_stay_within_bound(self, rng):
        # Square and rectangular transforms, each (n_in, m_out) over a sweep of scales.
        sizes = [(n, m) for n in (3, 8, 13) for m in (1, 8, 20)]
        alphas = np.linspace(0.1, 0.9, 2 * spectral._SFFT_CACHE_SIZE // len(sizes) + 1)
        for alpha in alphas:
            for n, m in sizes:
                sfft_1d(_complex(rng, (n,)), float(alpha), n // 2, m_out=m, offset_out=m // 2)
        assert spectral._sfft_plan.cache_info().currsize <= spectral._SFFT_CACHE_SIZE
        hits = spectral._sfft_plan.cache_info().hits
        sfft_1d(_complex(rng, (13,)), float(alphas[-1]), 6, m_out=20, offset_out=10)
        assert spectral._sfft_plan.cache_info().hits == hits + 1

    def test_sfft_plans_stay_within_their_byte_bound(self, rng):
        # More scales at 96 -> 192 modes than the cache holds: its matrices
        # stay within the 19 MB that spectral states for that size.
        spectral._sfft_plan.cache_clear()
        u = _complex(rng, (96,))
        tracemalloc.start()
        try:
            for alpha in np.linspace(0.1, 0.9, spectral._SFFT_CACHE_SIZE + 16):
                sfft_1d(u, float(alpha), 48, m_out=192, offset_out=96)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            spectral._sfft_plan.cache_clear()
        assert spectral._SFFT_CACHE_SIZE * 16 * 96 * 192 <= held <= 19e6

    def test_nufft_plans_stay_within_bound(self, rng):
        pts = _random_points(rng, 4, 2)
        for eps in np.geomspace(1e-12, 1e-2, 2 * spectral._NUFFT_CACHE_SIZE):
            nufft1(pts, np.ones(4, complex), (8, 6), float(eps))
        assert spectral._nufft_axis.cache_info().currsize <= spectral._NUFFT_CACHE_SIZE
        hits = spectral._nufft_axis.cache_info().hits
        nufft2(np.ones((8, 6), complex), pts, 1e-2)
        assert spectral._nufft_axis.cache_info().hits == hits + 2
