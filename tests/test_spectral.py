"""Centered FFTs, the scaled FFT, and both gridding NUFFT types."""

import hashlib
import time
import types
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len as scipy_next_fast_len

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

    @pytest.mark.parametrize("shape", [(1, 1), (7, 9), (8, 6), (3, 16, 15), (2, 3, 11, 12)])
    @pytest.mark.parametrize("real", [True, False])
    def test_in_place_passes_equal_fftn_bitwise(self, rng, shape, real):
        u = rng.standard_normal(shape) if real else _complex(rng, shape)
        axes = (-2, -1)
        ref = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(u, axes=axes), axes=axes), axes=axes)
        got = cfft_2d(u)
        assert got.dtype == np.complex128 and got.shape == shape
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
    out = cifft_2d(u, rows, cols)
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

    @pytest.mark.parametrize("m_out", [0, -3])
    def test_rejects_an_empty_output(self, m_out):
        with pytest.raises(ValidationError, match="output length"):
            sfft_1d(np.ones(4, complex), 0.5, m_out=m_out)

    @pytest.mark.parametrize("offset_out", [-1, 6])
    def test_rejects_an_output_offset_outside_the_output(self, offset_out):
        with pytest.raises(ValidationError, match="output index offset"):
            sfft_1d(np.ones(4, complex), 0.5, m_out=6, offset_out=offset_out)


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


def _square_sfft_1d(u, alpha, offset):
    """The square scaled DFT (``m_out = n_in``) exactly as the transform
    computed it before it took an output length: its chirp, kernel and
    padded convolution, step for step."""
    m = u.shape[-1]
    n = np.arange(m, dtype=np.float64) - offset
    chirp = np.exp(-1j * np.pi * alpha * n * n / m)
    pad = next_fast_len(max(1, 2 * m - 1))
    lags = np.arange(1 - m, m)
    kernel = np.zeros(pad, dtype=np.complex128)
    kernel[lags % pad] = np.exp(1j * np.pi * alpha * lags * lags / m)
    kfft = np.fft.fft(kernel)
    buf = np.zeros(u.shape[:-1] + kfft.shape, dtype=np.complex128)
    np.multiply(u, chirp, out=buf[..., :m])
    np.fft.fft(buf, axis=-1, out=buf)
    buf *= kfft
    np.fft.ifft(buf, axis=-1, out=buf)
    return buf[..., :m] * chirp


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_default_square_path_is_bit_identical():
    # Digests rather than hard-coded bytes: the square arithmetic is pinned
    # against its own step-for-step copy on the machine that runs the test.
    rng = np.random.default_rng(7)
    cases = [(m, alpha, o) for m in (1, 2, 5, 8, 17, 48, 96)
             for alpha in (0.3, -0.7, 1.0, 1.7) for o in sorted({0, m // 2, m - 1})]
    inputs = [_complex(rng, (3, m)) for m, _, _ in cases]
    fast = [sfft_1d(u, alpha, o) for u, (_, alpha, o) in zip(inputs, cases)]
    slow = [_square_sfft_1d(u, alpha, o) for u, (_, alpha, o) in zip(inputs, cases)]
    assert _digest(fast) == _digest(slow)
    u = _complex(rng, (4, 12, 10))
    for alpha, beta in [(0.6, 0.8), (0.5, None), (1.0, 1.0)]:
        b = alpha if beta is None else beta
        x_pass = _square_sfft_1d(u, alpha, 5)
        slow = np.swapaxes(_square_sfft_1d(np.swapaxes(x_pass, -1, -2), b, 6), -1, -2)
        assert _digest([sfft_2d_centered(u, alpha, beta)]) == _digest([slow])


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


def _depth_modes(modes):
    return np.arange(modes[0]) - modes[0] // 2


def _loop_axes(modes, eps, pts):
    """Per-axis ``(mr, slots, ker, idx, win)`` straight from the cached axis
    and the window, independent of the CSR assembly."""
    d = len(modes)
    out = []
    for a, m in enumerate(modes):
        w, mr, tau, ker = spectral._nufft_axis(m, eps)
        idx, win = spectral._windows(pts[:, d - 1 - a], w, mr, tau)
        out.append((mr, (np.arange(m) - m // 2) % mr, ker, idx, win))
    return zip(*out)


def _loop_nufft1(pts, vals, modes, eps):
    """Per-point gridding loops: the reference for the sparse spread operator.

    A 3-D call grids x and y only, one depth mode ``kz`` at a time, from the
    values phased by ``exp(-1j*kz*z)``.
    """
    if len(modes) == 3:
        return np.stack([_loop_nufft1(pts[:, :2], vals * np.exp(-1j * kz * pts[:, 2]),
                                      modes[1:], eps) for kz in _depth_modes(modes)])
    mrs, slots, kers, idx, win = _loop_axes(modes, eps, pts)
    fine = np.zeros(mrs, dtype=complex)
    for l in range(pts.shape[0]):
        fine[np.ix_(*[i[l] for i in idx])] += vals[l] * reduce(np.multiply.outer,
                                                               [w[l] for w in win])
    gathered = np.fft.fftn(fine)[np.ix_(*slots)]
    return gathered / reduce(np.multiply.outer, kers)


def _loop_nufft2(coeff, pts, eps):
    if coeff.ndim == 3:
        return sum(np.exp(1j * kz * pts[:, 2]) * _loop_nufft2(c, pts[:, :2], eps)
                   for kz, c in zip(_depth_modes(coeff.shape), coeff))
    mrs, slots, kers, idx, win = _loop_axes(coeff.shape, eps, pts)
    arr = np.zeros(mrs, dtype=complex)
    arr[np.ix_(*slots)] = coeff / reduce(np.multiply.outer, kers)
    fine = np.fft.ifftn(arr) * float(np.prod(mrs))
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
        # Depths near 0 and just below pi, where a gridded depth stencil
        # would wrap round its fine axis: the exact phases hold there too.
        pts[:10, 2] = rng.uniform(-0.05, 0.05, 10)
        pts[10:20, 2] = np.pi - rng.uniform(0.0, 0.05, 10)
        vals = _complex(rng, (30, 4))
        coeff = _complex(rng, (4,) + modes)
        fast1 = nufft1(pts, vals, modes, 1e-10)
        fast2 = nufft2(coeff, pts, 1e-10, batch=True)
        for b in range(4):
            assert rel_linf(fast1[b], oracle.nudft1(pts, vals[:, b], modes)) < 1e-10
            assert rel_linf(fast2[b], oracle.nudft2(coeff[b], pts)) < 1e-10

    def test_3d_depth_is_exact(self, rng):
        # Lateral points on lattice nodes are gridded exactly, so at a loose
        # eps only the depth factor could err, and it is an exact phase.
        modes = (5, 6, 8)
        pts = np.column_stack([2 * np.pi * rng.integers(-(m // 2), m - m // 2, 40) / m
                               for m in (8, 6)] + [_random_points(rng, 40, 1)])
        vals = _complex(rng, (40,))
        coeff = _complex(rng, modes)
        assert rel_linf(nufft1(pts, vals, modes, 1e-2), oracle.nudft1(pts, vals, modes)) < 1e-12
        assert rel_linf(nufft2(coeff, pts, 1e-2), oracle.nudft2(coeff, pts)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(modes=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
           n=st.integers(1, 12), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_3d_matches_direct_sum_and_is_adjoint(self, modes, n, batch, seed):
        rng = np.random.default_rng(seed)
        pts = _random_points(rng, n, 3)
        vals = _complex(rng, (n, batch))
        coeff = _complex(rng, (batch,) + modes)
        fast1 = nufft1(pts, vals, modes, 1e-10)
        fast2 = nufft2(coeff, pts, 1e-10, batch=True)
        for b in range(batch):
            assert rel_linf(fast1[b], oracle.nudft1(pts, vals[:, b], modes)) < 1e-10
            assert rel_linf(fast2[b], oracle.nudft2(coeff[b], pts)) < 1e-10
        lhs = np.vdot(fast1, coeff)
        assert abs(lhs - np.vdot(vals.T, fast2)) <= 1e-12 * max(abs(lhs), 1e-300)

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
        # CSR over the lateral axes only: a 3-D call spreads x and y and
        # phases depth exactly, so no row holds depth taps.
        lateral = modes[-2:]
        spread = spectral._Spread(modes, 1e-6, _random_points(rng, 13, len(modes)))
        axes = [spectral._nufft_axis(m, 1e-6) for m in lateral]
        s = spread.matrix
        assert s.format == "csr" and s.indices.dtype == np.int32
        assert spread.modes == lateral
        assert s.shape == (13, int(np.prod([mr for _, mr, _, _ in axes])))
        assert (np.diff(s.indptr) == (2 * axes[0][0] + 1) ** len(lateral)).all()
        assert not hasattr(spread, "depth")
        phase = spread.phase
        assert phase is None if len(modes) < 3 else phase.shape == (13, modes[0])

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

    def test_nufft_plans_stay_within_bound(self, rng):
        pts = _random_points(rng, 4, 1)
        for eps in np.geomspace(1e-12, 1e-2, 2 * spectral._NUFFT_CACHE_SIZE):
            nufft1(pts, np.ones(4, complex), (8,), float(eps))
        assert spectral._nufft_axis.cache_info().currsize <= spectral._NUFFT_CACHE_SIZE
        hits = spectral._nufft_axis.cache_info().hits
        nufft2(np.ones(8, complex), pts, 1e-2)
        assert spectral._nufft_axis.cache_info().hits == hits + 1
