"""numerics: the one fold every residual check goes through, and the one
module that takes SVDs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freequiver.numerics import (
    inverse_rule,
    kernel,
    nullspace,
    op_norm,
    op_norms,
    pinv,
    rel_diff,
    rel_residual,
    values_first_kernel,
    worst,
)


class TestWorst:
    def test_empty_is_zero(self):
        assert worst([]) == 0.0
        assert worst(v for v in ()) == 0.0

    def test_largest_value(self):
        assert worst([1e-12, 3e-9, 2e-10]) == 3e-9
        assert worst(np.array([0.5, 0.25])) == 0.5

    def test_ties(self):
        assert worst([2e-9, 2e-9]) == 2e-9
        assert worst([0.0, 0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("values", [
        [math.nan, 1e-9, 2e-9],
        [1e-9, math.nan, 2e-9],
        [1e-9, 2e-9, math.nan],
        [np.float64(1e-9), np.nan],
    ])
    def test_nan_anywhere_is_nan(self, values):
        assert math.isnan(worst(values))
        assert math.isnan(worst(iter(values)))

    def test_inf_is_a_value(self):
        assert worst([1e-9, math.inf, 2e-9]) == math.inf


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rank_deficient(seed, rows, cols, rank):
    rng = np.random.Generator(np.random.PCG64(seed))
    return _cplx(rng, rows, rank) @ _cplx(rng, rank, cols)


def _span_projector(basis):
    # basis rows r span the space; the projector onto it is sum of r r^H
    return basis.T @ basis.conj()


class TestOpNorms:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        batch=st.lists(st.integers(0, 3), max_size=2),
        rows=st.integers(0, 6),
        cols=st.integers(0, 6),
        scale=st.sampled_from([1e-150, 1.0, 1e150]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_largest_singular_value_is_numpys_2_norm(self, batch, rows, cols, scale, seed):
        m = scale * _cplx(np.random.Generator(np.random.PCG64(seed)), *batch, rows, cols)
        got = op_norms(m)
        if rows and cols:
            want = np.linalg.norm(m, 2, axis=(-2, -1))
        else:
            want = np.zeros(tuple(batch))
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        if not batch:
            assert op_norm(m) == float(want)

    def test_non_finite_matrix_still_raises(self):
        m = np.ones((3, 3), dtype=np.complex128)
        m[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            op_norms(m)


class TestRelDiff:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        batch=st.lists(st.integers(1, 3), max_size=1),
        b_stacked=st.booleans(),
        rows=st.integers(0, 6),
        cols=st.integers(0, 6),
        scale=st.sampled_from([1e-20, 1.0, 1e20]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_of_the_separate_norms(self, batch, b_stacked, rows, cols, scale, seed):
        # one stacked call for ‖a − b‖₂, ‖a‖₂ and ‖b‖₂, with rel_residual's
        # arithmetic, gives the bits of three separate ones
        rng = np.random.Generator(np.random.PCG64(seed))
        a = scale * _cplx(rng, *batch, rows, cols)
        b = a + scale * 1e-3 * _cplx(rng, *(batch if b_stacked else []), rows, cols)
        got, want = rel_diff(a, b), rel_residual(op_norms(a - b), a, b)
        assert type(got) is type(want)
        assert np.array_equal(got, want)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            rel_diff(np.zeros((2, 3)), np.zeros((3, 2)))


class TestKernel:
    def test_no_rows_is_the_identity(self):
        s, basis = kernel(np.zeros((0, 4)), 1e-8)
        assert s.shape == (0,)
        assert np.array_equal(basis, np.eye(4))
        assert np.array_equal(nullspace(np.zeros((0, 4))), np.eye(4))

    def test_no_columns_is_empty(self):
        for m in (np.zeros((3, 0)), np.zeros((0, 0))):
            s, basis = kernel(m, 1e-8)
            assert s.shape == (0,) and basis.shape == (0, 0)
            assert nullspace(m).shape == (0, 0)

    def test_zero_matrix_keeps_every_direction(self):
        m = np.zeros((3, 4), dtype=np.complex128)
        s, basis = kernel(m, 1e-8)
        assert np.array_equal(s, np.zeros(3))
        assert basis.shape == (4, 4)
        assert np.allclose(basis @ basis.conj().T, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("rows, cols, rank", [(5, 7, 3), (7, 5, 2), (6, 6, 5)])
    def test_rank_deficient_matrix(self, rows, cols, rank):
        m = _rank_deficient(rows + cols, rows, cols, rank)
        s, basis = kernel(m, 1e-8)
        assert np.array_equal(s, np.linalg.svd(m)[1])
        assert basis.shape == (cols - rank, cols)
        assert np.allclose(basis @ basis.conj().T, np.eye(cols - rank), atol=1e-13)
        for row in basis:
            assert np.linalg.norm(m @ row) <= 1e-12 * s[0]
        assert np.array_equal(nullspace(m), basis)

    def test_rank_counts_values_above_the_relative_cutoff(self):
        m = np.diag([2.0, 2e-9, 0.0]).astype(np.complex128)
        assert len(kernel(m, 1e-8)[1]) == 2
        assert len(kernel(m, 1e-10)[1]) == 1
        assert len(kernel(m, 0.0)[1]) == 1  # a zero is never above the cutoff
        assert len(values_first_kernel(m, 0.0)[1]) == 1

    def test_nullspace_falls_back_through_qr(self, monkeypatch):
        m = _rank_deficient(3, 6, 9, 4)
        want = nullspace(m)
        svd, failed = np.linalg.svd, []

        def first_full_svd_fails(a, *args, **kwargs):
            if kwargs.get("full_matrices") and not failed:
                failed.append(a.shape)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", first_full_svd_fails)
        got = nullspace(m)
        monkeypatch.undo()
        assert failed == [(6, 9)]
        assert got.shape == want.shape == (5, 9)
        assert np.allclose(_span_projector(got), _span_projector(want), atol=1e-12)
        for row in got:
            assert np.linalg.norm(m @ row) <= 1e-12 * np.linalg.norm(m, 2)


    def test_tall_kernel_falls_back_through_qr(self, monkeypatch):
        # a strictly tall matrix takes the economy SVD; its fallback is the same
        m = _rank_deficient(4, 9, 6, 4)
        want = nullspace(m)
        svd, failed = np.linalg.svd, []

        def first_svd_with_vectors_fails(a, *args, **kwargs):
            if kwargs.get("compute_uv", True) and not failed:
                failed.append((a.shape, kwargs.get("full_matrices")))
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", first_svd_with_vectors_fails)
        got = nullspace(m)
        monkeypatch.undo()
        assert failed == [((9, 6), False)]
        assert got.shape == want.shape == (2, 6)
        assert np.allclose(_span_projector(got), _span_projector(want), atol=1e-12)
        for row in got:
            assert np.linalg.norm(m @ row) <= 1e-12 * np.linalg.norm(m, 2)

    @pytest.mark.parametrize("rows, cols", [(9, 6), (6, 6), (6, 9)])
    def test_economy_svd_only_when_strictly_tall(self, monkeypatch, rows, cols):
        svd, calls = np.linalg.svd, []

        def recording(a, *args, **kwargs):
            calls.append(kwargs.get("full_matrices"))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        s, basis = kernel(_rank_deficient(5, rows, cols, 4), 1e-8)
        assert calls == [rows <= cols]
        assert basis.shape == (cols - 4, cols)


class TestValuesFirstKernel:
    @pytest.mark.parametrize("rows, cols, rank", [
        (6, 6, 6), (9, 6, 6), (6, 6, 5), (9, 6, 4), (6, 9, 6), (7, 7, 0), (0, 4, 0), (3, 0, 0),
        (0, 0, 0),
    ])
    @pytest.mark.parametrize("rtol", [1e-8, 0.0, -1.0, math.nan])
    def test_kernels_verdict_without_the_matrixs_vectors(self, monkeypatch, rows, cols, rank,
                                                         rtol):
        m = _rank_deficient(rows + cols, rows, cols, rank)
        s_kernel, basis_kernel = kernel(m, rtol)
        svd, calls = np.linalg.svd, []

        def recording(a, *args, **kwargs):
            calls.append((np.shape(a), kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        got = values_first_kernel(m, rtol)
        monkeypatch.undo()
        assert (m.shape, True) not in calls
        if not 0 < cols <= rows:
            assert got is None and calls == []
            return
        assert calls[0] == (m.shape, False)
        if len(basis_kernel) == cols:  # rank 0: kernel's basis is the identity
            assert got is None
            return
        s, basis = got
        assert np.allclose(s, s_kernel, rtol=1e-13, atol=1e-13 * s_kernel[0])
        assert basis.shape == basis_kernel.shape
        if len(basis):
            assert np.allclose(basis @ basis.conj().T, np.eye(len(basis)), atol=1e-13)
            assert np.allclose(_span_projector(basis), _span_projector(basis_kernel), atol=1e-12)
            gains = np.linalg.norm(m @ basis.T, axis=0)
            assert gains.max() <= 1e-12 * s[0]
            assert gains[-1] == gains.min()

    def test_cutoff_is_kernels(self):
        m = np.diag([2.0, 2e-9, 1e-12]).astype(np.complex128)
        s, basis = values_first_kernel(m, 1e-8)
        assert np.array_equal(s, [2.0, 2e-9, 1e-12])
        assert np.allclose(abs(basis), [[0, 1, 0], [0, 0, 1]], atol=1e-14)
        s, basis = values_first_kernel(m, 1e-13)
        assert np.array_equal(s, [2.0, 2e-9, 1e-12]) and basis.shape == (0, 3)

    def test_cluster_under_the_cutoff_ends_at_the_least_gain(self):
        # the basis spans the values under the cutoff; its last row is the
        # smallest one's singular vector, as in kernel
        rng = np.random.Generator(np.random.PCG64(7))
        u = np.linalg.qr(_cplx(rng, 8, 8))[0]
        v = np.linalg.qr(_cplx(rng, 8, 8))[0]
        sigma = np.array([5.0, 3.0, 2.0, 1.0, 0.5, 4e-9, 2e-9, 1e-9])
        m = (u * sigma) @ v.conj().T
        s, basis = values_first_kernel(m, 1e-8)
        assert np.allclose(s, sigma, rtol=1e-12, atol=1e-15)
        assert basis.shape == (3, 8)
        assert np.allclose(_span_projector(basis), _span_projector(v[:, 5:].T), atol=1e-7)
        assert abs(np.linalg.norm(m @ basis[-1]) - 1e-9) <= 1e-6 * 1e-9
        assert abs(abs(np.vdot(v[:, 7], basis[-1])) - 1) <= 1e-6

    @pytest.mark.parametrize("failing", ["svd", "lstsq"])
    def test_lapack_failure_is_none(self, monkeypatch, failing):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, failing, fails)
        assert values_first_kernel(np.diag([1.0, 0.0, 2.0]), 1e-8) is None


class TestNonFiniteOperands:
    # LAPACK's SVD with vectors raises on a NaN and can hang on an inf
    @pytest.fixture
    def no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK's SVD was called")

        for name in ("svd", "pinv"):
            monkeypatch.setattr(np.linalg, name, refuse)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_kernel_refuses_without_an_svd(self, no_svd, bad):
        m = np.ones((3, 4), dtype=np.complex128)
        m[0, 0] = bad
        for fn in (lambda a: kernel(a, 1e-8), nullspace):
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                fn(m)
        assert values_first_kernel(m.T, 1e-8) is None

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.inf)])
    def test_inverse_rule_fails_without_an_svd(self, no_svd, bad):
        m = np.eye(3, dtype=np.complex128)
        m[2, 0] = bad
        ok, smin, smax, reason = inverse_rule(m)
        assert ok is False and math.isnan(smin) and math.isnan(smax)
        assert reason == "operand not finite"
        ok, smin, smax, _ = inverse_rule(np.stack([np.eye(3), m]))
        assert not np.any(ok) and math.isnan(smin) and math.isnan(smax)

    def test_a_wrong_shape_keeps_its_reason(self, no_svd):
        m = np.full((3, 2), np.nan, dtype=np.complex128)
        ok, smin, _, reason = inverse_rule(m)
        assert ok is False and math.isnan(smin)
        assert reason == "two-sided inverse of a rectangular value"

    def test_pinv_is_nan(self, no_svd):
        m = np.ones((2, 3, 4), dtype=np.complex128)
        m[1, 0, 0] = np.inf
        got = pinv(m)
        assert got.shape == (2, 4, 3) and got.dtype == np.complex128
        assert np.isnan(got).all()

    def test_pinv_of_empty_and_finite_operands(self):
        assert pinv(np.zeros((3, 0), dtype=np.complex128)).shape == (0, 3)
        m = _rank_deficient(5, 4, 3, 3)
        assert np.array_equal(pinv(m), np.linalg.pinv(m))
