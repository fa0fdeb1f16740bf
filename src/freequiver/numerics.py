"""Numeric policy: norms, relative residuals, rank and invertibility thresholds.

Everything downstream (representations, evaluation, derivatives, the harness)
funnels its tolerance decisions through this module so the conventions stay in
one place:

* scalars are complex128 throughout;
* pass/fail norms are operator 2-norms (largest singular value). Since
  ‖A‖₂ ≤ ‖A‖_F, a Frobenius bound may pass a residual; any residual that
  could fail is decided by 2-norms;
* residuals are relative: raw / (1 + product of operand norms);
* residuals fold with worst(): the largest value, 0.0 over none, and NaN
  when any value is NaN, so a residual that could not be computed fails
  every `<= tol` test instead of reading as a pass;
* an operand has an inverse (two-sided, the only kind) iff it is square and
  its singular values are empty or sigma_min > 1e-10 * sigma_max
  (inverse_rule). A
  residual-certified bound on a square operand's computed inverse may pass a
  clearly regular one; any operand that could fail is decided by its singular
  values. exprs.eval_tangents also refuses one whose operand's estimated
  cancellation error, times its condition, exceeds CANCELLATION_TOL;
* LAPACK's SVD is called here only, and one rank rule holds: the rank
  counts the singular values above rtol * sigma_max (nullspace takes
  rtol = max(shape) * eps * 10). A Jacobian that is not wide takes values
  first (values_first_kernel), and a basis of its kernel, if any, from a
  least-squares projection, never m's own singular vectors; kernel takes
  them for a wide m, or for a system that always has a kernel (nullspace).
  A strictly tall m takes the economy SVD (the same Vh). When gesdd does not
  converge, R from m = QR, which has m's singular values and right singular
  vectors, stands in;
* an SVD with vectors fails on a NaN and can hang on an inf, so none gets a
  non-finite matrix: kernel raises LinAlgError, inverse_rule fails the
  operand with NaN sigmas and pinv gives NaN. op_norms keeps LAPACK's
  values-only answer: LinAlgError on a NaN entry, NaN otherwise.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-9
INVERTIBILITY_RTOL = 1e-10
CANCELLATION_TOL = 1e-8  # relative error exprs.eval_tangents allows an inverse's value

_EPS = float(np.finfo(np.float64).eps)
# certified_inverse's margins: residual bound, share of 1/INVERTIBILITY_RTOL
# allowed for ‖m‖_F·‖inv(m)‖_F, rounding constant of the product m·inv(m), and
# the smallest Frobenius norm trusted not to have lost bits to underflow
_RESIDUAL = 0.5
_COND_SHARE = 0.25
_PRODUCT_ERR = 8.0
_TINY = 1e-100


def as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def op_norm(m) -> float:
    """Operator 2-norm; 0.0 for matrices with an empty axis."""
    return float(op_norms(m))


def op_norms(m) -> np.ndarray:
    """Operator 2-norms of matrices stacked (..., rows, cols), bit for bit
    np.linalg.norm(m, 2, axis=(-2, -1)); 0.0 where an axis is empty."""
    return singular_values(m).max(-1, initial=0.0)


def frob_norm(m) -> float:
    """Frobenius norm; 0.0 for matrices with an empty axis."""
    return float(frob_norms(m))


def joint_frob_norm(mats) -> float:
    """Frobenius norm of a sequence of matrices taken as one stacked vector."""
    return math.sqrt(sum(frob_norm(m) ** 2 for m in mats))


def frob_norms(m) -> np.ndarray:
    """Frobenius norms of matrices stacked (..., rows, cols); 0.0 where an
    axis is empty. Each matrix is scaled by the power of two at its largest
    modulus, in two steps as 2**-e overflows at a subnormal one: that rounds
    nothing, so its squares neither overflow nor underflow."""
    a = np.asarray(m)
    if a.shape[-2] == 0 or a.shape[-1] == 0:
        return np.zeros(a.shape[:-2])
    _, e = np.frexp(np.abs(a).max(axis=(-2, -1)))
    first = np.maximum(e, -1021)  # all of the scale at a normal maximum
    scaled = a * np.ldexp(1.0, -first)[..., None, None] * np.ldexp(1.0, first - e)[..., None, None]
    if a.ndim == 2:  # numpy's one-matrix sum, the bits frob_norm always gave
        return np.ldexp(np.linalg.norm(scaled), e)
    return np.ldexp(np.linalg.norm(scaled, axis=(-2, -1)), e)


def rel_residual(raw, *operands):
    """raw / (1 + product of operand 2-norms). An operand is a matrix, or a
    norm already taken: a scalar, or one value per matrix of a stack. Matrix
    operands may be stacked (..., rows, cols), with raw one value per matrix;
    the residuals then come back as an array, one per matrix."""
    denom = 1.0
    for m in operands:
        denom = denom * (abs(m) if np.ndim(m) < 2 else op_norms(m))
    out = np.asarray(raw, dtype=np.float64) / (1.0 + denom)
    return float(out) if out.ndim == 0 else out


def worst(values) -> float:
    """The largest of values, 0.0 when there are none and NaN when any is NaN
    (Python's max keeps whichever of a NaN and a number it met first)."""
    vals = list(map(float, values))
    return math.nan if any(map(math.isnan, vals)) else max(vals, default=0.0)


def rel_diff(a, b):
    """Relative difference ‖a−b‖₂ / (1 + ‖a‖₂·‖b‖₂) between two matrices, or
    per matrix between stacks (..., rows, cols) that broadcast together."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    # rel_residual's arithmetic, with the three 2-norms from one stacked call
    raw, na, nb = op_norms(np.stack(np.broadcast_arrays(a - b, a, b)))
    out = raw / (1.0 + (1.0 * na) * nb)
    return float(out) if out.ndim == 0 else out


def singular_values(m) -> np.ndarray:
    """Singular values of m, or of each matrix of a stack (..., rows, cols),
    in descending order; none where an axis is empty."""
    a = np.asarray(m)
    if a.shape[-2] == 0 or a.shape[-1] == 0:
        return np.zeros(a.shape[:-2] + (0,))
    return np.linalg.svd(a, compute_uv=False)


def kernel(m, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """(s, basis) of a 2-d m: its singular values, descending, and the rows of
    an orthonormal basis of its kernel: the right singular vectors past the
    rank, which counts s > rtol * s[0]; m @ row ≈ 0. No rows: the identity."""
    a = np.asarray(m, dtype=np.complex128)
    if not np.isfinite(a).all():  # gesdd fails on a NaN and can hang on an inf
        raise np.linalg.LinAlgError("kernel of a non-finite matrix")
    if not a.size:
        return np.zeros(0), np.eye(a.shape[1], dtype=np.complex128)
    try:
        _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] <= a.shape[1])
    except np.linalg.LinAlgError:  # seen on Jacobians with a large kernel
        _, s, vh = np.linalg.svd(np.linalg.qr(a)[1], full_matrices=True)
    # rows of vh are conjugated right singular vectors
    return s, np.conj(vh[_rank(s, rtol):])


def _rank(s, rtol: float) -> int:
    """How many of the singular values s, descending and non-empty, exceed
    rtol * s[0]: the rank that kernel and values_first_kernel count."""
    return int(np.sum(s > rtol * s[0]))


def values_first_kernel(m, rtol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """kernel(m, rtol) for a finite 2-d m that is not wide (0 < cols <= rows),
    without m's singular vectors, whose SVD takes about twice the time and
    several times the memory of the values alone. s comes from an SVD without
    vectors. For a rank r short of cols, the least-squares solve at the same
    cutoff projects cols - r fixed random vectors onto the kernel, and the
    basis is the right singular vectors of m on their span: orthonormal rows
    with m @ row ≈ 0, in kernel's order, so the last has the least gain.
    None for any other m, for rank 0 (kernel's basis is then the identity)
    and when LAPACK does not converge: kernel then decides."""
    a = np.asarray(m, dtype=np.complex128)
    if not (0 < a.shape[1] <= a.shape[0] and np.isfinite(a).all()):
        return None
    try:
        s = singular_values(a)
        dim = s.size - _rank(s, rtol)
        if dim == 0:
            return s, np.zeros((0, s.size), dtype=np.complex128)
        if dim == s.size:
            return None
        rng = np.random.default_rng(0)
        z = rng.standard_normal((s.size, dim)) + 1j * rng.standard_normal((s.size, dim))
        q = np.linalg.qr(z - np.linalg.lstsq(a, a @ z, rcond=rtol)[0])[0]
        wh = np.linalg.svd(a @ q, full_matrices=False)[2]
    except np.linalg.LinAlgError:
        return None
    return s, (q @ wh.conj().T).T


def nullspace(m) -> np.ndarray:
    """kernel's basis of m at rtol = max(rows, cols) * machine eps * 10. For a
    stack (B, rows, cols), B bases from one stacked SVD (LAPACK takes it matrix
    by matrix, so each keeps its bits), or from kernel per matrix when the
    stack is empty, not finite or does not converge."""
    rtol = max(np.shape(m)[-2:]) * _EPS * 10.0
    if np.ndim(m) == 2:
        return kernel(m, rtol)[1]
    a = np.asarray(m, dtype=np.complex128)
    try:
        if a.size and np.isfinite(a).all():
            _, s, vh = np.linalg.svd(a, full_matrices=a.shape[-2] <= a.shape[-1])
            return [np.conj(vb[_rank(sb, rtol):]) for sb, vb in zip(s, vh)]
    except np.linalg.LinAlgError:
        pass
    return [kernel(one, rtol)[1] for one in a]


def pinv(m) -> np.ndarray:
    """Pseudo-inverse of m or of each matrix of a stack (..., rows, cols); NaN
    throughout when an entry is not finite."""
    if m.size and np.isfinite(m).all():
        return np.linalg.pinv(m)
    return np.full(m.shape[:-2] + (m.shape[-1], m.shape[-2]), np.nan, dtype=np.complex128)


def inverse_rule(m):
    """(ok, sigma_min, sigma_max, reason) for the inverse of m, or of each
    matrix of a stack (..., rows, cols): ok where m is square and its singular
    values are empty (both sigmas are then 0.0) or the smallest exceeds
    INVERTIBILITY_RTOL times the largest. A stack holding a non-finite entry
    fails with NaN sigmas, without an SVD."""
    square = m.shape[-2] == m.shape[-1]
    reason = ("operand numerically singular" if square
              else "two-sided inverse of a rectangular value")
    if not np.isfinite(m).all():
        return False, math.nan, math.nan, "operand not finite" if square else reason
    s = singular_values(m)
    if not s.size:
        return square, 0.0, 0.0, reason
    smin, smax = s[..., -1], s[..., 0]
    return square & (smin > INVERTIBILITY_RTOL * smax), smin, smax, reason


def is_invertible(m) -> bool:
    """inverse_rule for one matrix. Zero-size square
    matrices count as invertible (empty product convention)."""
    return bool(inverse_rule(np.asarray(m))[0])


def certified_inverse(m) -> np.ndarray | None:
    """np.linalg.inv(m) for a stack of square matrices (..., n, n), n > 0,
    when a residual bound shows that every matrix passes inverse_rule; None
    when in doubt, for the singular values to decide.

    If the computed inverse X has rho = ‖I − mX‖₂ < 1, then m is invertible
    and ‖m⁻¹‖₂ ≤ ‖X‖₂ / (1 − rho) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 14). rho is bounded by the Frobenius
    norm of the computed residual plus a bound on the rounding of the product,
    so a pass (rho ≤ _RESIDUAL) gives sigma_max / sigma_min ≤ 2‖m‖_F‖X‖_F,
    at most half the threshold's reciprocal; the margin absorbs rounding in
    the norms and in the singular values the exact test would compute. The
    norms are not scaled: with both at least _TINY and their product bounded,
    no square in them overflows and underflow loses nothing that counts. A
    non-finite value anywhere in the stack fails the comparisons."""
    n = m.shape[-1]
    with np.errstate(all="ignore"):
        try:
            x = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            return None
        a, b, r = (np.linalg.norm(t, axis=(-2, -1)) for t in (m, x, m @ x - np.eye(n)))
        ab = a * b
        ok = (
            (np.minimum(a, b) >= _TINY)
            & (r + _PRODUCT_ERR * n * _EPS * ab <= _RESIDUAL)
            & (ab <= _COND_SHARE / INVERTIBILITY_RTOL)
        )
    return x if ok.all() else None
