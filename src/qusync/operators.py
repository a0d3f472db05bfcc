"""Dense complex operator algebra for small qubit registers.

Conventions, fixed once and used everywhere in the package:

* single-qubit basis order (|0>, |1>) with ``sigma_z = diag(-1, +1)``, so
  |1> is the excited state and ``sigma_plus = |1><0|`` raises |0> -> |1>;
* two-qubit product basis order |00>, |01>, |10>, |11> with qubit 1 on the
  slow (leftmost) index;
* reduced units, hbar = 1.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ValidationError",
    "DimensionError",
    "pauli",
    "kron",
    "basis_ket",
    "require_finite",
    "check_density_matrix",
    "FloatCells",
    "write_csv",
    "save_matrix_csv",
]

# The one tolerance of a density matrix's hermiticity, trace and positivity.
ATOL = 1e-10


class ValidationError(ValueError):
    """Input violates a documented invariant (hermiticity, trace, range...)."""


class DimensionError(ValidationError):
    """Operator or state dimensions do not match."""


_PAULI = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
    "plus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "minus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
}


def pauli(which: str) -> np.ndarray:
    """Return a 2x2 spin operator in the (|0>, |1>) basis.

    ``which`` is one of ``"x"``, ``"y"``, ``"z"``, ``"plus"``, ``"minus"``,
    ``"id"``.  The set satisfies [x, y] = 2i z and plus = (x + i y)/2 under
    the diag(-1, +1) convention for z.
    """
    key = which.lower()
    if key not in _PAULI:
        raise ValidationError(f"unknown pauli label {which!r}")
    return _PAULI[key].copy()


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product with the leftmost factor on the slow index."""
    if not ops:
        raise ValidationError("kron needs at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def basis_ket(label: str) -> np.ndarray:
    """Computational-basis ket from a bit string, e.g. ``"10"`` -> |1 0>."""
    if not label or any(c not in "01" for c in label):
        raise ValidationError(f"basis label must be a bit string, got {label!r}")
    index = int(label, 2)
    ket = np.zeros(2 ** len(label), dtype=complex)
    ket[index] = 1.0
    return ket


def require_finite(**values) -> None:
    """Raise :class:`ValidationError` naming the first argument, a number or
    an array, that holds a NaN or an infinity."""
    for name, value in values.items():
        scalar = isinstance(value, (int, float))
        if not (math.isfinite(value) if scalar else np.isfinite(value).all()):
            raise ValidationError(f"{name} must be finite" + (f", got {value}" if scalar else ""))


def _ldl_positive(stack: np.ndarray, atol: float) -> np.ndarray:
    """Whether rho + atol*I is positive definite, for each state of an
    (n, d, d) stack, by the pivots of its LDL† factorization: one pass over
    the entries of the lower triangle (the diagonal's real part), in real
    arithmetic on the whole stack.  A Hermitian matrix is positive definite
    exactly when every pivot is above 0, and the factorization decides that
    as stably as Cholesky's (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 10).  A NaN or an infinity read fails.
    """
    d = stack.shape[-1]
    # column by column, W = L D and L, each entry a (real, imaginary) pair
    w, low = {}, {}
    positive = np.ones(len(stack), dtype=bool)
    with np.errstate(all="ignore"):  # a pivot <= 0 or NaN has failed already
        for j in range(d):
            pivot = stack[:, j, j].real + atol
            for k in range(j):  # - sum_k D_k |L_jk|^2
                (wr, wi), (lr, li) = w[j, k], low[j, k]
                pivot = pivot - (wr * lr + wi * li)
            positive &= (0.0 < pivot) & (pivot < np.inf)
            for i in range(j + 1, d):
                re, im = stack[:, i, j].real, stack[:, i, j].imag
                for k in range(j):  # - sum_k W_ik conj(L_jk)
                    (wr, wi), (lr, li) = w[i, k], low[j, k]
                    re = re - (wr * lr + wi * li)
                    im = im - (wi * lr - wr * li)
                w[i, j], low[i, j] = (re, im), (re / pivot, im / pivot)
    return positive


def check_density_matrix(rho: np.ndarray, *, atol: float = ATOL,
                         name: str = "rho") -> np.ndarray:
    """Validate hermiticity, unit trace and positivity, in that order, of a
    (d, d) state or of each state of an (n, d, d) stack, each up to ``atol``;
    a test passes only at or below it, so NaN and inf fail.

    One pass over the entries ``stack[:, i, j]``, which are contiguous in an
    entry-major stack such as ``evolve``'s: the largest
    ``|rho_ij - conj(rho_ji)|`` over the upper triangle and the diagonal (the
    lower triangle's values are the same), the trace, and the pivots of an
    LDL† factorization of rho + atol*I read from the lower triangle.  Spectra
    are taken only of the Hermitian states with a pivot not above 0.  This is
    the package's only positivity rule.  Raises :class:`ValidationError` for
    the first failing state, named ``"{name} {k}"`` in a stack; returns rho
    as complex.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2] != rho.shape[-1]:
        raise DimensionError(f"{name} must be square, got shape {rho.shape}")
    stack = rho.reshape(-1, *rho.shape[-2:])
    d = stack.shape[-1]
    herm = np.zeros(len(stack))
    # inf - inf is NaN and 1e308 + 1e308 is inf, each of which fails the test
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(d):
            for j in range(i, d):
                np.maximum(herm, np.abs(stack[:, i, j] - stack[:, j, i].conj()), out=herm)
    hermitian = herm <= atol  # so only finite states are diagonalized below
    tr = np.einsum("nii->n", stack)
    w = np.zeros(len(stack))
    suspect = hermitian & ~_ldl_positive(stack, atol)
    if suspect.any():
        w[suspect] = np.linalg.eigvalsh(stack[suspect]).min(axis=1)
    tests = [(hermitian, "is not Hermitian (max deviation {:.3e})", herm),
             (abs(tr - 1.0) <= atol, "has trace {:.12g}, expected 1", tr),
             (w >= -atol, "has negative eigenvalue {:.3e}", w)]
    failing = [(int(np.argmin(ok)), i) for i, (ok, _, _) in enumerate(tests) if not ok.all()]
    if failing:
        k, i = min(failing)
        _, message, value = tests[i]
        who = name if rho.ndim == 2 else f"{name} {k}"
        raise ValidationError(f"{who} {message.format(value[k])}")
    return rho


# write_csv formats a table in two passes: a cell pass turns each column into
# a block of cells padded with zero bytes, and a row pass joins the blocks
# BLOCK_ROWS rows at a time, so that its buffers stay small.
BLOCK_ROWS = 4096
_UNPAD = bytes(range(255)) + b"\0"  # the row pass's translate: 0xff back to NUL

# The kernel's tables.  10**k is exact in float64 for k <= 22, and Dekker's
# split of each power into two 26-bit halves is taken once.
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    """Dekker's split: hi + lo == a exactly, each with at most 26 bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
# A float cell is 24 byte slots, 0 where absent: the sign, "0." and up to
# three leading zeros, and 17 digits with the point among them.
_CELL = 24
_SLOT = np.arange(18, dtype=np.int8)[:, None]


def _scaled(ax, k):
    """ax * 10**k exactly, as p + err with p = fl(ax * 10**k) (Dekker's
    two-product; ax * 10**k neither overflows nor underflows here)."""
    b = _POW10.take(k)
    p = ax * b
    a_hi, a_lo = _split(ax)
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _off_range(p, err):
    """Whether p + err lies below 1e16 or at or above 1e17 (both exact)."""
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))
    return low, high


def _digits(d):
    """The 17 decimal digits of int64 d < 10**17, most significant first,
    and how many there are up to the last non-zero one."""
    out = np.empty((17, d.size), np.uint8)
    hi = (d // 10**8).astype(np.int32)
    lo = (d - hi.astype(np.int64) * 10**8).astype(np.int32)
    for v, rows in ((lo, range(16, 8, -1)), (hi, range(8, 0, -1))):
        for j in rows:
            q = v // 10
            out[j] = v - 10 * q
            v = q
    out[0] = v
    return out, ((out != 0) * _SLOT[1:]).max(axis=0)


def _float_cells(x):
    """The bytes of ``%.17g`` of each float64 in x, as (_CELL, n) uint8
    slots, 0 where absent.

    For 1e-4 <= |x| < 1e16, where ``%.17g`` writes no exponent, |x| 10**k
    with k = 16 - floor(log10 |x|) is p + err exactly; one re-scale fixes a
    k that log10 got wrong, and the 17 digits d are p + err rounded half to
    even.  Every other cell (zeros, NaN, inf, small and large values, and d
    outside [1e16, 1e17)) is formatted by Python.
    """
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16)
    ax = np.where(fast, ax, 1.0)
    k = 16 - np.floor(np.log10(ax)).astype(np.intp)
    p, err = _scaled(ax, k)
    low, high = _off_range(p, err)
    redo = np.flatnonzero(low | high)
    if redo.size:
        k[redo] = k[redo] + low[redo] - high[redo]
        p[redo], err[redo] = _scaled(ax[redo], k[redo])
        low, high = _off_range(p[redo], err[redo])
        fast[redo[low | high]] = False
    # p >= 1e16 > 2**53 is an integer, so round(p + err) = p + round(err)
    floor = np.floor(err)
    half = floor + 0.5
    d = p.astype(np.int64) + floor.astype(np.int64)
    d += (err > half) | ((err == half) & (d & 1).astype(bool))
    fast &= d < 10**17
    e10 = (16 - k).astype(np.int8)

    digits, n_sig = _digits(d)
    lead = e10 < 0
    # the point's slot among the 18 (18: none there) and the digits kept
    point = np.where(lead, np.int8(18), e10 + 1)
    keep = np.where(lead, n_sig, np.maximum(n_sig, e10 + 1))
    digits |= 48
    digits *= _SLOT[:17] < keep

    out = np.zeros((_CELL, x.size), np.uint8)
    np.multiply(x < 0, np.uint8(45), out=out[0])
    np.multiply(lead, np.uint8(48), out=out[1])
    np.multiply(lead, np.uint8(46), out=out[2])
    np.multiply(_SLOT[:3] < -1 - e10, np.uint8(48), out=out[3:6])
    body = out[6:]
    np.copyto(body[:17], digits, where=_SLOT[:17] < point)
    np.copyto(body[1:], digits, where=_SLOT[1:] > point)
    frac = np.flatnonzero(keep > point)
    body[point[frac], frac] = 46
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = ["%.17g" % v for v in x[slow].tolist()]
        out[:, slow] = np.array(cells, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL).T
    return out


class FloatCells:
    """A float column formatted once, as the ``%.17g`` cells of
    :func:`write_csv`, which writes it into any number of tables."""

    def __init__(self, x):
        self.block = _float_cells(np.asarray(x, dtype=np.float64))

    def __len__(self) -> int:
        return self.block.shape[1]


def _text_cells(columns, n):
    """Non-float columns as (width, n) blocks of UTF-8 cells from one format
    call: ``%.17g%+.17gj`` or ``str``; a NUL is stored as 0xff, which UTF-8 never writes."""
    formats, values = [], []
    parts = np.array([c for c in columns if c.dtype.kind == "c"], complex).view(float).tolist()
    for col in columns:
        if col.dtype.kind == "c":
            formats.append(b"%.17g%+.17gj\0" * n)
            values += parts.pop(0)
        else:
            formats.append(b"%s\0" * n)
            values += [str(v).encode().replace(b"\0", b"\xff") for v in col.tolist()]
    text = np.array((b"".join(formats) % tuple(values)).split(b"\0")[:-1], dtype=bytes)
    return text.view(np.uint8).reshape(len(columns), n, text.itemsize).transpose(0, 2, 1)


def _cell_rows(blocks) -> bytes:
    """CSV rows of equal-length cell blocks, one per column."""
    table = np.full((blocks[0].shape[1], sum(map(len, blocks)) + len(blocks)), ord(","), np.uint8)
    cells, start = table.T, 0
    for block in blocks:
        cells[start:start + len(block)] = block
        start += len(block) + 1
    cells[-1] = ord("\n")
    return table.tobytes().translate(_UNPAD, b"\0")


def write_csv(path, header, columns) -> None:
    """Write equal-length columns as CSV rows after ``header`` (column names, or
    ``None``).  The cell pass formats all float columns in one exact ``%.17g`` kernel call
    (a :class:`FloatCells` is formatted already), the others by :func:`_text_cells`."""
    columns = [col if isinstance(col, FloatCells) else np.asarray(col) for col in columns]
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise ValueError(f"columns differ in length: {[len(col) for col in columns]}")
    arrays = [col for col in columns if isinstance(col, np.ndarray)]
    floats = [col for col in arrays if col.dtype.kind == "f"]
    floats = iter(np.split(_float_cells(np.concatenate(floats, dtype=np.float64)),
                           len(floats), axis=1) if floats else ())
    texts = iter(_text_cells([col for col in arrays if col.dtype.kind != "f"], n_rows))
    blocks = [col.block if isinstance(col, FloatCells)
              else next(floats if col.dtype.kind == "f" else texts) for col in columns]
    with open(path, "wb") as fh:
        if header is not None:
            fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, BLOCK_ROWS):
            fh.write(_cell_rows(blocks if n_rows <= BLOCK_ROWS else
                                [block[:, start:start + BLOCK_ROWS] for block in blocks]))


def save_matrix_csv(path, m: np.ndarray) -> None:
    """Write a complex matrix as CSV, one matrix row per line, no header."""
    write_csv(path, None, np.asarray(m, dtype=complex).T)
