"""Dense complex operator algebra for small qubit registers.

Conventions, fixed once and used everywhere in the package:

* single-qubit basis order (|0>, |1>) with ``sigma_z = diag(-1, +1)``, so
  |1> is the excited state and ``sigma_plus = |1><0|`` raises |0> -> |1>;
* two-qubit product basis order |00>, |01>, |10>, |11> with qubit 1 on the
  slow (leftmost) index;
* reduced units, hbar = 1.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ValidationError",
    "DimensionError",
    "pauli",
    "kron",
    "commutator",
    "basis_ket",
    "partial_trace",
    "eig_hermitian",
    "clamp_spectrum",
    "check_density_matrix",
    "write_csv",
    "save_matrix_csv",
    "load_matrix_csv",
]

# Round-off eigenvalues in [-EIG_CLAMP, 0) are treated as exact zeros;
# anything more negative is a genuine positivity violation.
EIG_CLAMP = 1e-10

# Largest deviation from Hermiticity that eig_hermitian accepts (max norm).
EIGH_HERM_ATOL = 1e-8


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


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def basis_ket(label: str) -> np.ndarray:
    """Computational-basis ket from a bit string, e.g. ``"10"`` -> |1 0>."""
    if not label or any(c not in "01" for c in label):
        raise ValidationError(f"basis label must be a bit string, got {label!r}")
    index = int(label, 2)
    ket = np.zeros(2 ** len(label), dtype=complex)
    ket[index] = 1.0
    return ket


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one side of a bipartite state.

    Parameters
    ----------
    rho : array, shape (dA*dB, dA*dB)
    dims : (dA, dB)
        Subsystem dimensions; A occupies the slow index.
    keep : "A" or "B"
        Which reduced state to return.
    """
    rho = np.asarray(rho, dtype=complex)
    d_a, d_b = dims
    if d_a < 1 or d_b < 1:
        raise DimensionError(f"invalid subsystem dims {dims}")
    if rho.shape != (d_a * d_b, d_a * d_b):
        raise DimensionError(
            f"state is {rho.shape}, expected {(d_a * d_b, d_a * d_b)} for dims {dims}"
        )
    r = rho.reshape(d_a, d_b, d_a, d_b)
    side = keep.upper()
    if side == "A":
        return np.einsum("abcb->ac", r)
    if side == "B":
        return np.einsum("abad->bd", r)
    raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns ``(w, v)`` with ``m @ v = v @ diag(w)``.  Raises
    :class:`ValidationError` if ``m`` deviates from Hermiticity by more than
    ``EIGH_HERM_ATOL`` in max norm.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max()
    if dev > EIGH_HERM_ATOL:
        raise ValidationError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigh(m)


def clamp_spectrum(w: np.ndarray, atol: float = EIG_CLAMP) -> np.ndarray:
    """Zero out round-off negatives in a spectrum; reject genuine ones."""
    w = np.asarray(w, dtype=float)
    if w.min(initial=0.0) < -atol:
        raise ValidationError(f"spectrum has negative eigenvalue {w.min():.3e}")
    return np.where(w < 0.0, 0.0, w)


def check_density_matrix(
    rho: np.ndarray,
    *,
    herm_atol: float = 1e-10,
    trace_atol: float = 1e-10,
    eig_atol: float = EIG_CLAMP,
    name: str = "rho",
) -> np.ndarray:
    """Validate hermiticity, unit trace, and positivity of a state.

    Returns the input as a complex ndarray; raises :class:`ValidationError`
    naming the violated invariant otherwise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {rho.shape}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > herm_atol:
        raise ValidationError(f"{name} is not Hermitian (max deviation {herm:.3e})")
    tr = rho.trace()
    if abs(tr - 1.0) > trace_atol:
        raise ValidationError(f"{name} has trace {tr:.12g}, expected 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w.min() < -eig_atol:
        raise ValidationError(f"{name} has negative eigenvalue {w.min():.3e}")
    return rho


def write_csv(path, header, columns) -> None:
    """Write equal-length columns as CSV rows, one cell format per column.

    Each column's dtype picks its format: floats ``%.17g``, integers ``%d``,
    complex ``re+imj`` with 17 digits per part, strings as given.
    ``header`` is a sequence of column names, or ``None`` for no header line.
    """
    # Cell format by dtype kind; 17 significant digits round-trip float64.
    cell_format = {"f": "%.17g", "i": "%d", "u": "%d", "c": "%.17g%+.17gj",
                   "U": "%s", "O": "%s"}
    formats, values = [], []
    for col in columns:
        col = np.asarray(col)
        formats.append(cell_format[col.dtype.kind])
        if col.dtype.kind == "c":
            values += [col.real.tolist(), col.imag.tolist()]
        else:
            values.append(col.tolist())
    template = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        fh.write("".join(template % row for row in zip(*values, strict=True)))


def save_matrix_csv(path, m: np.ndarray) -> None:
    """Write a complex matrix as CSV, one matrix row per line, no header."""
    write_csv(path, None, np.asarray(m, dtype=complex).T)


def load_matrix_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [
            [complex(cell) for cell in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    if not rows:
        raise ValidationError(f"{path} contains no matrix rows")
    return np.array(rows, dtype=complex)
