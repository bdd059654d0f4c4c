"""Per-state measures of a two-qubit state and the closed forms they obey.

report() is the entry point for a single state: one MeasureReport holding
concurrence, F, steerability, purity, Q, the coherences of both qubits, both
steerability bounds, the correlation singular values, the flip-product
eigenvalues and the classification, from batch.measure_rows and one SVD
of the correlation matrix.  A stack of states goes to batch.measure_rows
directly.
Concurrence follows the spin-flip construction; steerability is the
three-setting correlation-matrix criterion S = sqrt(max(0, F^2 - 1) / 2).
Raw arrays are validated and solved in one eigh, by measure_rows; an
invalid one raises the ValidationError that names the failed invariant.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import batch
from .errors import NotRealizable, ParameterOutOfRange, ValidationError
from .states import RANGE_TOL, SLACK, DensityMatrix, PureState, validate_amplitudes
from .states import _arrays, _check_broadcast, _check_range, _complex_array, _outside

CLASS_SEPARABLE = "separable-candidate"
CLASS_ENTANGLED = "entangled-unsteerable-by-F"
CLASS_STEERABLE = "steerable"


def concurrence_pure(psi):
    """C = |<psi|psi~>| = 2 |a1 a2 - a0 a3| with |psi~> = (sigma_y x sigma_y)
    conj(|psi>) (Wootters, PRL 80, 2245 (1998)).

    A float for a PureState or a (4,) vector, an array for each row of an
    (n, 4) stack.
    """
    a = psi.amplitudes if isinstance(psi, PureState) else _complex_array(psi, "amplitudes")
    one = a.ndim == 1
    a = validate_amplitudes(a[None] if one else a)
    z = a[:, 1] * a[:, 2] - a[:, 0] * a[:, 3]
    # hypot, not complex np.abs, whose SIMD kernel rounds differently
    conc = 2.0 * np.hypot(z.real, z.imag)
    return float(conc[0]) if one else conc


class MeasureReport(NamedTuple):
    """One state's measures; classification is 'steerable' (S > 0),
    'entangled-unsteerable-by-F' (C > 0, S = 0) or 'separable-candidate'
    (C = 0)."""

    concurrence: float
    f_value: float
    steerability: float
    purity: float
    q_value: float
    coherence_a: float
    coherence_b: float
    lower_bound: float
    upper_bound: float
    singular_values: tuple
    lam: tuple
    classification: str

    def as_dict(self) -> dict:
        d = self._asdict()
        d["singular_values"] = list(self.singular_values)
        d["lam"] = list(self.lam)
        return d


def _classify_from(conc: float, steer: float) -> str:
    if steer > 0.0:
        return CLASS_STEERABLE
    if conc > 0.0:
        return CLASS_ENTANGLED
    return CLASS_SEPARABLE


def report(rho) -> MeasureReport:
    """Every scalar quantity for one state: a DensityMatrix or a 4x4 array,
    which measure_rows validates."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else _complex_array(rho, "matrix")
    if m.shape != (4, 4):
        raise ValidationError(f"matrix must have shape (4, 4), got {m.shape}")
    stack = np.ascontiguousarray(m[None])
    row = batch.measure_rows(stack)[0]
    tsv = np.linalg.svd(batch.correlation_matrices(stack)[0], compute_uv=False)
    return MeasureReport(
        concurrence=float(row[batch.COL_C]),
        f_value=float(row[batch.COL_F]),
        steerability=float(row[batch.COL_S]),
        purity=float(row[batch.COL_PURITY]),
        q_value=float(row[batch.COL_Q]),
        coherence_a=float(row[batch.COL_DA]),
        coherence_b=float(row[batch.COL_DB]),
        lower_bound=float(row[batch.COL_LOWER]),
        upper_bound=float(row[batch.COL_UPPER]),
        singular_values=tuple(float(x) for x in tsv),
        lam=tuple(float(x) for x in row[batch.COL_L1 : batch.COL_L4 + 1]),
        classification=_classify_from(float(row[batch.COL_C]), float(row[batch.COL_S])),
    )


class ClosedForms(NamedTuple):
    """A family's closed forms, in SweepTable's column order: floats for
    numbers, arrays of the broadcast shape for arrays."""

    concurrence: float
    steerability: float
    f_value: float
    purity: float


def _x_closed_forms(a, b, c, d, z, w) -> ClosedForms:
    """Closed forms of the X state with diagonal (a, b, c, d) in |00>, |01>,
    |10>, |11> and corners z = |rho_03|, w = |rho_12| (Yu and Eberly, QIC 7,
    459 (2007)): T has singular values 2(z + w), 2|z - w| and |a - b - c + d|,
    and S^2 = (F^2 - 1)/2 is written so that it does not cancel near F = 1.
    Every square is a product: a one-point call's ``** 2`` would be libm pow.
    """
    zw = z * z + w * w
    t = a - b - c + d
    conc = 2.0 * np.maximum(0.0, np.maximum(z - np.sqrt(b * c), w - np.sqrt(a * d)))
    steer = np.sqrt(np.maximum(0.0, 4.0 * zw - 2.0 * (a + d) * (b + c)))
    fval = np.sqrt(8.0 * zw + t * t)
    pur = a * a + b * b + c * c + d * d + 2.0 * zw
    columns = np.broadcast_arrays(conc, steer, fval, pur)
    if columns[0].ndim == 0:
        return ClosedForms(*map(float, columns))
    return ClosedForms(*columns)


def _sin_cos_eta(theta, eta):
    """sin theta, cos theta and eta as float64 arrays once theta and eta each
    lie in range and broadcast together."""
    theta = _check_range("theta", theta, 0.0, np.pi / 2.0, strict=True)
    eta = _check_range("eta", eta, 0.0, 1.0)
    _check_broadcast(theta=theta.shape, eta=eta.shape)
    return np.sin(theta), np.cos(theta), eta


def bad_closed_forms(theta, eta) -> ClosedForms:
    """Closed forms for a Bell-like state with qubit A amplitude-damped: the
    X state with diagonal (cos^2, eta sin^2, 0, (1 - eta) sin^2) and corner
    sqrt(1 - eta) sin cos.  Elementwise over arrays that broadcast together.
    """
    s, c, eta = _sin_cos_eta(theta, eta)
    s2 = s * s
    return _x_closed_forms(c * c, eta * s2, 0.0, (1.0 - eta) * s2, np.sqrt(1.0 - eta) * s * c, 0.0)


def bpd_closed_forms(theta, eta) -> ClosedForms:
    """bad_closed_forms for qubit A phase-damped: the X state with diagonal
    (cos^2, 0, 0, sin^2) and corner sqrt(1 - eta) sin cos."""
    s, c, eta = _sin_cos_eta(theta, eta)
    return _x_closed_forms(c * c, 0.0, 0.0, s * s, np.sqrt(1.0 - eta) * s * c, 0.0)


def wu_closed_forms(p, phi) -> ClosedForms:
    """Closed forms for p |phi><phi| + (1-p) I/4 with |phi> pure: in phi's
    Schmidt basis, which no closed form sees, the X state with q = (1 - p)/4,
    r = sqrt(1 - C(phi)^2), diagonal (p(1 + r)/2 + q, q, q, p(1 - r)/2 + q)
    and corner p C(phi)/2.  ``phi`` is a PureState or a (4,) vector, which
    takes one p, or an (n, 4) stack, which takes one p for all rows or one
    per row (see concurrence_pure).
    """
    p = _check_range("p", p, 0.0, 1.0)
    cphi = concurrence_pure(phi)
    _check_broadcast("vectors", p=p.shape, vectors=np.shape(cphi))
    q = (1.0 - p) / 4.0
    r = np.sqrt(np.maximum(0.0, 1.0 - cphi * cphi))
    return _x_closed_forms(p * (1.0 + r) / 2.0 + q, q, q, p * (1.0 - r) / 2.0 + q,
                           p * cphi / 2.0, 0.0)


def isotropic_envelope(pur):
    """p = sqrt(max(0, (4 purity - 1)/3)) of the isotropic mixture of each
    purity, and its largest concurrence C_max = max(0, (3p - 1)/2)."""
    p = np.sqrt(np.maximum(0.0, (4.0 * pur - 1.0) / 3.0))
    return p, np.maximum(0.0, (3.0 * p - 1.0) / 2.0)


def wu_steering_margin(conc, pur):
    """Signed argument x + Q^2 - 1 of the (C, purity) steering criterion.

    Elementwise over arrays that broadcast together; a float for scalars.
    Raises NotRealizable, naming the value, for the first purity outside
    [1/4, 1], then the first concurrence outside [0, 1], by more than
    RANGE_TOL; a non-finite value is outside.  A ragged list raises ValidationError.
    """
    conc, pur = _arrays(concurrence=conc, purity=pur)
    for name, values, box, lo, hi in (("purity", pur, "[1/4, 1]", 0.25, 1.0),
                                      ("concurrence", conc, "[0, 1]", 0.0, 1.0)):
        bad = _outside(values, lo - RANGE_TOL, hi + RANGE_TOL)
        if bad.any():
            raise NotRealizable(f"{name} {values[bad].tolist()[0]!r} outside {box}")
    conc, pur = np.asarray(conc, np.float64), np.asarray(pur, np.float64)
    p, _ = isotropic_envelope(pur)
    x = 0.5 * (1.0 + 2.0 * conc) * (1.0 - p)
    margin = x + conc * conc + pur - 1.0
    return float(margin) if margin.ndim == 0 else margin


def wu_steerability_from_c_purity(conc: float, pur: float) -> float:
    """Steerability of the isotropic-mixture family from (C, purity) alone.

    Raises NotRealizable when no such state exists: when (C, purity) lies
    outside [0, 1] x [1/4, 1], or C exceeds max(0, (3p - 1)/2) for
    p = sqrt((4 purity - 1)/3).  Arrays raise ParameterOutOfRange, ragged ones ValidationError.
    """
    if any(a.ndim for a in _arrays(concurrence=conc, purity=pur)):
        raise ParameterOutOfRange(f"concurrence and purity must be numbers, got shapes "
                                  f"{np.shape(conc)} and {np.shape(pur)}")
    margin = wu_steering_margin(conc, pur)  # checks the box
    _, cmax = isotropic_envelope(pur)
    if conc > cmax + SLACK:
        raise NotRealizable(
            f"no state of this family has concurrence {conc} at purity {pur} (max {cmax:.6g})"
        )
    return float(np.sqrt(max(0.0, margin)))
