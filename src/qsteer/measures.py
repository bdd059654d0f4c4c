"""Per-state measures of a two-qubit state and the closed forms they obey.

report() is the entry point for a single state: one MeasureReport holding
concurrence, F, steerability, purity, Q, the coherences of both qubits, both
steerability bounds, the correlation singular values, the flip-product
eigenvalues and the classification.  All but the singular values are read
from one row of batch.measure_rows; those come from
batch.correlation_singular_values.  A stack of states goes to
batch.measure_rows directly.
Concurrence follows the spin-flip construction; steerability is the
three-setting correlation-matrix criterion S = sqrt(max(0, F^2 - 1) / 2).
Raw arrays are validated once, by measure_rows; an invalid one raises the
ValidationError that names the failed invariant.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import batch
from .errors import NotRealizable, ParameterOutOfRange
from .states import RANGE_TOL, SLACK, DensityMatrix, PureState

CLASS_SEPARABLE = "separable-candidate"
CLASS_ENTANGLED = "entangled-unsteerable-by-F"
CLASS_STEERABLE = "steerable"


def concurrence_pure(psi) -> float:
    """|<psi|psi~>| with |psi~> = (sigma_y x sigma_y) conj(|psi>)."""
    a = (psi if isinstance(psi, PureState) else PureState(psi)).amplitudes
    return float(abs(np.vdot(a, batch.FLIP_SIGN * a[::-1].conj())))


def correlation_matrix(rho) -> np.ndarray:
    """T[m, n] = Re tr(rho (sigma_m x sigma_n)), a real 3x3 matrix."""
    m = (rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)).matrix
    return batch.correlation_matrices(m[None])[0]


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
    """Every scalar quantity for one state, from one batch.measure_rows row
    (which validates the state) and its correlation singular values."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    stack = np.ascontiguousarray(m[None])
    row = batch.measure_rows(stack)[0]
    tsv = batch.correlation_singular_values(batch.correlation_matrices(stack))[0]
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
    """A family's closed forms, in SweepTable's column order."""

    concurrence: float
    steerability: float
    f_value: float
    purity: float


def _check_theta_eta(theta: float, eta: float) -> None:
    if not 0.0 < theta < np.pi / 2.0:
        raise ParameterOutOfRange(f"theta must lie strictly inside (0, pi/2), got {theta}")
    if not 0.0 <= eta <= 1.0:
        raise ParameterOutOfRange(f"eta must lie in [0, 1], got {eta}")


def bad_closed_forms(theta: float, eta: float) -> ClosedForms:
    """Closed forms for a Bell-like state with qubit A amplitude-damped.

    C scales by sqrt(1-eta); purity is the squared Frobenius norm of the
    explicit damped matrix (entries cos^2, eta sin^2, (1-eta) sin^2 on the
    diagonal, sqrt(1-eta) sin cos in the corners); S saturates the lower
    bound sqrt(max(0, C^2 + purity - 1)), so F = sqrt(2 C^2 + 2 purity - 1).
    """
    _check_theta_eta(theta, eta)
    s2 = np.sin(theta) ** 2
    c2 = np.cos(theta) ** 2
    conc = float(np.sqrt(1.0 - eta) * np.sin(2.0 * theta))
    pur = float(c2 * c2 + s2 * s2 * ((1.0 - eta) ** 2 + eta * eta) + 2.0 * (1.0 - eta) * s2 * c2)
    steer = float(np.sqrt(max(0.0, conc * conc + pur - 1.0)))
    return ClosedForms(conc, steer, math.sqrt(2.0 * conc**2 + 2.0 * pur - 1.0), pur)


def bpd_closed_forms(theta: float, eta: float) -> ClosedForms:
    """Closed forms for a Bell-like state with qubit A phase-damped.

    S equals C exactly; the correlation matrix is diag(C, -C, 1), so
    F = sqrt(1 + 2 C^2).
    """
    _check_theta_eta(theta, eta)
    conc = float(np.sqrt(1.0 - eta) * np.sin(2.0 * theta))
    pur = float(1.0 - 0.5 * eta * np.sin(2.0 * theta) ** 2)
    return ClosedForms(conc, conc, math.sqrt(1.0 + 2.0 * conc**2), pur)


def wu_closed_forms(p: float, phi) -> ClosedForms:
    """Closed forms for p |phi><phi| + (1-p) I/4 with |phi> pure.

    C = max(0, p C(phi) - (1-p)/2), F = p sqrt(1 + 2 C(phi)^2),
    S = sqrt(max(0, p^2 (1 + 2 C(phi)^2) - 1) / 2), purity = (1 + 3p^2)/4.
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRange(f"p must lie in [0, 1], got {p}")
    cphi = concurrence_pure(phi)
    conc = float(max(0.0, p * cphi - (1.0 - p) / 2.0))
    fval = float(p * np.sqrt(1.0 + 2.0 * cphi * cphi))
    steer = float(np.sqrt(0.5 * max(0.0, fval * fval - 1.0)))
    pur = float((1.0 + 3.0 * p * p) / 4.0)
    return ClosedForms(conc, steer, fval, pur)


def wu_steering_margin(conc, pur):
    """Signed argument x + Q^2 - 1 of the (C, purity) steering criterion.

    Elementwise over arrays that broadcast together; a float for scalars.
    """
    conc = np.asarray(conc, dtype=np.float64)
    pur = np.asarray(pur, dtype=np.float64)
    p = np.sqrt(np.maximum(0.0, (4.0 * pur - 1.0) / 3.0))
    x = 0.5 * (1.0 + 2.0 * conc) * (1.0 - p)
    margin = x + conc * conc + pur - 1.0
    return float(margin) if margin.ndim == 0 else margin


def wu_steerability_from_c_purity(conc: float, pur: float) -> float:
    """Steerability of the isotropic-mixture family from (C, purity) alone.

    Raises NotRealizable when no such state exists, i.e. when C exceeds
    max(0, (3p - 1)/2) for p = sqrt((4 purity - 1)/3).
    """
    if not 0.25 - RANGE_TOL <= pur <= 1.0 + RANGE_TOL:
        raise NotRealizable(f"purity {pur} outside [1/4, 1]")
    if not -RANGE_TOL <= conc <= 1.0 + RANGE_TOL:
        raise NotRealizable(f"concurrence {conc} outside [0, 1]")
    p = np.sqrt(max(0.0, (4.0 * pur - 1.0) / 3.0))
    cmax = max(0.0, (3.0 * p - 1.0) / 2.0)
    if conc > cmax + SLACK:
        raise NotRealizable(
            f"no state of this family has concurrence {conc} at purity {pur} (max {cmax:.6g})"
        )
    return float(np.sqrt(max(0.0, wu_steering_margin(conc, pur))))
