"""Scalar measures of a two-qubit state and the closed forms they obey.

Concurrence follows the spin-flip construction; the mixed-state eigenvalues
are taken from the Hermitian product sqrt(rho) * flip(rho) * sqrt(rho), never
from the non-Hermitian product directly.  Steerability is the three-setting
correlation-matrix criterion S = sqrt(max(0, F^2 - 1) / 2).

Every per-state scalar is read from one row of batch.measure_rows, so the
scalar functions, report() and the harness share a single route.  Raw arrays
are validated as a DensityMatrix first; an invalid one raises the
ValidationError that names the failed invariant.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import batch
from .errors import NotNormalized, NotRealizable, ParameterOutOfRange
from .states import DensityMatrix, PureState

CLASS_SEPARABLE = "separable-candidate"
CLASS_ENTANGLED = "entangled-unsteerable-by-F"
CLASS_STEERABLE = "steerable"


def _mat(rho) -> np.ndarray:
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    return rho.matrix


def _row(rho) -> np.ndarray:
    """The batch.measure_rows row of one state."""
    return batch.measure_rows(_mat(rho))[0]


def _vec(psi) -> np.ndarray:
    if isinstance(psi, PureState):
        return np.asarray(psi.amplitudes, dtype=np.complex128)
    a = np.asarray(psi, dtype=np.complex128)
    norm = float(np.sqrt((a * a.conj()).real.sum()))
    if abs(norm - 1.0) > 1e-12:
        raise NotNormalized(f"state vector norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return a


def spin_flip(rho) -> np.ndarray:
    """(sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)."""
    return batch.spin_flip_matrices(_mat(rho)[None])[0]


def concurrence_pure(psi) -> float:
    """|<psi|psi~>| with |psi~> = (sigma_y x sigma_y) conj(|psi>)."""
    a = _vec(psi)
    signs = np.array([-1.0, 1.0, 1.0, -1.0])
    tilde = signs * a[::-1].conj()
    return float(abs(np.vdot(a, tilde)))


def concurrence(rho) -> float:
    """max(0, 2 sqrt(lam_1) - sum_n sqrt(lam_n)), with lam the descending
    eigenvalues of rho * flip(rho)."""
    return float(_row(rho)[batch.COL_C])


def correlation_matrix(rho) -> np.ndarray:
    """T[m, n] = Re tr(rho (sigma_m x sigma_n)), a real 3x3 matrix."""
    m = _mat(rho)
    return np.einsum("ab,pba->p", m, batch.PAULI_PAIRS).real.reshape(3, 3)


def correlation_singular_values(rho) -> np.ndarray:
    """Descending singular values of the correlation matrix."""
    return _row(rho)[batch.COL_T1 : batch.COL_T3 + 1]


def f_value(rho) -> float:
    """Frobenius norm of the correlation matrix (= sqrt(t1^2+t2^2+t3^2))."""
    return float(_row(rho)[batch.COL_F])


def steerability(rho) -> float:
    """sqrt(max(0, F^2 - 1) / 2); positive iff the three-setting test fires."""
    return float(_row(rho)[batch.COL_S])


def purity(rho) -> float:
    """tr(rho^2)."""
    return float(_row(rho)[batch.COL_PURITY])


def first_order_coherence(rho_qubit) -> float:
    """Bloch-vector length sqrt(max(0, 2 tr(rho^2) - 1)) of a single qubit."""
    m = np.asarray(rho_qubit, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ParameterOutOfRange(f"expected a 2x2 matrix, got shape {m.shape}")
    p = float((m * m.conj()).real.sum())
    return float(np.sqrt(max(0.0, 2.0 * p - 1.0)))


def bound_lower(rho) -> float:
    """sqrt(max(0, C^2 + tr(rho^2) - 1)), a steerability lower bound."""
    return float(_row(rho)[batch.COL_LOWER])


def bound_upper(rho) -> float:
    """min(C, sqrt(max(0, 2 tr(rho^2) - 1))), a steerability upper bound."""
    return float(_row(rho)[batch.COL_UPPER])


class MeasureReport(NamedTuple):
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
    """Every scalar quantity for one state, from one batch.measure_rows row."""
    row = _row(rho)
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
        singular_values=tuple(float(x) for x in row[batch.COL_T1 : batch.COL_T3 + 1]),
        lam=tuple(float(x) for x in row[batch.COL_L1 : batch.COL_L4 + 1]),
        classification=_classify_from(float(row[batch.COL_C]), float(row[batch.COL_S])),
    )


def classify(rho) -> str:
    """'steerable' (S > 0), 'entangled-unsteerable-by-F' (C > 0, S = 0) or
    'separable-candidate' (C = 0)."""
    return report(rho).classification


class AdForms(NamedTuple):
    concurrence: float
    steerability: float
    purity: float


class PdForms(NamedTuple):
    concurrence: float
    steerability: float
    purity: float
    t_diagonal: tuple


class WuForms(NamedTuple):
    concurrence: float
    steerability: float
    f_value: float
    purity: float


def _check_theta_eta(theta: float, eta: float) -> None:
    if not 0.0 < theta < np.pi / 2.0:
        raise ParameterOutOfRange(f"theta must lie strictly inside (0, pi/2), got {theta}")
    if not 0.0 <= eta <= 1.0:
        raise ParameterOutOfRange(f"eta must lie in [0, 1], got {eta}")


def bad_closed_forms(theta: float, eta: float) -> AdForms:
    """Closed forms for a Bell-like state with one side amplitude-damped.

    C scales by sqrt(1-eta); purity is the squared Frobenius norm of the
    explicit damped matrix (entries cos^2, eta sin^2, (1-eta) sin^2 on the
    diagonal, sqrt(1-eta) sin cos in the corners); S saturates the lower
    bound sqrt(max(0, C^2 + purity - 1)).
    """
    _check_theta_eta(theta, eta)
    s2 = np.sin(theta) ** 2
    c2 = np.cos(theta) ** 2
    conc = float(np.sqrt(1.0 - eta) * np.sin(2.0 * theta))
    pur = float(c2 * c2 + s2 * s2 * ((1.0 - eta) ** 2 + eta * eta) + 2.0 * (1.0 - eta) * s2 * c2)
    steer = float(np.sqrt(max(0.0, conc * conc + pur - 1.0)))
    return AdForms(conc, steer, pur)


def bpd_closed_forms(theta: float, eta: float) -> PdForms:
    """Closed forms for a Bell-like state with one side phase-damped.

    S equals C exactly; the correlation matrix is diag(C, -C, 1).
    """
    _check_theta_eta(theta, eta)
    conc = float(np.sqrt(1.0 - eta) * np.sin(2.0 * theta))
    pur = float(1.0 - 0.5 * eta * np.sin(2.0 * theta) ** 2)
    return PdForms(conc, conc, pur, (conc, -conc, 1.0))


def wu_closed_forms(p: float, phi) -> WuForms:
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
    return WuForms(conc, steer, fval, pur)


def wu_steering_margin(conc: float, pur: float) -> float:
    """Signed argument x + Q^2 - 1 of the (C, purity) steering criterion."""
    p = np.sqrt(max(0.0, (4.0 * pur - 1.0) / 3.0))
    x = 0.5 * (1.0 + 2.0 * conc) * (1.0 - p)
    return float(x + conc * conc + pur - 1.0)


def wu_steerability_from_c_purity(conc: float, pur: float) -> float:
    """Steerability of the isotropic-mixture family from (C, purity) alone.

    Raises NotRealizable when no such state exists, i.e. when C exceeds
    max(0, (3p - 1)/2) for p = sqrt((4 purity - 1)/3).
    """
    if not 0.25 - 1e-12 <= pur <= 1.0 + 1e-12:
        raise NotRealizable(f"purity {pur} outside [1/4, 1]")
    if not -1e-12 <= conc <= 1.0 + 1e-12:
        raise NotRealizable(f"concurrence {conc} outside [0, 1]")
    p = np.sqrt(max(0.0, (4.0 * pur - 1.0) / 3.0))
    cmax = max(0.0, (3.0 * p - 1.0) / 2.0)
    if conc > cmax + 1e-9:
        raise NotRealizable(
            f"no state of this family has concurrence {conc} at purity {pur} (max {cmax:.6g})"
        )
    return float(np.sqrt(max(0.0, wu_steering_margin(conc, pur))))
