"""Two-qubit state types, the damping Kraus constructor and seeded samplers.

Sampling is counter-based (stream versions 3 to 10 draw the same values).
Each (seed, domain) pair keys one Philox4x64 generator; domains keep state
draws, Haar unitaries and sweep parameters apart.  Record i of a domain
owns a fixed block of 9 counter steps (36 uint64 words) starting at counter
step 9 i, so record i is reproducible without generating records 0..i-1,
and a chunk of records is one ``random_raw`` call whose output does not
depend on how the plan is chunked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelIncomplete,
    IndexOutOfRange,
    NotHermitian,
    NotNormalized,
    NotPSD,
    ParameterOutOfRange,
    TraceNotOne,
    ValidationError,
)

# every tolerance of the package, each with what it bounds
HERM_TOL = 1e-10  # max |m - m^dag| entry of a density matrix
TRACE_TOL = 1e-10  # |tr m - 1| of a density matrix
EIG_TOL = 1e-10  # how far below 0 a density matrix's least eigenvalue may lie
NORM_TOL = 1e-12  # | |a| - 1 | of a state vector
KRAUS_TOL = 1e-12  # max entry of sum_k K_k^dag K_k - I of a channel
SLACK = 1e-9  # how far S may pass a bound, or C the isotropic family's C_max
RANGE_TOL = 1e-12  # how far a (C, purity) pair may leave [0, 1] x [1/4, 1]
# how far below 0 the computed 2P - 1 (the purity gate) or F^2 - 1 (the F
# gate) of a state may lie and still have its concurrence measured for the
# bounds.  Wootters' tau (PRL 80, 2245 (1998)) has ||tau||_F^2 =
# tr(rho flip(rho)) = l1 + ... + l4, the flip eigenvalues, and the Pauli
# expansion rho = (I + a.sigma x I + I x b.sigma + sum T_ml sigma_m x
# sigma_l) / 4 gives tr(rho flip(rho)) = (1 - |a|^2 - |b|^2 + F^2) / 4 and
# P = (1 + |a|^2 + |b|^2 + F^2) / 4, so ||tau||_F^2 + P - 1 = (F^2 - 1) / 2.
# C <= s1(tau) <= ||tau||_F, so C^2 + P - 1 <= (F^2 - 1) / 2: S and the
# lower bound are 0 at F <= 1, and S^2 >= C^2 + P - 1 holds for every state.
# And 2P - 1 - (F^2 - 1) / 2 = (D_A^2 + D_B^2) / 2 >= 0, so a state at
# P <= 1/2 has F <= 1 and both bounds 0.  The computed C^2 and F^2 - 1 are
# within about 1e-14 of exact, so where the computed F^2 - 1 <= -GATE the
# computed C^2 + P - 1 is <= 0 too, and S and the lower bound come out +0.0
# whatever C; where the computed 2P - 1 <= -GATE the upper bound comes out
# +0.0 as well.
GATE = 1e-12

STREAM_VERSION = 10
DOMAIN_STATE = 1
DOMAIN_UNITARY = 2
DOMAIN_SWEEP = 3
BLOCK_STEPS = 9  # Philox counter steps owned by one record
BLOCK_WORDS = 4 * BLOCK_STEPS  # uint64 words per record
N_GAUSS = 16  # complex normals per record: words [0, 16) radii, [16, 32) angles
RANK_WORD = 32  # its top two bits pick the rank under ranks="uniform"

MAX_SEED = 2**64


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _raise_first(checks) -> None:
    """Raise for the first failing row of a stack.

    ``checks`` lists (mask, error) pairs in invariant order, at least one
    mask set: ``mask`` flags the rows that break the invariant and
    ``error(i)`` builds the exception for row i.  The lowest flagged row
    raises the error of its first broken invariant.
    """
    i = min(int(np.argmax(mask)) for mask, _ in checks if mask.any())
    for mask, error in checks:
        if mask[i]:
            raise error(i)


def _complex_array(a, what: str) -> np.ndarray:
    """``a`` as a complex128 array; ValidationError naming ``what`` when it
    holds anything but numbers: strings, a ragged nesting, or an integer
    past the float range."""
    try:
        arr = np.asarray(a)
        if arr.dtype.kind in "biufcO":
            return arr.astype(np.complex128, copy=False)
        reason = f"dtype {arr.dtype}"
    except (TypeError, ValueError, OverflowError) as exc:
        reason = str(exc)
    raise ValidationError(f"{what} must be an array of numbers ({reason})")


def _arrays(**values) -> list:
    """Each value as an array; ValidationError naming the first that is not
    one array of numbers, such as a ragged nesting."""
    for what, value in values.items():
        try:
            values[what] = np.asarray(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{what} must be an array of numbers ({exc})") from None
    return list(values.values())


def validate_amplitudes(a) -> np.ndarray:
    """Check an (n, 4) stack of state vectors; return it as complex128.

    Each row must be finite with norm 1 within NORM_TOL.  The first bad row
    raises ValidationError or NotNormalized, naming its index.
    """
    a = _complex_array(a, "amplitudes")
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValidationError(f"amplitudes must have shape (n, 4), got {a.shape}")
    with np.errstate(over="ignore"):  # an inf norm fails the check below
        dev = np.abs(np.sqrt((a * a.conj()).real.sum(axis=1)) - 1.0)
    if not (dev <= NORM_TOL).all():  # a non-finite row fails this too
        finite = np.isfinite(a).all(axis=1)
        _raise_first((
            (~finite, lambda i: ValidationError(
                f"amplitudes contain non-finite entries at index {i}")),
            (~(dev <= NORM_TOL), lambda i: NotNormalized(
                f"state vector norm deviates from 1 by {dev[i]:.3e} at index {i}")),
        ))
    return a


def validate_stack(m) -> tuple[np.ndarray, np.ndarray]:
    """Check an (n, 4, 4) stack of density matrices; return it as complex128
    with its (n, 4, 4) factors V sqrt(w), from one eigh of each matrix.

    Each matrix must be finite, Hermitian (max |m - m^dag| <= HERM_TOL), of
    trace 1 (|tr m - 1| <= TRACE_TOL) and positive semidefinite (least
    eigenvalue >= -EIG_TOL).  The first bad matrix raises ValidationError,
    NotHermitian, TraceNotOne or NotPSD for its first broken invariant, in
    that order, naming its index.
    """
    m = _complex_array(m, "matrices")
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValidationError(f"matrices must have shape (n, 4, 4), got {m.shape}")
    n = m.shape[0]
    mh = m.conj().transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        herm_dev = np.abs(m - mh).reshape(n, 16).max(axis=1)
        # the diagonal, every 5th entry, summed in quarters so that it does not overflow
        trace_dev = np.abs(4.0 * (m.reshape(n, 16)[:, ::5] / 4.0).sum(axis=1) - 1.0)
    # a non-finite entry, or finite ones that overflow, make herm_dev or
    # trace_dev inf or NaN, so such a matrix fails here
    cheap = (herm_dev <= HERM_TOL) & (trace_dev <= TRACE_TOL)
    # the spectrum of each Hermitian part, halved before the sum so that no
    # finite entry overflows; I/4 stands in for a matrix that already failed
    w, v = np.linalg.eigh(np.where(cheap[:, None, None], m / 2.0 + mh / 2.0, np.eye(4) / 4.0))
    wmin = w[:, 0]
    if cheap.all() and (wmin >= -EIG_TOL).all():
        return m, v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    finite = np.isfinite(m).all(axis=(1, 2))
    _raise_first((
        (~finite, lambda i: ValidationError(
            f"matrix contains non-finite entries at index {i}")),
        (~(herm_dev <= HERM_TOL), lambda i: NotHermitian(
            f"matrix is not Hermitian (max deviation {herm_dev[i]:.3e}) at index {i}")),
        (~(trace_dev <= TRACE_TOL), lambda i: TraceNotOne(
            f"trace deviates from 1 by {trace_dev[i]:.3e} at index {i}")),
        (~(wmin >= -EIG_TOL), lambda i: NotPSD(
            f"matrix is not positive semidefinite (min eigenvalue {wmin[i]:.3e}) "
            f"at index {i}")),
    ))


@dataclass(frozen=True)
class PureState:
    """Normalized two-qubit state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = _complex_array(self.amplitudes, "amplitudes")
        if a.shape != (4,):
            raise ValidationError(f"amplitudes must have shape (4,), got {a.shape}")
        validate_amplitudes(a[None])
        object.__setattr__(self, "amplitudes", _frozen(a))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated 4x4 density matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _complex_array(self.matrix, "matrix")
        if m.shape != (4, 4):
            raise ValidationError(f"matrix must have shape (4, 4), got {m.shape}")
        validate_stack(m[None])
        object.__setattr__(self, "matrix", _frozen(m))


def _is_int(x) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _outside(values: np.ndarray, lo: float, hi: float, strict: bool = False) -> np.ndarray:
    """Mask of the entries of ``values`` outside [lo, hi], or outside (lo, hi)
    when ``strict``.  A NaN is outside, and so is every entry of an array of
    strings, bools or objects."""
    if values.dtype.kind not in "iuf":
        return np.ones(values.shape, bool)
    if strict:
        return ~((values > lo) & (values < hi))
    return ~((values >= lo) & (values <= hi))


# how a range bound reads in an error message, where "{:g}" would not do
_BOUND_TEXT = {np.pi / 2.0: "pi/2"}


def _check_range(name: str, values, lo: float, hi: float, strict: bool = False) -> np.ndarray:
    """Return ``values`` as float64 if every entry is a real number in
    [lo, hi], or strictly inside (lo, hi) when ``strict``.

    Otherwise raise ValidationError for a ragged list, else ParameterOutOfRange
    naming the first bad entry, "at index i" in C order for an array.
    """
    (arr,) = _arrays(**{name: values})
    bad = _outside(arr, lo, hi, strict)
    if bad.any():
        lo_text, hi_text = (_BOUND_TEXT.get(b, f"{b:g}") for b in (lo, hi))
        box = f"strictly inside ({lo_text}, {hi_text})" if strict else f"in [{lo_text}, {hi_text}]"
        if arr.ndim == 0:
            raise ParameterOutOfRange(f"{name} must lie {box}, got {values!r}")
        i = int(np.argmax(bad.ravel()))
        raise ParameterOutOfRange(
            f"{name} must lie {box}, got {arr.ravel().tolist()[i]!r} at index {i}")
    return np.asarray(arr, np.float64)


def _check_broadcast(to=None, **shapes) -> None:
    """Raise ValidationError, naming each shape, unless the named shapes
    broadcast together and, where ``to`` names one of them, to its shape."""
    try:
        joint = np.broadcast_shapes(*shapes.values())
    except ValueError:
        joint = None
    if joint is None or (to is not None and joint != shapes[to]):
        named = " and ".join(f"{name} of shape {shape}" for name, shape in shapes.items())
        where = "together" if to is None else f"to {shapes[to]}"
        raise ValidationError(f"{named} do not broadcast {where}") from None


def _check_seed(seed) -> None:
    """Raise ParameterOutOfRange unless ``seed`` is an integer that fits a
    Philox key word."""
    if not (_is_int(seed) and 0 <= seed < MAX_SEED):
        raise ParameterOutOfRange(f"seed must be a uint64, got {seed!r}")


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan: measure ("ginibre" only), rank policy,
    seed, count."""

    measure: str = "ginibre"
    ranks: int | str = "uniform"
    seed: int = 0
    count: int = 0

    def __post_init__(self):
        if self.measure != "ginibre":
            raise ParameterOutOfRange(f"measure must be 'ginibre', got {self.measure!r}; "
                                      "ranks=1 (--ranks 1) draws Haar-random pure states")
        if self.ranks != "uniform" and not (_is_int(self.ranks) and 1 <= self.ranks <= 4):
            raise ParameterOutOfRange(f"ranks must be 1..4 or 'uniform', got {self.ranks!r}")
        _check_seed(self.seed)
        if not (_is_int(self.count) and self.count >= 0):
            raise ParameterOutOfRange(f"count must be a non-negative integer, got {self.count!r}")


def bell_like_amplitudes(thetas) -> np.ndarray:
    """cos(theta)|00> + sin(theta)|11> for each theta strictly inside
    (0, pi/2): an (n, 4) stack for n thetas, one (4,) vector for a number."""
    thetas = _check_range("theta", thetas, 0.0, np.pi / 2.0, strict=True)
    a = np.zeros(thetas.shape + (4,), np.complex128)
    a[..., 0] = np.cos(thetas)
    a[..., 3] = np.sin(thetas)
    return a


def bell_like(theta: float) -> PureState:
    """cos(theta)|00> + sin(theta)|11>, theta strictly inside (0, pi/2)."""
    return PureState(bell_like_amplitudes(theta))


def density_from_pure(psi: PureState) -> DensityMatrix:
    """|psi><psi|, the state of the factor psi."""
    return DensityMatrix(gram(psi.amplitudes[None, :, None])[0])


def werner_factors(ps, amps) -> np.ndarray:
    """(n, 4, 5) factors [sqrt(p) phi, sqrt((1 - p)/4) I], whose states are
    p |phi><phi| + (1 - p) I/4, for each row phi of the (n, 4) stack
    ``amps``, with one p for all rows or one per row."""
    ps = _check_range("p", ps, 0.0, 1.0)
    a = validate_amplitudes(amps)
    _check_broadcast("vectors", p=ps.shape, vectors=a.shape[:1])
    x = np.empty((a.shape[0], 4, 5), np.complex128)
    x[:, :, 0] = np.sqrt(ps)[..., None] * a
    x[:, :, 1:] = np.sqrt((1.0 - ps) / 4.0)[..., None, None] * np.eye(4)
    return x


def werner_like(p: float, phi: PureState) -> DensityMatrix:
    """p |phi><phi| + (1 - p) I/4."""
    return DensityMatrix(gram(werner_factors([p], phi.amplitudes[None]))[0])


def _check_complete(k: np.ndarray) -> None:
    """Raise ChannelIncomplete, naming the first bad set "at index i" in a
    stack of sets, unless sum_k K_k^dag K_k = I to KRAUS_TOL for each Kraus
    set of the (..., n_ops, 2, 2) stack ``k``; an overflow fails, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        # entry (i, l) of sum_k K_k^dag K_k is sum over k and j of conj(K_k[j, i]) K_k[j, l]
        total = (k.conj()[..., None] * k[..., None, :]).sum(axis=(-4, -3))
        dev = np.abs(total - np.eye(2)).max(axis=(-2, -1))
    if not (dev <= KRAUS_TOL).all():
        i = int(np.argmax(~(dev <= KRAUS_TOL).ravel()))
        where = f" at index {i}" if dev.ndim else ""
        raise ChannelIncomplete(
            f"Kraus operators violate completeness by {dev.ravel()[i]:.3e}{where}")


def damping_operators(etas, row: int) -> np.ndarray:
    """The damping Kraus pair K0 = diag(1, sqrt(1-eta)), K1 = sqrt(eta)|row><1|
    of each eta in [0, 1]: an (n, 2, 2, 2) stack for n etas, one (2, 2, 2)
    pair for a number.  Row 0 damps the amplitude, row 1 the phase.

    The etas are range-checked, and completeness checked once over the whole
    stack; ``row`` must be the integer 0 or 1.
    """
    etas = _check_range("eta", etas, 0.0, 1.0)
    if not (_is_int(row) and row in (0, 1)):
        raise ParameterOutOfRange(f"row must be 0 or 1, got {row!r}")
    k = np.zeros(etas.shape + (2, 2, 2), np.complex128)
    k[..., 0, 0, 0] = 1.0
    k[..., 0, 1, 1] = np.sqrt(1.0 - etas)
    k[..., 1, row, 1] = np.sqrt(etas)
    _check_complete(k)
    return k


def _kraus_factors(amps, k: np.ndarray) -> np.ndarray:
    """(n, m, 4, n_ops) factors: column c of entry (i, j) is (K_c x I) a_i,
    for the Kraus operators K_c = k[j, c] of the (m, n_ops, 2, 2) stack ``k``,
    which the caller has checked for completeness, and row a_i of the (n, 4)
    stack ``amps``; its state is channel j applied to |a_i><a_i|."""
    a = validate_amplitudes(amps)
    # K x I for every operator at once: entry (2r + s, 2c + t) is K[r, c] I[s, t]
    ops = (k[:, :, :, None, :, None] * np.eye(2)[:, None, :]).reshape(k.shape[:2] + (4, 4))
    return (ops @ a[:, None, None, :, None])[..., 0].transpose(0, 1, 3, 2)


def apply_channel(rho: DensityMatrix, operators) -> DensityMatrix:
    """sum_k (K_k x I) rho (K_k x I)^dag: the channel of the Kraus operators
    K_k, an (n_ops, 2, 2) stack such as damping_operators(eta, row) or a
    tuple of 2x2 matrices, applied to qubit A.

    A stack of another shape, or one with a non-finite operator (named by
    its index), raises ValidationError; an incomplete one ChannelIncomplete.
    """
    k = _complex_array(operators, "operators")
    if k.ndim != 3 or k.shape[1:] != (2, 2) or not len(k):
        raise ValidationError(f"operators must be a non-empty (n_ops, 2, 2) stack, got {k.shape}")
    finite = np.isfinite(k).all(axis=(1, 2))
    if not finite.all():
        raise ValidationError(
            f"operators contain non-finite entries at index {int(np.argmin(finite))}")
    _check_complete(k)
    ops = [np.kron(op, np.eye(2)) for op in k]
    return DensityMatrix(sum(op @ rho.matrix @ op.conj().T for op in ops))


def stream_block(seed: int, domain: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start, 36) uint64 word blocks of records [start, stop)."""
    _check_seed(seed)
    if not (_is_int(start) and _is_int(stop)):
        raise ParameterOutOfRange(f"start and stop must be integers, got {start!r}, {stop!r}")
    if not 0 <= start <= stop:
        raise IndexOutOfRange(f"records [{start}, {stop}) need 0 <= start <= stop")
    bitgen = np.random.Philox(key=np.array([seed, domain], np.uint64))
    bitgen.advance(start * BLOCK_STEPS)
    return bitgen.random_raw((stop - start) * BLOCK_WORDS).reshape(-1, BLOCK_WORDS)


def open_uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in (0, 1] from the top 53 bits of each word; never 0."""
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _gaussians(radius_words: np.ndarray, angle_words: np.ndarray) -> np.ndarray:
    """Standard complex normals by Box-Muller, one from each radius word and
    the angle word at the same position of an equal-shaped array."""
    radius = np.sqrt(-2.0 * np.log(open_uniforms(radius_words)))
    angle = 2.0 * np.pi * open_uniforms(angle_words)
    z = np.empty(radius.shape, np.complex128)
    z.real = radius * np.cos(angle)
    z.imag = radius * np.sin(angle)
    return z


def gram(x) -> np.ndarray:
    """The (n, 4, 4) stack x x^dag of an (n, 4, m) stack of factors."""
    return x @ x.conj().transpose(0, 2, 1)


def draw_matrices(cfg: SamplerConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors and rank draws for records [start, stop), unvalidated.

    Record i is the state x x^dag of its factor x = G_k / ||G_k||_F, for the
    4x4 Ginibre matrix G of its block (row-major) with the columns from k on
    set to zero: an (n, 4, 4) stack.  Only the normals of the columns below
    k are drawn, from the radius and angle words of their entries; the
    columns from k on are +0.0.  At k = 1 it is a Haar-random pure state
    (Zyczkowski and Sommers, J. Phys. A 34, 7111 (2001)).
    """
    if not (_is_int(start) and _is_int(stop)):
        raise ParameterOutOfRange(f"start and stop must be integers, got {start!r}, {stop!r}")
    if not 0 <= start <= stop <= cfg.count:
        raise IndexOutOfRange(f"records [{start}, {stop}) outside [0, {cfg.count})")
    blocks = stream_block(cfg.seed, DOMAIN_STATE, start, stop)
    n = blocks.shape[0]
    if cfg.ranks == "uniform":
        ranks = 1 + (blocks[:, RANK_WORD] >> np.uint64(62)).astype(np.int64)
    else:
        ranks = np.full(n, cfg.ranks, np.int64)
    g = np.zeros((n, 4, 4), np.complex128)
    for k in np.flatnonzero(np.bincount(ranks)):  # the ranks present
        rows = np.flatnonzero(ranks == k)
        # the radius and angle words of the entries in columns below k
        words = blocks[rows, : 2 * N_GAUSS].reshape(-1, 2, 4, 4)[..., :k]
        g[rows, :, :k] = _gaussians(words[:, 0], words[:, 1])
    parts = g.view(np.float64).reshape(n, 32)  # re, im of each entry
    g /= np.sqrt(np.einsum("ij,ij->i", parts, parts))[:, None, None]
    return g, ranks


def random_state(cfg: SamplerConfig, index: int) -> DensityMatrix:
    """Record ``index`` of the sampling plan, deterministic in (seed, index)."""
    if not _is_int(index):
        raise ParameterOutOfRange(f"index must be an integer, got {index!r}")
    if not 0 <= index < cfg.count:
        raise IndexOutOfRange(f"index {index} outside [0, {cfg.count})")
    x, _ = draw_matrices(cfg, index, index + 1)
    return DensityMatrix(gram(x)[0])


def random_unitaries(seed: int, start: int, stop: int) -> np.ndarray:
    """Haar-distributed 4x4 unitaries for records [start, stop) of ``seed``."""
    blocks = stream_block(seed, DOMAIN_UNITARY, start, stop)
    z = _gaussians(blocks[:, :N_GAUSS], blocks[:, N_GAUSS : 2 * N_GAUSS]).reshape(-1, 4, 4)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def random_unitary(seed: int, index: int) -> np.ndarray:
    """Haar-distributed 4x4 unitary, deterministic in (seed, index)."""
    return random_unitaries(seed, index, index + 1)[0]


def state_to_json(rho: DensityMatrix) -> dict:
    """JSON-ready dict: {"dim": 4, "matrix": 4x4 rows of [re, im] pairs}."""
    m = rho.matrix
    return {
        "dim": 4,
        "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in m],
    }


def state_from_json(obj) -> DensityMatrix:
    """Parse and validate the state JSON format, naming the failed invariant."""
    if not isinstance(obj, dict):
        raise ValidationError("state file must contain a JSON object")
    if obj.get("dim") != 4:
        raise ValidationError(f"dim must be 4, got {obj.get('dim')!r}")
    rows = obj.get("matrix")
    if not isinstance(rows, list) or len(rows) != 4:
        raise ValidationError("matrix must be a list of 4 rows")
    m = np.zeros((4, 4), np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 4:
            raise ValidationError(f"matrix row {i} must be a list of 4 entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entry)
            ):
                raise ValidationError(f"matrix entry ({i}, {j}) must be a [re, im] pair")
            try:
                m[i, j] = complex(entry[0], entry[1])
            except OverflowError:  # an integer too large for a float
                raise ValidationError(
                    f"matrix entry ({i}, {j}) does not fit a float") from None
    return DensityMatrix(m)
