"""Coded diffraction patterns: masks, measurements, and the lifted linear maps.

The measurement model: a signal ``x`` in C^d is modulated entrywise by a
random diagonal mask ``D_l = diag(eps_{l, .})`` and the squared magnitudes of
its (unnormalized) DFT are recorded,

    y_{k, l} = |<f_k, D_l x>|^2,     k = 1..d,  l = 1..L,

where ``f_k`` has entries ``omega^{jk}`` (``omega = exp(2 pi i / d)``,
``j = 1..d``) so that ``f_d`` is the all-ones vector and ``||f_k||^2 = d``.
The inner product is conjugate-linear in the first argument, which makes
``<f_k, z>`` a plain forward DFT bin of ``z``.

On the lifted (matrix) side the same data is ``tr(F_{k,l} X)`` for
``X = x x*`` with rank-1 frame elements ``F_{k,l} = D_l f_k f_k* D_l``.  This
module exposes the forward map ``A``, its adjoint ``A*`` and the normalized
Gram operator ``R = A* A / (nu^2 d L)``.  A frame holds L >= 1 masks of
dimension d >= 1, and a measurement L >= 1 rows of d >= 1 intensities.

Offset-block form: with ``z_m[a] = Z[a, a+m mod d]`` and the real (L, d)
blocks ``E_m[l, a] = eps_{l,a} eps_{l,a+m}``,

    tr(F_{k,l} Z) = sum_m omega^{mk} (E_m z_m)[l].

Every matrix these maps meet is Hermitian, and so is every quantity on the
lifted side: offset d - m is the mirror Z[a+m, a] = conj(Z[a, a+m]) of offset
m, and E_{d-m}[l, a+m] = E_m[l, a].  So the one representation of the frame
is its half-offset stack, the h = floor(d/2) + 1 blocks E_0..E_{d/2}
(``MeasurementFrame.blocks``, ``_offset_blocks``), and every map works on
offsets 0..h-1 and fills or sums the rest from the mirror.  Each transform
between offsets and frequencies is one real product with the half rows
W[0..h-1] of the DFT matrix ``_dft_matrix``, the one place of the frequency
convention:

* ``A`` contracts the h offsets, s[m, l] = (E_m z_m)[l], and sums them with
  their mirrors s_{d-m} = conj(s_m) (``_apply_A_any``).
* ``A(Z) = y`` splits into the systems ``E_m z_m = t_m``, t the per-mask
  inverse DFT of y (``_per_offset``); as ``||Z||_F^2 = sum_m ||z_m||^2``,
  least squares splits the same way, and offset d - m's system is the mirror
  of offset m's.
* ``A*`` takes real coefficients to t, contracts the h offsets and fills the
  rest by the mirror gather ``_mirror_fill`` (``_apply_A_adjoint_any``).

The m = 0 block holds the patterns ``eps^2``: two equal columns there are
exactly a mask collision (``e_a`` and ``e_b`` measure alike), the lower-bound
argument.  At even d, offset d/2 pairs a with a + d/2 and back, so its block
has equal columns a and a + d/2 and is its own mirror.  The intensities of a
signal need no blocks at all: y_{k,l} = |u_lk|^2 with u the masked spectrum
of x, one real product with the DFT matrix (``measure``).

The composition ``A* A`` acts on each offset alone: offset m of
``A*(A(Z))`` is ``d E_m^T E_m z_m``, so with the real d x d offset Grams
``H_m = E_m^T E_m``,

    ||A(Z)||^2 = d sum_m z_m^* H_m z_m = d sum_m ||E_m z_m||^2,
    R(Z)_m = H_m z_m / (nu^2 L).

The second form is Parseval over the frequencies k, with no Gram formed.
The Grams come in shifted pairs, ``H_{-m}[a+m, b+m] = H_m[a, b]`` (indices
mod d), so for Hermitian Z the term of offset d - m is the conjugate of
offset m's.  Only the h Grams H_0..H_{d/2} are formed (``_offset_gram``),
and a sum over all d offsets is the half sum weighted 1 at offset 0 and at
the self-mirrored d/2, and 2 elsewhere (``_mirror_weights``).  Every
second-order quantity of the frame (the tangent-restricted spectrum, the
probe energies of the injectivity check) is read off these h Grams.  The
exact enumeration in ``certify`` accumulates their average over every mask
realization, offset by offset and chunk by chunk, without a block stack.

Mask entries are drawn i.i.d. from a finite distribution with the moment
profile E[eps] = E[eps^3] = 0, E[eps^4] = 2 E[eps^2]^2, |eps| <= b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .hermitian import as_hermitian, as_signal
from .policy import INTENSITY_TOL, MOMENT_TOL, PARSEVAL_REL_TOL, _check_count, _check_level
from .policy import _check_seed, _check_type, _is_int, _real_array

__all__ = [
    "MomentReport",
    "validate_moments",
    "MaskDistribution",
    "MaskSet",
    "MeasurementFrame",
    "MeasurementVector",
    "ternary_mask_distribution",
    "truncation_rate",
    "dft_vector",
    "sample_masks",
    "measure",
    "apply_A",
    "apply_A_adjoint",
    "apply_R",
    "crt_relabeling",
    "crt_frequency",
]


@dataclass(frozen=True)
class MomentReport:
    """Exact moments E[eps^p], p = 1..4, and the per-condition verdicts."""

    moments: tuple[float, float, float, float]
    conditions: dict[str, bool]
    ok: bool


def _exact_moment(support, probabilities, p: int) -> Fraction:
    """E[eps^p] in exact rational arithmetic over the values' float representations."""
    return sum(Fraction(w) * Fraction(s) ** p for s, w in zip(support, probabilities))


def validate_moments(support, probabilities=None) -> MomentReport:
    """Check the mask moment profile in exact rational arithmetic.

    Accepts either a MaskDistribution or raw (support, probabilities)
    sequences — the latter admits deliberately invalid distributions (for
    example plain Rademacher, which fails the fourth-moment condition and can
    therefore never be constructed as a MaskDistribution).  Non-finite
    support or probability values raise ValueError naming them.
    """
    if isinstance(support, MaskDistribution):
        dist = support
        support, probabilities = dist.support, dist.probabilities
    if probabilities is None:
        raise ValueError("probabilities required when support is a raw sequence")
    if len(support) != len(probabilities) or not len(support):
        raise ValueError("support and probabilities must be nonempty and equal-length")
    for key, values in (("support", support), ("probabilities", probabilities)):
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{key} must be finite, got {tuple(values)!r}")
    total, *moments = (float(_exact_moment(support, probabilities, k)) for k in range(5))
    tol = MOMENT_TOL
    conditions = {
        "probabilities_normalized": abs(total - 1.0) <= tol
        and all(p >= 0 for p in probabilities),
        "mean_zero": abs(moments[0]) <= tol,
        "variance_positive": moments[1] > tol,
        "third_moment_zero": abs(moments[2]) <= tol,
        "fourth_moment_condition": abs(moments[3] - 2.0 * moments[1] ** 2) <= tol,
    }
    return MomentReport(tuple(moments), conditions, all(conditions.values()))


@dataclass(frozen=True)
class MaskDistribution:
    """Finite real distribution for mask entries, moment-validated.

    The constructor runs ``validate_moments`` (exact rational arithmetic over
    the binary float values: E[eps] = E[eps^3] = 0 and E[eps^4] =
    2 E[eps^2]^2 within 1e-12, probabilities normalized) and raises on any
    failed condition; it also checks that ``b`` and ``nu`` are finite real
    numbers >= 0, that all support values are bounded by ``b`` and that the
    declared variance ``nu`` matches E[eps^2] > 0.
    """

    support: tuple[float, ...]
    probabilities: tuple[float, ...]
    b: float
    nu: float
    name: str = "custom"

    def __post_init__(self):
        _check_level("b", self.b)
        _check_level("nu", self.nu)
        report = validate_moments(self.support, self.probabilities)
        failed = [name for name, ok in report.conditions.items() if not ok]
        if failed:
            raise ValueError("mask moment conditions violated: " + ", ".join(failed))
        tol = MOMENT_TOL
        if any(abs(s) > self.b + tol for s in self.support):
            raise ValueError(f"support value exceeds bound b = {self.b}")
        nu = report.moments[1]
        if abs(self.nu - nu) > tol:
            raise ValueError(f"declared nu = {self.nu} does not match E[eps^2] = {nu}")
        if self.nu > self.b**2 + tol:
            raise ValueError("nu must not exceed b^2")

    def moment(self, p: int) -> float:
        """E[eps^p], evaluated exactly over the float representations."""
        return float(_exact_moment(self.support, self.probabilities, p))


def ternary_mask_distribution() -> MaskDistribution:
    """The {+sqrt(2), 0, -sqrt(2)} mask with probabilities {1/4, 1/2, 1/4}.

    A Rademacher vector with random erasures, scaled so nu = E[eps^2] = 1;
    b = sqrt(2) and the truncation rate works out to 9.
    """
    s = math.sqrt(2.0)
    return MaskDistribution(
        support=(s, 0.0, -s),
        probabilities=(0.25, 0.5, 0.25),
        b=s,
        nu=1.0,
        name="ternary",
    )


def truncation_rate(dist: MaskDistribution) -> float:
    """Default truncation rate gamma = 8 + log2(b^2 / nu).

    Rounded at the 12th decimal so that analytically integer rates (e.g. the
    ternary distribution's 9) come out exact despite b being stored as a
    float square root.
    """
    _check_type("dist", dist, MaskDistribution)
    return round(8.0 + math.log2(dist.b**2 / dist.nu), 12)


@dataclass(frozen=True, eq=False)
class MaskSet:
    """L >= 1 sampled diagonal masks of dimension d >= 1, stored as a read-only
    (L, d) float copy of the raw entries, which must be real."""

    epsilon: np.ndarray
    distribution: MaskDistribution

    def __post_init__(self):
        eps = _real_array("epsilon", self.epsilon)  # a copy: the caller's array stays its own
        if eps.ndim != 2 or min(eps.shape) < 1:
            raise ValueError(f"epsilon must be (L, d) with L, d >= 1, got {eps.shape}")
        support = self.distribution.support
        exact = eps == support[0]
        for value in support[1:]:
            exact |= eps == value
        if not exact.all():  # measure the distance only where membership is not exact
            rest = eps[~exact]
            gaps = np.full(rest.shape, np.inf)  # distance to the nearest support value
            for value in support:
                np.minimum(gaps, np.abs(rest - value), out=gaps)
            if not np.max(gaps) <= MOMENT_TOL:  # NaN fails too
                raise ValueError("mask entries must lie in the distribution's support")
        eps.setflags(write=False)
        object.__setattr__(self, "epsilon", eps)

    @property
    def L(self) -> int:
        return self.epsilon.shape[0]

    @property
    def d(self) -> int:
        return self.epsilon.shape[1]


def _draw_entries(dist: MaskDistribution, rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. mask entries of the given shape, bit for bit ``rng.choice(support,
    size=shape, p=probabilities)``.

    ``Generator.choice`` draws u = rng.random(shape) and takes the support
    value at the number of cdf entries <= u, with cdf = cumsum(p) /
    cumsum(p)[-1]; counting against the inner cdf values (u < 1 = cdf[-1])
    replaces its searchsorted.
    """
    cdf = np.cumsum(dist.probabilities)
    cdf /= cdf[-1]
    u = rng.random(shape)
    index = np.zeros(u.shape, dtype=np.intp)
    for threshold in cdf[:-1]:
        index += u >= threshold
    return np.asarray(dist.support)[index]


def sample_masks(dist: MaskDistribution, d: int, L: int, seed: int) -> MaskSet:
    """Draw an (L, d) i.i.d. mask set; deterministic for a given seed."""
    _check_type("dist", dist, MaskDistribution)
    _check_count("d", d)
    _check_count("L", L)
    _check_seed(seed)
    eps = _draw_entries(dist, np.random.default_rng(seed), (L, d))
    return MaskSet(epsilon=eps, distribution=dist)


@dataclass(frozen=True, eq=False)
class MeasurementFrame:
    """The lifted measurement maps attached to one sampled mask set."""

    masks: MaskSet

    def __post_init__(self):
        _check_type("masks", self.masks, MaskSet)

    @property
    def distribution(self) -> MaskDistribution:
        return self.masks.distribution

    @property
    def d(self) -> int:
        return self.masks.d

    @property
    def L(self) -> int:
        return self.masks.L

    @cached_property
    def blocks(self) -> np.ndarray:
        """The offset blocks E_0..E_{d//2} of the masks, (d//2 + 1, L, d),
        built on first use; the other offsets are their mirrors."""
        blocks = _offset_blocks(self.masks.epsilon)
        blocks.setflags(write=False)
        return blocks

    @classmethod
    def sample(cls, dist: MaskDistribution, d: int, L: int, seed: int) -> "MeasurementFrame":
        return cls(masks=sample_masks(dist, d, L, seed))


@dataclass(frozen=True, eq=False)
class MeasurementVector:
    """Observed intensities y_{k,l}, stored read-only as y[l, k-1] (a float copy
    of the caller's real (L, d) array, L, d >= 1); optionally y0 = ||x||^2, a
    finite real number >= 0."""

    y: np.ndarray
    y0: float | None = None

    def __post_init__(self):
        y = _real_array("y", self.y)  # a copy: the caller's array stays its own
        if y.ndim != 2 or min(y.shape) < 1:
            raise ValueError(f"y must be (L, d) with L, d >= 1, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("intensities must be finite")
        if float(y.min()) < -INTENSITY_TOL:
            raise ValueError("intensities must be nonnegative up to roundoff")
        if self.y0 is not None:
            _check_level("y0", self.y0)
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def L(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.y.shape[1]

    def ravel(self) -> np.ndarray:
        """Flat copy in row-major (l, k) order, matching apply_A."""
        return self.y.reshape(-1).copy()


def dft_vector(d: int, k: int) -> np.ndarray:
    """The k-th (unnormalized) DFT vector, entries omega^{jk} for j = 1..d.

    Every entry has unit modulus and ||f_k||^2 = d; k = d gives the all-ones
    vector.  Exponents are reduced mod d before exponentiation so entries are
    accurate to a few ulp even for large k*d.
    """
    _check_count("d", d)
    if not (_is_int(k) and 1 <= k <= d):
        raise ValueError(f"k must be an integer in 1..{d}, got {k!r}")
    exponents = (k * np.arange(1, d + 1)) % d
    return np.exp(2j * np.pi * exponents / d)


def measure(x, masks: MaskSet) -> MeasurementVector:
    """Diffraction intensities |<f_k, D_l x>|^2.

    The masked spectra come from one real product of the masks with the real
    and imaginary parts of x W (``_dft_matrix``), taken as (2d, L) so that the
    squares that follow run over contiguous rows.  Raises if the per-mask
    Parseval identity sum_k y_{k,l} = d ||D_l x||^2 fails beyond roundoff —
    that would indicate a broken DFT convention, not bad data.
    """
    x = as_signal(x)
    _check_type("masks", masks, MaskSet)
    d = masks.d
    if x.size != d:
        raise ValueError(f"signal dimension {x.size} != mask dimension {d}")
    xW = x[:, None] * _dft_matrix(d)
    spectra = np.concatenate([xW.real, xW.imag], axis=1).T @ masks.epsilon.T
    np.square(spectra, out=spectra)
    y = np.add(spectra[:d], spectra[d:], out=spectra[:d]).T
    targets = d * (np.square(masks.epsilon) @ np.square(np.abs(x)))
    scale = max(float(targets.max()), 1.0)
    if float(np.max(np.abs(y.sum(axis=1) - targets))) > PARSEVAL_REL_TOL * scale:
        raise RuntimeError("per-mask Parseval identity violated beyond tolerance")
    return MeasurementVector(y=y, y0=float(np.linalg.norm(x)) ** 2)


@lru_cache(maxsize=None)
def _offset_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pair with Z[idx][m, a] = Z[a, a+m mod d] = z_m[a], m = 0..d//2; read-only."""
    a = np.arange(d)
    idx = (a[None, :], (a[: d // 2 + 1, None] + a) % d)
    for part in idx:
        part.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _mirror_weights(d: int) -> np.ndarray:
    """How many of the d offsets each of offsets 0..d//2 stands for in a sum
    of a mirror-invariant quantity: 1 at offset 0 and at the self-mirrored
    d/2 of even d, 2 elsewhere; read-only."""
    m = np.arange(d // 2 + 1)
    w = np.where(2 * m % d == 0, 1.0, 2.0)  # offset m is its own mirror iff 2m = 0 mod d
    w.setflags(write=False)
    return w


def _half_offsets(Z: np.ndarray) -> np.ndarray:
    """The offset vectors z_m[a] = Z[a, a+m mod d] of m = 0..d//2, (d//2 + 1, d)."""
    return Z[_offset_index(Z.shape[0])]


def _offset_blocks(epsilon: np.ndarray) -> np.ndarray:
    """The real blocks E_m[l, a] = eps_{l,a} eps_{l,a+m} of offsets m = 0..d//2,
    stacked as (d//2 + 1, L, d).

    The product is formed in one buffer: the gather of the partner columns
    a+m is a fresh (offsets, d, L) array, multiplied in place by the
    columns, so ``epsilon`` is never written.
    """
    columns = np.ascontiguousarray(epsilon.T)  # whole-column gathers are cheap
    product = columns[_offset_index(epsilon.shape[1])[1]]
    product *= columns
    return product.transpose(0, 2, 1)


def _offset_gram(blocks: np.ndarray) -> np.ndarray:
    """H_m = E_m^T E_m for each real (L, d) block of a stack (k, L, d), a real
    (k, d, d) array: offsets m = 0..d//2 from the half stack of
    ``_offset_blocks``, or any run of them, such as the patterns eps^2 alone.

    Each product is one BLAS gemm of E_m^T with a copy of E_m in E_m's own
    memory order.  numpy sends a product of a buffer with its own transpose to
    syrk, which forms half the entries but is slower than gemm for tall
    blocks: the 8 Grams of a d = 15 frame of 2,800 masks take about 715 us by
    syrk and 525 us by gemm (one BLAS thread).  Every real Gram of mask
    blocks is formed here or, in an enumeration that never holds a block
    stack, by the same rule (``certify._moment_grams``).  The solver's block
    Grams are not: their blocks have at most a few dozen rows, where one
    batched product beats a loop of gemms.
    """
    d = blocks.shape[-1]
    out = np.empty((len(blocks), d, d))
    for E, H in zip(blocks, out):
        np.matmul(E.T, np.copy(E), out=H)  # np.copy keeps E's order
    return out


@lru_cache(maxsize=None)
def _dft_matrix(d: int) -> np.ndarray:
    """W[j, k-1] = omega^{-jk} (j = 0..d-1, k = 1..d); read-only.

    The one place of the frequency convention, bin k mod d at column k - 1:
    (eps_l * v) @ W is the masked spectrum <f_k, D_l v> of v, and C @ W[m]
    is d t_m for the coefficients C[l, k-1] of ``_per_offset``.
    """
    j = np.arange(d)
    W = np.exp(-2j * np.pi * ((j[:, None] * (j + 1)) % d) / d)
    W.setflags(write=False)
    return W


@lru_cache(maxsize=None)
def _half_dft_rows(d: int) -> np.ndarray:
    """Rows W[0..d//2] of ``_dft_matrix``, row 2m Re W[m], 2m + 1 Im W[m]; read-only."""
    rows = _dft_matrix(d)[: d // 2 + 1]
    stack = np.stack([rows.real, rows.imag], axis=1).reshape(-1, d)
    stack.setflags(write=False)
    return stack


def _per_offset(C: np.ndarray) -> np.ndarray:
    """Re and Im of d t_m, (d//2 + 1, 2, L), for real C of shape (L, d) with
    C[l, k-1] = sum_m omega^{mk} t[m, l] over all d offsets, t[d-m] = conj(t[m]):
    d t_m = C @ W[m], one real product with ``_half_dft_rows``.  A(Z) = y reads
    E_m z_m = t_m, and offset m of A*(C) is d E_m^T t_m."""
    return (_half_dft_rows(C.shape[1]) @ C.T).reshape(-1, 2, len(C))


def _contract(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """blocks[m] @ v[m], reading complex v as float pairs so blocks stay real."""
    pairs = np.ascontiguousarray(v, dtype=complex).view(float).reshape(*v.shape, 2)
    return (blocks @ pairs).view(complex)[..., 0]


def _apply_A_any(blocks: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """tr(F_{k,l} Z) for Hermitian Z, returned as a real (L, d) array.

    ``blocks`` is _offset_blocks of the masks, which may be any raw batch.
    With s[m, l] = (E_m z_m)[l], tr(F_{k,l} Z) = sum_m omega^{mk} s[m, l],
    and s[d-m] = conj(s[m]), so the sum is the real product of the h = d//2 + 1
    contracted offsets, weighted by ``_mirror_weights``, with ``_half_dft_rows``.
    """
    s = _contract(blocks, _half_offsets(np.asarray(Z, dtype=complex)))
    s *= _mirror_weights(len(Z))[:, None]  # each half offset stands for its mirror too
    return np.ascontiguousarray(s.T).view(float) @ _half_dft_rows(len(Z))


@lru_cache(maxsize=None)
def _mirror_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat index and conj mask with Z.ravel() = half.ravel()[idx], conjugated
    where the mask is set, for the offset vectors half[m, a] = Z[a, a+m] of
    offsets 0..d//2 of a Hermitian Z; read-only.

    Entry (i, j) on offset m = j - i mod d is read directly when m < d - m,
    and as the mirror conj(Z[j, i]) from offset d - m when m > d - m.  The
    self-mirrored offset m = d/2 of even d is read directly for i < j and
    mirrored for i > j, so the result is Hermitian entry for entry.
    """
    i, j = np.divmod(np.arange(d * d), d)
    m = (j - i) % d
    mirror = (m > d - m) | ((m == d - m) & (i > j))
    idx = np.where(mirror, (d - m) * d + j, m * d + i)
    for part in (idx, mirror):
        part.setflags(write=False)
    return idx, mirror


def _mirror_fill(half: np.ndarray) -> np.ndarray:
    """The Hermitian (..., d, d) matrices whose offset vectors 0..d//2 are
    ``half`` (..., d//2 + 1, d), Hermitian entry for entry (``_mirror_index``)."""
    *batch, _, d = half.shape
    idx, mirror = _mirror_index(d)
    out = half.reshape(*batch, -1)[..., idx]
    np.conjugate(out, out=out, where=mirror)
    return out.reshape(*batch, d, d)


def _apply_A_adjoint_any(blocks: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sum_{k,l} C[l,k] F_{k,l} for real coefficients C of shape (L, d), a
    Hermitian (d, d) matrix.

    Offset m of the result is d E_m^T t_m with t = _per_offset(C).  Real C
    gives t_{d-m} = conj(t_m), and with E_{d-m}[l, a+m] = E_m[l, a] offset
    d - m is the mirror Z[a+m, a] = conj(Z[a, a+m]) of offset m: only offsets
    0..d//2 are contracted with ``blocks``, the rest is ``_mirror_fill``'s gather.
    """
    parts = _per_offset(C) @ blocks  # Re and Im of d E_m^T t_m
    return _mirror_fill(parts[:, 0] + 1j * parts[:, 1])


def apply_A(frame: MeasurementFrame, Z) -> np.ndarray:
    """Forward lifted map: the real vector (tr(F_{k,l} Z))_{k,l}, length dL.

    Flattened row-major over (l, k): entry l*d + (k-1).  For Z = x x* this
    reproduces measure(x, masks) entrywise.
    """
    _check_type("frame", frame, MeasurementFrame)
    Z = as_hermitian(Z)
    if Z.shape[0] != frame.d:
        raise ValueError(f"matrix dimension {Z.shape[0]} != frame dimension {frame.d}")
    return _apply_A_any(frame.blocks, Z).reshape(-1)


def apply_A_adjoint(frame: MeasurementFrame, c) -> np.ndarray:
    """Adjoint lifted map: sum_{k,l} c_{k,l} F_{k,l}, a Hermitian matrix.

    The coefficients c must be finite real numbers: complex ones (whose imaginary
    part the map would drop), bool, string, NaN or inf ones raise ValueError.
    """
    _check_type("frame", frame, MeasurementFrame)
    c = _real_array("coefficients c", c)
    if c.shape != (frame.L * frame.d,):
        raise ValueError(f"coefficient length {c.shape} != ({frame.L * frame.d},)")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    return _apply_A_adjoint_any(frame.blocks, c.reshape(frame.L, frame.d))


def apply_R(frame: MeasurementFrame, Z) -> np.ndarray:
    """Normalized Gram operator R(Z) = A*(A(Z)) / (nu^2 d L)."""
    image = apply_A_adjoint(frame, apply_A(frame, Z))  # both check their arguments
    return image * (1.0 / (frame.distribution.nu**2 * frame.d * frame.L))


def _crt_combine(r1: int, d1: int, r2: int, d2: int) -> int:
    """The unique n mod d1*d2 with n = r1 (mod d1), n = r2 (mod d2)."""
    inv = pow(d2 % d1, -1, d1) if d1 > 1 else 0
    return (r2 + d2 * ((r1 - r2) * inv % d1)) % (d1 * d2)


def crt_relabeling(d1: int, d2: int) -> np.ndarray:
    """Position permutation aligning the 2-D DFT basis with the 1-D one.

    Returns a 0-based permutation p of length d1*d2 such that for every
    frequency pair (k, l) the 2-D DFT basis vector f_{k,l} = kron(f_k, f_l),
    flattened row-major over positions (i, j), satisfies

        kron(dft_vector(d1, k), dft_vector(d2, l)) == dft_vector(d1*d2, m)[p]

    with m = crt_frequency(d1, d2, k, l).  Entry p[(i-1)*d2 + (j-1)] is n-1
    for the unique n in 1..d1*d2 with n = i (mod d1) and n = j (mod d2).
    Requires gcd(d1, d2) = 1; otherwise no such relabeling exists.
    """
    _check_count("d1", d1)
    _check_count("d2", d2)
    if math.gcd(d1, d2) != 1:
        raise ValueError(f"dimensions must be coprime, gcd({d1}, {d2}) != 1")
    D = d1 * d2
    p = np.empty(D, dtype=np.int64)
    for i in range(1, d1 + 1):
        for j in range(1, d2 + 1):
            n = _crt_combine(i % d1, d1, j % d2, d2)
            p[(i - 1) * d2 + (j - 1)] = (n - 1) % D
    return p


def crt_frequency(d1: int, d2: int, k: int, l: int) -> int:
    """1-D frequency (in 1..d1*d2) matching the 2-D basis vector f_{k,l}."""
    _check_count("d1", d1)
    _check_count("d2", d2)
    if math.gcd(d1, d2) != 1:
        raise ValueError(f"dimensions must be coprime, gcd({d1}, {d2}) != 1")
    for key, value, size in (("k", k, d1), ("l", l, d2)):
        if not (_is_int(value) and 1 <= value <= size):
            raise ValueError(f"{key} must be an integer in 1..{size}, got {value!r}")
    m = _crt_combine((k * d2) % d1, d1, (l * d1) % d2, d2)
    return m if m != 0 else d1 * d2
