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
module exposes the forward map ``A``, its adjoint ``A*``, the normalized Gram
operator ``R = A* A / (nu^2 d L)`` and its truncated variant.

Offset-block form: with ``z_m[a] = Z[a, a+m mod d]`` and the real (L, d)
blocks ``E_m[l, a] = eps_{l,a} eps_{l,a+m}``,

    tr(F_{k,l} Z) = sum_m omega^{mk} (E_m z_m)[l].

Every matrix these maps meet is Hermitian, and so is every quantity on the
lifted side: offset d - m is the mirror Z[a+m, a] = conj(Z[a, a+m]) of offset
m, and E_{d-m}[l, a+m] = E_m[l, a].  So the one representation of the frame
is its half-offset stack, the h = floor(d/2) + 1 blocks E_0..E_{d/2}
(``MeasurementFrame.blocks``, ``_offset_blocks``), and every map works on
offsets 0..h-1 and fills or sums the rest from the mirror:

* ``A`` contracts the h offsets, s[m, l] = (E_m z_m)[l]; as s_{d-m} =
  conj(s_m), the sum over all d offsets is one real inverse FFT of the half
  spectrum (``_apply_A_any``).
* ``A(Z) = y`` splits into the systems ``E_m z_m = t_m``, t the per-mask
  inverse DFT of y, whose bins 0..h-1 are one real FFT (``_per_offset``);
  as ``||Z||_F^2 = sum_m ||z_m||^2``, least squares splits the same way, and
  offset d - m's system is the mirror of offset m's.
* ``A*`` takes real coefficients, transforms them once against half the DFT
  rows, contracts the h offsets and fills the rest by the mirror gather
  ``_mirror_fill`` (``_apply_A_adjoint_any``).

The m = 0 block holds the patterns ``eps^2``: two equal columns there are
exactly a mask collision (``e_a`` and ``e_b`` measure alike), the lower-bound
argument.  At even d, offset d/2 pairs a with a + d/2 and back, so its block
has equal columns a and a + d/2 and is its own mirror.  A rank-2 tangent
element Q = x z* + z x* needs no blocks at all: tr(F_{k,l} Q) = 2 Re(u_lk
conj(v_lk)) with u and v the masked spectra of x and z, one real product with
the DFT matrix (``_apply_A_rank2``).

The composition ``A* A`` acts on each offset alone: offset m of
``A*(A(Z))`` is ``d E_m^T E_m z_m``, so with the real d x d offset Grams
``H_m = E_m^T E_m``,

    ||A(Z)||^2 = d sum_m z_m^* H_m z_m = d sum_m ||E_m z_m||^2,
    R(Z)_m = H_m z_m / (nu^2 L).

The second form is Parseval over the frequencies k, with no Gram formed.
Every second-order quantity of the frame (the tangent-restricted spectrum,
the probe energies of the injectivity check) is read off these d Grams.  The
exact enumeration in ``certify`` accumulates their average over every mask
realization, offset by offset and chunk by chunk, without a block stack.

The Grams come in shifted pairs: ``E_{-m}[l, a+m] = eps_{l,a+m} eps_{l,a} =
E_m[l, a]``, so ``H_{-m}[a+m, b+m] = H_m[a, b]`` (indices mod d).  The h
blocks take a product each and the other offsets are a gather
(``_offset_gram``).

Mask entries are drawn i.i.d. from a finite distribution with the moment
profile E[eps] = E[eps^3] = 0, E[eps^4] = 2 E[eps^2]^2, |eps| <= b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .hermitian import as_hermitian, as_signal
from .policy import POLICY, _check_level

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
    "dft2_vector",
    "sample_masks",
    "measure",
    "apply_A",
    "apply_A_adjoint",
    "apply_R",
    "apply_R_truncated",
    "crt_relabeling",
    "crt_frequency",
]


@dataclass(frozen=True)
class MomentReport:
    """Exact moments E[eps^p], p = 1..4, and the per-condition verdicts."""

    moments: tuple[float, float, float, float]
    conditions: dict[str, bool]
    ok: bool


def validate_moments(support, probabilities=None) -> MomentReport:
    """Check the mask moment profile in exact rational arithmetic.

    Accepts either a MaskDistribution or raw (support, probabilities)
    sequences — the latter admits deliberately invalid distributions (for
    example plain Rademacher, which fails the fourth-moment condition and can
    therefore never be constructed as a MaskDistribution).
    """
    if isinstance(support, MaskDistribution):
        dist = support
        support, probabilities = dist.support, dist.probabilities
    if probabilities is None:
        raise ValueError("probabilities required when support is a raw sequence")
    if len(support) != len(probabilities) or not len(support):
        raise ValueError("support and probabilities must be nonempty and equal-length")
    probs = [Fraction(p) for p in probabilities]
    vals = [Fraction(v) for v in support]
    moments = tuple(
        float(sum(p * v**k for p, v in zip(probs, vals))) for k in range(1, 5)
    )
    tol = POLICY.moment_tol
    conditions = {
        "probabilities_normalized": abs(float(sum(probs)) - 1.0) <= tol
        and all(p >= 0 for p in probs),
        "mean_zero": abs(moments[0]) <= tol,
        "variance_positive": moments[1] > tol,
        "third_moment_zero": abs(moments[2]) <= tol,
        "fourth_moment_condition": abs(moments[3] - 2.0 * moments[1] ** 2) <= tol,
    }
    return MomentReport(moments=moments, conditions=conditions, ok=all(conditions.values()))


@dataclass(frozen=True)
class MaskDistribution:
    """Finite real distribution for mask entries, moment-validated.

    The constructor runs ``validate_moments`` (exact rational arithmetic over
    the binary float values: E[eps] = E[eps^3] = 0 and E[eps^4] =
    2 E[eps^2]^2 within 1e-12, probabilities normalized) and raises on any
    failed condition; it also checks that all support values are bounded by
    ``b`` and that the declared variance ``nu`` matches E[eps^2] > 0.
    """

    support: tuple[float, ...]
    probabilities: tuple[float, ...]
    b: float
    nu: float
    name: str = "custom"

    def __post_init__(self):
        report = validate_moments(self.support, self.probabilities)
        failed = [name for name, ok in report.conditions.items() if not ok]
        if failed:
            raise ValueError("mask moment conditions violated: " + ", ".join(failed))
        tol = POLICY.moment_tol
        if any(abs(s) > self.b + tol for s in self.support):
            raise ValueError(f"support value exceeds bound b = {self.b}")
        nu = report.moments[1]
        if abs(self.nu - nu) > tol:
            raise ValueError(f"declared nu = {self.nu} does not match E[eps^2] = {nu}")
        if self.nu > self.b**2 + tol:
            raise ValueError("nu must not exceed b^2")

    def moment(self, p: int) -> float:
        """E[eps^p], evaluated exactly over the float representations."""
        acc = Fraction(0)
        for s, w in zip(self.support, self.probabilities):
            acc += Fraction(w) * Fraction(s) ** p
        return float(acc)


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
    return round(8.0 + math.log2(dist.b**2 / dist.nu), 12)


@dataclass(frozen=True, eq=False)
class MaskSet:
    """L sampled diagonal masks, stored as a read-only (L, d) copy of the raw entries."""

    epsilon: np.ndarray
    distribution: MaskDistribution
    seed: int | None = None

    def __post_init__(self):
        eps = np.array(self.epsilon, dtype=float)  # a copy: the caller's array stays its own
        if eps.ndim != 2 or eps.shape[1] < 1:
            raise ValueError(f"epsilon must be (L, d) with d >= 1, got {eps.shape}")
        gaps = np.full(eps.shape, np.inf)  # distance to the nearest support value
        diff = np.empty_like(eps)
        for value in self.distribution.support:
            np.abs(np.subtract(eps, value, out=diff), out=diff)
            np.minimum(gaps, diff, out=gaps)
        if not np.max(gaps, initial=0.0) <= POLICY.moment_tol:  # NaN fails too
            raise ValueError("mask entries must lie in the distribution's support")
        eps.setflags(write=False)
        object.__setattr__(self, "epsilon", eps)

    @property
    def L(self) -> int:
        return self.epsilon.shape[0]

    @property
    def d(self) -> int:
        return self.epsilon.shape[1]

    def save(self, path) -> None:
        """Write a text serialization; floats via repr so round-trips are exact."""
        dist = self.distribution
        lines = [
            "# cdplift maskset v1",
            f"d={self.d}",
            f"L={self.L}",
            f"seed={self.seed if self.seed is not None else 'none'}",
            f"name={dist.name}",
            "support=" + ",".join(repr(float(v)) for v in dist.support),
            "probabilities=" + ",".join(repr(float(v)) for v in dist.probabilities),
            f"b={float(dist.b)!r}",
            f"nu={float(dist.nu)!r}",
        ]
        for row in self.epsilon:
            lines.append(" ".join(repr(float(v)) for v in row))
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "MaskSet":
        text = Path(path).read_text().splitlines()
        if not text or text[0].strip() != "# cdplift maskset v1":
            raise ValueError("not a cdplift maskset file")
        header: dict[str, str] = {}
        for line in text[1:]:
            if "=" in line:
                key, _, value = line.partition("=")
                header[key.strip()] = value.strip()
        required = {"d", "L", "seed", "name", "support", "probabilities", "b", "nu"}
        missing = required - header.keys()
        if missing:
            raise ValueError(f"maskset header missing keys: {sorted(missing)}")
        d, L = int(header["d"]), int(header["L"])
        dist = MaskDistribution(
            support=tuple(float(v) for v in header["support"].split(",")),
            probabilities=tuple(float(v) for v in header["probabilities"].split(",")),
            b=float(header["b"]),
            nu=float(header["nu"]),
            name=header["name"],
        )
        seed = None if header["seed"] == "none" else int(header["seed"])
        rows = [line for line in text[1:] if "=" not in line and line.strip()]
        if len(rows) != L:
            raise ValueError(f"expected {L} mask rows, found {len(rows)}")
        eps = (
            np.array([[float(v) for v in row.split()] for row in rows], dtype=float)
            if L
            else np.zeros((0, d))
        )
        if eps.size and eps.shape != (L, d):
            raise ValueError("mask row length inconsistent with header")
        return cls(epsilon=eps, distribution=dist, seed=seed)


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
    if d < 1 or L < 1:
        raise ValueError("d and L must be >= 1")
    eps = _draw_entries(dist, np.random.default_rng(seed), (L, d))
    return MaskSet(epsilon=eps, distribution=dist, seed=seed)


@dataclass(frozen=True, eq=False)
class MeasurementFrame:
    """The lifted measurement maps attached to one sampled mask set."""

    masks: MaskSet

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
    """Observed intensities y_{k,l}, stored read-only as y[l, k-1] (a copy of the
    caller's array); optionally y0 = ||x||^2, a finite real number >= 0."""

    y: np.ndarray
    y0: float | None = None

    def __post_init__(self):
        y = np.array(self.y, dtype=float)  # a copy: the caller's array stays its own
        if y.ndim != 2:
            raise ValueError(f"y must be (L, d), got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("intensities must be finite")
        if y.size and float(y.min()) < -POLICY.hermitian_tol:
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

    def to_csv(self, path) -> None:
        lines = []
        if self.y0 is not None:
            lines.append(f"# y0={float(self.y0)!r}")
        lines.append("l,k,y")
        for l in range(self.L):
            for k in range(self.d):
                lines.append(f"{l + 1},{k + 1},{float(self.y[l, k])!r}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "MeasurementVector":
        """Read ``to_csv`` output; every (l, k) row must appear exactly once."""
        lines = Path(path).read_text().splitlines()
        y0 = None
        rows = []
        for line in lines:
            if line.startswith("# y0="):
                y0 = float(line[len("# y0=") :])
            elif line and not line.startswith("#") and line != "l,k,y":
                l, k, v = line.split(",")
                rows.append((int(l), int(k), float(v)))
        if not rows:
            raise ValueError("empty measurement CSV")
        L = max(r[0] for r in rows)
        d = max(r[1] for r in rows)
        cells = {(l, k) for l, k, _ in rows}
        if len(cells) != len(rows):
            raise ValueError("measurement CSV repeats an (l, k) row")
        if cells != {(l, k) for l in range(1, L + 1) for k in range(1, d + 1)}:
            raise ValueError(f"measurement CSV must hold every row l = 1..{L}, k = 1..{d}")
        y = np.zeros((L, d))
        for l, k, v in rows:
            y[l - 1, k - 1] = v
        return cls(y=y, y0=y0)


def dft_vector(d: int, k: int) -> np.ndarray:
    """The k-th (unnormalized) DFT vector, entries omega^{jk} for j = 1..d.

    Every entry has unit modulus and ||f_k||^2 = d; k = d gives the all-ones
    vector.  Exponents are reduced mod d before exponentiation so entries are
    accurate to a few ulp even for large k*d.
    """
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in 1..{d}, got {k}")
    exponents = (k * np.arange(1, d + 1)) % d
    return np.exp(2j * np.pi * exponents / d)


def dft2_vector(d1: int, d2: int, k: int, l: int) -> np.ndarray:
    """2-D DFT basis vector f_{k,l}, flattened row-major over positions (i, j)."""
    return np.kron(dft_vector(d1, k), dft_vector(d2, l))


def measure(x, masks: MaskSet) -> MeasurementVector:
    """Diffraction intensities |<f_k, D_l x>|^2 via one FFT per mask.

    Raises if the per-mask Parseval identity sum_k y_{k,l} = d ||D_l x||^2
    fails beyond roundoff — that would indicate a broken FFT convention, not
    bad data.
    """
    x = as_signal(x)
    if x.size != masks.d:
        raise ValueError(f"signal dimension {x.size} != mask dimension {masks.d}")
    modulated = masks.epsilon * x[None, :]
    spectra = np.fft.fft(modulated, axis=1)
    y = np.roll(np.abs(spectra) ** 2, -1, axis=1)
    sums = y.sum(axis=1)
    targets = masks.d * np.sum(np.abs(modulated) ** 2, axis=1)
    scale = max(float(targets.max(initial=0.0)), 1.0)
    if y.size and float(np.max(np.abs(sums - targets))) > POLICY.adjoint_rel_tol * scale:
        raise RuntimeError("per-mask Parseval identity violated beyond tolerance")
    return MeasurementVector(y=y, y0=float(np.linalg.norm(x)) ** 2)


@lru_cache(maxsize=None)
def _offset_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pair with Z[idx][m, a] = Z[a, a+m mod d] = z_m[a]; read-only."""
    a = np.arange(d)
    idx = (a[None, :], (a[:, None] + a[None, :]) % d)
    for part in idx:
        part.setflags(write=False)
    return idx


def _half_offsets(Z: np.ndarray) -> np.ndarray:
    """The offset vectors z_m[a] = Z[a, a+m mod d] of m = 0..d//2, (d//2 + 1, d)."""
    d = Z.shape[0]
    rows, cols = _offset_index(d)
    return Z[rows, cols[: d // 2 + 1]]


def _offset_blocks(epsilon: np.ndarray) -> np.ndarray:
    """The real blocks E_m[l, a] = eps_{l,a} eps_{l,a+m} of offsets m = 0..d//2,
    stacked as (d//2 + 1, L, d).

    The product is formed in one buffer: the gather of the partner columns
    a+m is a fresh (offsets, d, L) array, multiplied in place by the
    columns, so ``epsilon`` is never written.
    """
    d = epsilon.shape[1]
    columns = np.ascontiguousarray(epsilon.T)  # whole-column gathers are cheap
    product = columns[_offset_index(d)[1][: d // 2 + 1]]
    product *= columns
    return product.transpose(0, 2, 1)


@lru_cache(maxsize=None)
def _shift_index(d: int) -> np.ndarray:
    """Flat index with half.ravel()[idx][m, a, b] = H_m[a, b] for the stacked
    Grams half = H_0..H_{d//2}; read-only.

    Offset m > d/2 reads H_{d-m}[a+m, b+m] (indices mod d).
    """
    m = np.arange(d)[:, None, None]
    a = np.arange(d)
    shift = np.where(m > d // 2, m, 0)
    rows = (a[None, :, None] + shift) % d
    cols = (a[None, None, :] + shift) % d
    idx = (np.minimum(m, d - m) * d + rows) * d + cols
    idx.setflags(write=False)
    return idx


def _offset_gram(blocks: np.ndarray) -> np.ndarray:
    """H_m = E_m^T E_m for every offset m = 0..d-1, a real (d, d, d) array,
    from the half stack of ``_offset_blocks`` (d is its last axis).

    The h blocks take a product each; the other offsets follow from
    H_{-m}[a+m, b+m] = H_m[a, b], a gather through ``_shift_index``.
    """
    d = blocks.shape[-1]
    return (blocks.transpose(0, 2, 1) @ blocks).ravel()[_shift_index(d)]


def _per_offset(C: np.ndarray) -> np.ndarray:
    """t of shape (d//2 + 1, L) for real C, with C[l, k-1] = sum_m omega^{mk}
    t[m, l] over all d offsets and t[d-m] = conj(t[m]).

    The inverse of the forward map's FFT step: A(Z) = y reads E_m z_m = t_m.
    """
    return np.fft.rfft(np.roll(C, 1, axis=1), axis=1, norm="forward").T


def _contract(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """blocks[m] @ v[m], reading complex v as float pairs so blocks stay real."""
    pairs = np.ascontiguousarray(v, dtype=complex).view(float).reshape(*v.shape, 2)
    return (blocks @ pairs).view(complex)[..., 0]


def _apply_A_any(blocks: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """tr(F_{k,l} Z) for Hermitian Z, returned as a real (L, d) array.

    ``blocks`` is _offset_blocks of the masks, which may be any raw batch.
    With s[m, l] = (E_m z_m)[l], tr(F_{k,l} Z) = sum_m omega^{mk} s[m, l],
    and s[d-m] = conj(s[m]), so the h = d//2 + 1 contracted offsets are the
    half spectrum of one real inverse FFT.
    """
    s = _contract(blocks, _half_offsets(np.asarray(Z, dtype=complex)))
    return np.roll(np.fft.irfft(s, n=Z.shape[0], axis=0, norm="forward"), -1, axis=0).T


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


@lru_cache(maxsize=None)
def _dft_matrix(d: int) -> np.ndarray:
    """W[j, k-1] = omega^{-jk} (j = 0..d-1, k = 1..d); read-only.

    (eps_l * v) @ W is the row FFT of eps_l * v in ``measure``'s column
    order, bin k mod d at column k - 1, and C @ W[m] is d t_m for the
    coefficients C[l, k-1] of ``_per_offset``.
    """
    j = np.arange(d)
    W = np.exp(-2j * np.pi * ((j[:, None] * (j + 1)) % d) / d)
    W.setflags(write=False)
    return W


def _apply_A_adjoint_any(blocks: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sum_{k,l} C[l,k] F_{k,l} for real coefficients C of shape (L, d), a
    Hermitian (d, d) matrix.

    Offset m of the result is d E_m^T t_m with t = _per_offset(C).  Real C
    gives t_{d-m} = conj(t_m), and with E_{d-m}[l, a+m] = E_m[l, a] offset
    d - m is the mirror Z[a+m, a] = conj(Z[a, a+m]) of offset m.  So only
    offsets m = 0..d//2 are transformed, d t_m = C @ W[m] (``_dft_matrix``)
    as one real product, and contracted with the half stack ``blocks``; the
    rest is the gather of ``_mirror_fill``.
    """
    L, d = C.shape
    h = d // 2 + 1
    rows = _dft_matrix(d)[:h]
    # rows 2m and 2m + 1 of t2 are the real and imaginary parts of d t_m
    t2 = np.concatenate([rows.real, rows.imag], axis=1).reshape(2 * h, d) @ C.T
    parts = t2.reshape(h, 2, L) @ blocks  # Re and Im of d E_m^T t_m
    return _mirror_fill(parts[:, 0] + 1j * parts[:, 1])


def _apply_A_rank2(epsilon: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """tr(F_{k,l} Q) for Q = x z* + z x*, a real (L, d) array.

    With u = D_l f_k, tr(F_{k,l} Q) = u*Q u = 2 Re((u*x) conj(u*z)), and u*x,
    u*z are the masked spectra of x and z up to one common phase.  Both come
    from one real product of the masks with the real and imaginary parts of
    x W and z W (``_dft_matrix``), taken as (4d, L) so that the products that
    follow run over contiguous rows; the result is the transposed view of a
    (d, L) array.  Every tangent element at x x* has this form
    (``golfing_construct`` reads z off Q), so its dL forward values take
    O(d^2 L) work and no offset blocks.
    """
    d = x.size
    W = _dft_matrix(d)
    xW, zW = x[:, None] * W, z[:, None] * W
    spectra = np.concatenate([xW.real, xW.imag, zW.real, zW.imag], axis=1).T @ epsilon.T
    products = np.multiply(spectra[: 2 * d], spectra[2 * d :], out=spectra[: 2 * d])
    vals = np.add(products[:d], products[d:], out=spectra[:d])
    vals *= 2.0
    return vals.T


def _truncate(anchor_vals: np.ndarray, anchor_norm: float, b: float, gamma: float) -> np.ndarray:
    """Keep mask of |tr(F_{k,l} anchor)| <= 2^{3/2} b^2 gamma log(d) ||anchor||_2
    (boundary kept), from the anchor's real (L, d) forward values and its
    Frobenius norm.
    """
    d = anchor_vals.shape[1]
    threshold = 2.0**1.5 * b**2 * gamma * math.log(d) * anchor_norm
    return np.abs(anchor_vals) <= threshold


def apply_A(frame: MeasurementFrame, Z) -> np.ndarray:
    """Forward lifted map: the real vector (tr(F_{k,l} Z))_{k,l}, length dL.

    Flattened row-major over (l, k): entry l*d + (k-1).  For Z = x x* this
    reproduces measure(x, masks) entrywise.
    """
    Z = as_hermitian(Z)
    if Z.shape[0] != frame.d:
        raise ValueError(f"matrix dimension {Z.shape[0]} != frame dimension {frame.d}")
    return _apply_A_any(frame.blocks, Z).reshape(-1)


def apply_A_adjoint(frame: MeasurementFrame, c) -> np.ndarray:
    """Adjoint lifted map: sum_{k,l} c_{k,l} F_{k,l}, a Hermitian matrix.

    The coefficients must be real and finite: complex ones (whose imaginary
    part the map would drop) and NaN or inf raise ValueError.
    """
    c = np.asarray(c)
    if np.iscomplexobj(c):
        raise ValueError("coefficients must be real")
    c = c.astype(float, copy=False)
    if c.shape != (frame.L * frame.d,):
        raise ValueError(f"coefficient length {c.shape} != ({frame.L * frame.d},)")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    return _apply_A_adjoint_any(frame.blocks, c.reshape(frame.L, frame.d))


def apply_R(frame: MeasurementFrame, Z) -> np.ndarray:
    """Normalized Gram operator R(Z) = A*(A(Z)) / (nu^2 d L).

    An empty frame (L = 0) maps everything to zero by convention.
    """
    Z = as_hermitian(Z)
    if frame.L == 0:
        return np.zeros_like(Z)
    scale = 1.0 / (frame.distribution.nu**2 * frame.d * frame.L)
    return apply_A_adjoint(frame, apply_A(frame, Z)) * scale


def apply_R_truncated(
    frame: MeasurementFrame, Z, anchor_Z, gamma: float
) -> tuple[np.ndarray, int]:
    """Truncated Gram operator R_anchor(Z) and the number of dropped terms.

    Each (k, l) term is kept only on the event
    |tr(F_{k,l} anchor_Z)| <= 2^{3/2} b^2 gamma log(d) ||anchor_Z||_2, with
    the boundary counting as inside (kept).  The anchor must lie in a tangent
    space, i.e. have rank <= 2 up to the policy tolerance.
    """
    if not gamma >= 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    Z = as_hermitian(Z)
    anchor_Z = as_hermitian(anchor_Z)
    if Z.shape[0] != frame.d or anchor_Z.shape[0] != frame.d:
        raise ValueError("dimension mismatch with frame")
    sigma = np.linalg.svd(anchor_Z, compute_uv=False)
    if sigma.size > 2 and sigma[2] > POLICY.rank_rel_tol * max(sigma[0], 1e-300):
        raise ValueError("anchor matrix must have rank <= 2 (lie in a tangent space)")
    if frame.L == 0:
        return np.zeros_like(Z), 0
    dist = frame.distribution
    anchor_vals = _apply_A_any(frame.blocks, anchor_Z)
    keep = _truncate(anchor_vals, float(np.linalg.norm(anchor_Z)), dist.b, gamma)
    coeffs = _apply_A_any(frame.blocks, Z) * keep
    scale = 1.0 / (dist.nu**2 * frame.d * frame.L)
    out = _apply_A_adjoint_any(frame.blocks, coeffs) * scale
    return out, int(keep.size - keep.sum())


def _crt_combine(r1: int, d1: int, r2: int, d2: int) -> int:
    """The unique n mod d1*d2 with n = r1 (mod d1), n = r2 (mod d2)."""
    inv = pow(d2 % d1, -1, d1) if d1 > 1 else 0
    return (r2 + d2 * ((r1 - r2) * inv % d1)) % (d1 * d2)


def crt_relabeling(d1: int, d2: int) -> np.ndarray:
    """Position permutation aligning the 2-D DFT basis with the 1-D one.

    Returns a 0-based permutation p of length d1*d2 such that for every
    frequency pair (k, l),

        dft2_vector(d1, d2, k, l) == dft_vector(d1*d2, m)[p]

    with m = crt_frequency(d1, d2, k, l).  Entry p[(i-1)*d2 + (j-1)] is n-1
    for the unique n in 1..d1*d2 with n = i (mod d1) and n = j (mod d2).
    Requires gcd(d1, d2) = 1; otherwise no such relabeling exists.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError("dimensions must be positive")
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
    if math.gcd(d1, d2) != 1:
        raise ValueError(f"dimensions must be coprime, gcd({d1}, {d2}) != 1")
    if not (1 <= k <= d1 and 1 <= l <= d2):
        raise ValueError("frequency indices out of range")
    m = _crt_combine((k * d2) % d1, d1, (l * d1) % d2, d2)
    return m if m != 0 else d1 * d2
