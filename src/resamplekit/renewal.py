"""Comparing two renewal processes: P{D_m > S_k} by resampling.

D_m sums m_X inter-renewal times of process X (degradation), S_k sums m_Y
of process Y (maintenance); with a failure threshold K one takes
m_Y = m_X - K, and Theta = P{D_{m_X} > S_{m_Y}} is the failure-absence
probability.  A resampling realization draws m_X values without replacement
from H_X and m_Y from H_Y and compares the sums.

The exact variance uses the per-block overlap counts alpha = (a_X, a_Y):
conditionally on sharing a_X X-values and a_Y Y-values, two realizations
decompose as common + fresh sums,

    C_com = D_com - S_com   (the shared part, a_X X's minus a_Y Y's)
    C_dif = S_dif - D_dif   (fresh maintenance minus fresh degradation)

and  mu11(alpha) = int F_dif(z | alpha)^2 dF_com(z | alpha),  with the
overlap law hypergeometric per block.  For normal inter-renewal times the
convolutions stay normal and everything is closed-form up to one
well-behaved quadrature; other distributions use a lattice kit whose
m-fold sums and differences come from one FFT per component.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._streams import (BLOCK, Lane, _count, block_streams, draw_distinct,
                       substreams)
from .coverage import _check_theta
from .distributions import KnownDistribution, normal
from .pairs import (AlphaPair, PairRow, VarianceReport, assemble_variance,
                    enumerate_pairs)
from .resampling import EstimateResult
from .samples import BlockLayout, InfeasibleLayoutError

__all__ = [
    "RenewalLayout", "RenewalPair", "NormalConvolutionKit",
    "GridConvolutionKit", "estimate_exceedance", "mu11_alpha",
    "exceedance_variance", "analytic_theta_normal", "plugin_baseline",
    "PluginReport",
]


@dataclass(frozen=True)
class RenewalLayout:
    """Sizes only: sample sizes and summand counts for both processes."""

    n_x: int
    m_x: int
    n_y: int
    m_y: int

    def __post_init__(self):
        _count(self.n_x, "n_X", 0)
        _count(self.n_y, "n_Y", 0)
        _summands(self.m_x, self.m_y)
        if self.n_x < 2 * self.m_x or self.n_y < 2 * self.m_y:
            raise InfeasibleLayoutError(
                f"need n_X >= 2 m_X and n_Y >= 2 m_Y, got "
                f"n_X={self.n_x}, m_X={self.m_x}, n_Y={self.n_y}, m_Y={self.m_y}")

    @property
    def threshold(self) -> int:
        """K in the failure-absence reading m_Y = m_X - K."""
        return self.m_x - self.m_y


@dataclass(frozen=True, eq=False)
class RenewalPair:
    """Data samples of both processes plus the summand counts."""

    h_x: np.ndarray
    h_y: np.ndarray
    m_x: int
    m_y: int

    def __post_init__(self):
        x = np.asarray(self.h_x, dtype=float)
        y = np.asarray(self.h_y, dtype=float)
        if x.ndim != 1 or x.size == 0 or y.ndim != 1 or y.size == 0:
            raise ValueError("h_x and h_y must be non-empty 1-d arrays")
        # validate sizes up front
        RenewalLayout(len(x), self.m_x, len(y), self.m_y)
        if np.any(x < 0) or np.any(y < 0):
            warnings.warn(
                "negative inter-renewal times: renewal-time semantics are "
                "nominal only", stacklevel=2)
        x = x.copy(); x.flags.writeable = False
        y = y.copy(); y.flags.writeable = False
        object.__setattr__(self, "h_x", x)
        object.__setattr__(self, "h_y", y)

    @classmethod
    def for_threshold(cls, h_x, h_y, m_x: int, k: int) -> "RenewalPair":
        """Build with m_Y = m_X - K."""
        if not 0 <= _count(k, "threshold K", 0) <= m_x:
            raise ValueError(f"threshold K must be in 0..m_X, got {k}")
        return cls(h_x, h_y, m_x, m_x - k)

    @property
    def layout(self) -> RenewalLayout:
        return RenewalLayout(len(self.h_x), self.m_x, len(self.h_y), self.m_y)


def _summands(m_x, m_y) -> tuple[int, int]:
    """The summand counts as integers: a bool or a non-integer raises
    TypeError, m_X below 1 or m_Y below 0 ValueError."""
    return _count(m_x, "m_X"), _count(m_y, "m_Y", 0)


def _overlap(kit, a_x, a_y) -> tuple[int, int]:
    """Overlap counts of ``kit`` checked as by :func:`_summands`, each
    within 0..m of its process."""
    a_x, a_y = _count(a_x, "a_X", 0), _count(a_y, "a_Y", 0)
    if a_x > kit.m_x or a_y > kit.m_y:
        raise ValueError(f"overlap ({a_x},{a_y}) outside "
                         f"[0,{kit.m_x}]x[0,{kit.m_y}]")
    return a_x, a_y


def _as_renewal_layout(obj) -> RenewalLayout:
    if isinstance(obj, RenewalLayout):
        return obj
    if isinstance(obj, RenewalPair):
        return obj.layout
    raise TypeError(f"expected RenewalPair or RenewalLayout, got {obj!r}")


def estimate_exceedance(pair: RenewalPair, r: int, seed: int,
                        keep_values: bool = False) -> EstimateResult:
    """Resampling estimate of Theta = P{sum of m_X X's > sum of m_Y Y's}.

    ``r`` must be an integer, not a bool (TypeError), of at least 1
    (ValueError)."""
    r = _count(r, "r")
    values = np.empty(r, dtype=float)
    n_x, n_y = len(pair.h_x), len(pair.h_y)
    for start, stop, rng in block_streams(r, seed, Lane.RENEWAL_ESTIMATE):
        rows = stop - start
        dx = pair.h_x[draw_distinct(rng, n_x, pair.m_x, rows)].sum(axis=1)
        # m_Y = 0 draws nothing and sums to 0
        sy = pair.h_y[draw_distinct(rng, n_y, pair.m_y, rows)].sum(axis=1)
        values[start:stop] = (dx > sy).astype(float)
    return EstimateResult.from_values(values, seed, keep_values)


# -- convolution kits -----------------------------------------------------

class NormalConvolutionKit:
    """Closed-form convolutions for normal inter-renewal times.

    Conditional on overlap alpha = (a_X, a_Y):
    C_com ~ N(a_X mu_X - a_Y mu_Y,  a_X s_X^2 + a_Y s_Y^2) and
    C_dif ~ N((m_Y - a_Y) mu_Y - (m_X - a_X) mu_X,
              (m_X - a_X) s_X^2 + (m_Y - a_Y) s_Y^2).
    Zero-variance cases degrade to point masses (step cdfs).
    """

    def __init__(self, mu_x: float, sigma_x: float, mu_y: float,
                 sigma_y: float, m_x: int, m_y: int):
        if sigma_x <= 0 or sigma_y <= 0:
            raise ValueError("component sigmas must be positive")
        self.m_x, self.m_y = _summands(m_x, m_y)
        self.mu_x, self.sigma_x = float(mu_x), float(sigma_x)
        self.mu_y, self.sigma_y = float(mu_y), float(sigma_y)

    def _com(self, a_x: int, a_y: int) -> tuple[float, float]:
        return (a_x * self.mu_x - a_y * self.mu_y,
                a_x * self.sigma_x ** 2 + a_y * self.sigma_y ** 2)

    def _dif(self, a_x: int, a_y: int) -> tuple[float, float]:
        fx, fy = self.m_x - a_x, self.m_y - a_y
        return (fy * self.mu_y - fx * self.mu_x,
                fx * self.sigma_x ** 2 + fy * self.sigma_y ** 2)

    def theta(self) -> float:
        """P{D_{m_X} > S_{m_Y}} in closed form."""
        mean = self.m_x * self.mu_x - self.m_y * self.mu_y
        var = self.m_x * self.sigma_x ** 2 + self.m_y * self.sigma_y ** 2
        return float(normal(mean, math.sqrt(var)).sf(0.0))

    def mu11(self, a_x: int, a_y: int) -> float:
        """int F_dif^2 dF_com for the given overlap counts."""
        a_x, a_y = _overlap(self, a_x, a_y)
        mc, vc = self._com(a_x, a_y)
        md, vd = self._dif(a_x, a_y)
        if vd == 0.0:
            # F_dif is a step at md: integrand is P{C_com >= md}
            if vc == 0.0:
                return 1.0 if mc >= md else 0.0
            return float(normal(mc, math.sqrt(vc)).sf(md))
        fdif = normal(md, math.sqrt(vd))
        if vc == 0.0:
            return float(fdif.cdf(mc)) ** 2
        fcom = normal(mc, math.sqrt(vc))
        from scipy import integrate  # loaded only for this mixed moment
        val, _ = integrate.quad(
            lambda z: fdif.cdf(z) ** 2 * fcom.pdf(z),
            -np.inf, np.inf, epsabs=1e-10, limit=200)
        return float(val)


_PAD_SD = 8.0


class GridConvolutionKit:
    """Lattice convolutions for arbitrary component distributions.

    Both components are discretized to one step h, ``points`` cells over
    the union of their ranges: cell masses are cdf differences, a support
    unbounded on a side is cut at mean +- ``_PAD_SD`` standard deviations
    and the tail mass folded into the end cell.  The kit keeps one real FFT
    per component pmf (L_X and L_Y cells), zero-padded to a power-of-two
    length N >= m_X (L_X - 1) + m_Y (L_Y - 1) + 1, so that no difference of
    at most m_X X's and m_Y Y's wraps around.  The law of a X's minus b Y's
    is then one inverse FFT of F_X^a conj(F_Y)^b rolled by b (L_Y - 1),
    and of a Y's minus b X's its mirror: the FFT evaluation of lattice
    convolution powers (Embrechts and Frei, Math. Methods Oper. Res. 2009).
    Accuracy is set by ``points``, an integer (not a bool) of at least 2.
    """

    def __init__(self, x_dist: KnownDistribution, y_dist: KnownDistribution,
                 m_x: int, m_y: int, points: int = 4096):
        self.m_x, self.m_y = _summands(m_x, m_y)
        points = _count(points, "points", 2)
        los, his = [], []
        for d in (x_dist, y_dist):
            lo, hi = d.support()
            if not math.isfinite(lo):
                lo = d.mean() - _PAD_SD * math.sqrt(d.var())
            if not math.isfinite(hi):
                hi = d.mean() + _PAD_SD * math.sqrt(d.var())
            los.append(lo)
            his.append(hi)
        # one shared step so that sums of either component stay on-lattice
        h = (max(his) - min(los)) / points
        self._h = h
        pmf_x, base_x = self._component(x_dist, los[0], his[0], h)
        pmf_y, base_y = self._component(y_dist, los[1], his[1], h)
        span = self.m_x * (len(pmf_x) - 1) + self.m_y * (len(pmf_y) - 1) + 1
        self._n = 1 << (span - 1).bit_length()
        # (spectrum, cells - 1, midpoint of the first cell) per component
        self._x = (np.fft.rfft(pmf_x, self._n), len(pmf_x) - 1, base_x)
        self._y = (np.fft.rfft(pmf_y, self._n), len(pmf_y) - 1, base_y)

    @staticmethod
    def _component(d, lo, hi, h):
        cells = max(2, int(math.ceil((hi - lo) / h)) + 1)
        edges = lo + h * np.arange(cells + 1)
        mass = np.diff(d.cdf(edges))
        mass[0] += float(d.cdf(edges[0]))
        mass[-1] += float(1.0 - d.cdf(edges[-1]))
        total = mass.sum()
        if total <= 0:
            raise ValueError("component distribution has no mass on the grid")
        # cell midpoints represent the lattice values
        return mass / total, lo + h / 2

    def _diff_pmf(self, pos, a, neg, b):
        """Lattice values and pmf of a draws of component ``pos`` minus b
        of component ``neg`` (each ``self._x`` or ``self._y``)."""
        (f_pos, top_pos, base_pos), (f_neg, top_neg, base_neg) = pos, neg
        shift = b * top_neg
        size = a * top_pos + shift + 1
        pmf = np.fft.irfft(f_pos ** a * np.conj(f_neg) ** b, self._n)
        lo = a * base_pos - (b * base_neg + self._h * shift)
        return lo + self._h * np.arange(size), np.roll(pmf, shift)[:size]

    def theta(self) -> float:
        values, pmf = self._diff_pmf(self._x, self.m_x, self._y, self.m_y)
        return float(pmf[values > 0].sum())

    def mu11(self, a_x: int, a_y: int) -> float:
        a_x, a_y = _overlap(self, a_x, a_y)
        # C_com = shared X sum - shared Y sum
        vc, pc = self._diff_pmf(self._x, a_x, self._y, a_y)
        # C_dif = fresh Y sum - fresh X sum
        vd, pd = self._diff_pmf(self._y, self.m_y - a_y,
                                self._x, self.m_x - a_x)
        cdf_d = np.cumsum(pd)
        # F_dif evaluated at the com lattice points
        pos = np.searchsorted(vd, vc + self._h * 0.5) - 1
        fvals = np.where(pos >= 0, cdf_d[np.clip(pos, 0, len(cdf_d) - 1)], 0.0)
        return float(np.dot(pc, fvals ** 2))


def analytic_theta_normal(mu_x, sigma_x, mu_y, sigma_y, m_x, m_y) -> float:
    """Closed-form Theta for normal components (ground truth in tests)."""
    return NormalConvolutionKit(mu_x, sigma_x, mu_y, sigma_y, m_x, m_y).theta()


def mu11_alpha(kit, alpha) -> float:
    """Mixed moment for an overlap pattern; ``alpha`` = (a_X, a_Y)."""
    counts = alpha.counts if isinstance(alpha, AlphaPair) else tuple(alpha)
    if len(counts) != 2:
        raise ValueError(f"alpha must have two entries (a_X, a_Y), got {counts}")
    return kit.mu11(*counts)


def exceedance_variance(pair, kit, r: int) -> VarianceReport:
    """Exact Var of the r-realization exceedance estimate.

    ``pair`` may be a RenewalPair or a RenewalLayout (only sizes are used;
    the moments come from the kit's distributions).  ``r`` is checked as
    by :func:`estimate_exceedance`.
    """
    lay = _as_renewal_layout(pair)
    r = _count(r, "r")
    if (kit.m_x, kit.m_y) != (lay.m_x, lay.m_y):
        raise ValueError(
            f"kit counts ({kit.m_x},{kit.m_y}) disagree with layout "
            f"({lay.m_x},{lay.m_y})")
    theta = kit.theta()
    if lay.m_y == 0:
        # empty maintenance sum: the indicator is constant 1
        row = PairRow(AlphaPair((lay.m_x,)), 1.0, 1.0, 0.0,
                      "convolution-kit")
        return VarianceReport(variance=0.0, variance_se=0.0, r=r, mu=1.0,
                              mu2=1.0, mu11=1.0, mode="generator",
                              rows=(row,))
    block_layout = BlockLayout(
        (tuple(range(1, lay.m_x + 1)),
         tuple(range(lay.m_x + 1, lay.m_x + lay.m_y + 1))),
        (lay.n_x, lay.n_y))
    # n >= 2m in both blocks: a row per (a_X, a_Y) in 0..m_X x 0..m_Y, less
    # any whose probability underflows to 0
    rows = [PairRow(pat, p, kit.mu11(*pat.counts), 0.0, "convolution-kit")
            for pat, p in enumerate_pairs(block_layout, "alpha") if p > 0.0]
    return assemble_variance(rows, r, theta, theta, 0.0, "generator")


@dataclass(frozen=True)
class PluginReport:
    """Monte-Carlo spread of the with-replacement (bootstrap) comparator."""

    theta: float
    estimate_mean: float
    variance: float
    bias: float
    mse: float
    mean_se: float
    replications: int
    r: int


def plugin_baseline(layout, x_dist: KnownDistribution,
                    y_dist: KnownDistribution, r: int, replications: int,
                    seed: int, theta: float | None = None) -> PluginReport:
    """Classical comparator: bootstrap the sums with replacement.

    Per replication fresh data is drawn from the generators, the estimate
    averages r with-replacement resamples of the two sums (each
    replication's draws come from its own substream; the sums of up to
    BLOCK // r replications are computed together), and Var/Bias/MSE
    are taken against the analytic Theta (computed from a normal kit when
    not supplied).  ``r`` and ``replications`` must be integers, not
    bools (TypeError), of at least 1 and 2 (ValueError), and a given
    ``theta`` a probability: finite and in [0, 1] (ValueError).
    """
    lay = _as_renewal_layout(layout)
    r = _count(r, "r")
    replications = _count(replications, "replications", 2)
    if theta is not None:
        _check_theta(theta)
    elif x_dist.family == "normal" and y_dist.family == "normal":
        theta = analytic_theta_normal(*x_dist.params, *y_dist.params,
                                      lay.m_x, lay.m_y)
    else:
        raise ValueError("pass theta= for non-normal generators")
    estimates = np.empty(replications)
    streams = substreams(seed, Lane.RENEWAL_PLUGIN, np.arange(replications))
    # each replication takes its draws from its own generator; the sums and
    # comparisons run over chunks of at most BLOCK resample rows
    step = max(1, BLOCK // r)
    for lo in range(0, replications, step):
        count = min(step, replications - lo)
        h_x = np.empty((count, lay.n_x))
        h_y = np.empty((count, lay.n_y))
        ix = np.empty((count, r, lay.m_x), dtype=np.int64)
        iy = np.empty((count, r, lay.m_y), dtype=np.int64)
        for i, rng in zip(range(count), streams):
            h_x[i] = x_dist.sample(rng, lay.n_x)
            h_y[i] = y_dist.sample(rng, lay.n_y)
            ix[i] = rng.integers(0, lay.n_x, size=(r, lay.m_x))
            if lay.m_y > 0:
                iy[i] = rng.integers(0, lay.n_y, size=(r, lay.m_y))
        sets = np.arange(count)[:, None, None]
        # m_Y = 0 draws nothing and sums to 0
        dx = h_x[sets, ix].sum(axis=-1)
        sy = h_y[sets, iy].sum(axis=-1)
        estimates[lo:lo + count] = (dx > sy).mean(axis=1)
    mean = float(estimates.mean())
    var = float(estimates.var(ddof=1))
    bias = mean - theta
    mse = float(np.mean((estimates - theta) ** 2))
    return PluginReport(theta=float(theta), estimate_mean=mean, variance=var,
                        bias=bias, mse=mse,
                        mean_se=float(math.sqrt(var / replications)),
                        replications=replications, r=r)
