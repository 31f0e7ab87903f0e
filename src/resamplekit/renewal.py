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
well-behaved quadrature; other distributions use a lattice (FFT) kit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._streams import (BLOCK, Lane, _count, block_streams, draw_distinct,
                       substreams)
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
        if self.m_x < 1 or self.m_y < 0:
            raise ValueError(
                f"need m_X >= 1 and m_Y >= 0, got {self.m_x}, {self.m_y}")
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
        if not 0 <= k <= m_x:
            raise ValueError(f"threshold K must be in 0..m_X, got {k}")
        return cls(h_x, h_y, m_x, m_x - k)

    @property
    def layout(self) -> RenewalLayout:
        return RenewalLayout(len(self.h_x), self.m_x, len(self.h_y), self.m_y)


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
        if m_x < 1 or m_y < 0:
            raise ValueError(f"need m_X >= 1, m_Y >= 0, got {m_x}, {m_y}")
        self.mu_x, self.sigma_x = float(mu_x), float(sigma_x)
        self.mu_y, self.sigma_y = float(mu_y), float(sigma_y)
        self.m_x, self.m_y = int(m_x), int(m_y)

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
        if not (0 <= a_x <= self.m_x and 0 <= a_y <= self.m_y):
            raise ValueError(f"overlap ({a_x},{a_y}) outside "
                             f"[0,{self.m_x}]x[0,{self.m_y}]")
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


class GridConvolutionKit:
    """Lattice convolutions for arbitrary component distributions.

    Components are discretized to a common step (cell masses from cdf
    differences, clipped to mean +- ``pad_sd`` standard deviations for
    unbounded supports); m-fold sums come from FFT convolution powers.
    Accuracy is set by ``points`` (lattice cells per component range).
    """

    def __init__(self, x_dist: KnownDistribution, y_dist: KnownDistribution,
                 m_x: int, m_y: int, points: int = 4096, pad_sd: float = 8.0):
        if m_x < 1 or m_y < 0:
            raise ValueError(f"need m_X >= 1, m_Y >= 0, got {m_x}, {m_y}")
        if not points >= 2:
            raise ValueError(f"need points >= 2 lattice cells, got {points}")
        self.m_x, self.m_y = int(m_x), int(m_y)
        los, his = [], []
        for d in (x_dist, y_dist):
            lo, hi = d.support()
            if not math.isfinite(lo):
                lo = d.mean() - pad_sd * math.sqrt(d.var())
            if not math.isfinite(hi):
                hi = d.mean() + pad_sd * math.sqrt(d.var())
            los.append(lo)
            his.append(hi)
        # one shared step so that sums of either component stay on-lattice
        h = (max(his) - min(los)) / points
        self._h = h
        self._pmf_x, self._base_x = self._component(x_dist, los[0], his[0], h)
        self._pmf_y, self._base_y = self._component(y_dist, los[1], his[1], h)
        self._pow_x = self._powers(self._pmf_x, self.m_x)
        self._pow_y = self._powers(self._pmf_y, self.m_y)

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

    @staticmethod
    def _powers(pmf, m):
        """pmf arrays of the j-fold sums for j = 0..m (lattice offsets add)."""
        out = [np.array([1.0])]
        cur = np.array([1.0])
        for _ in range(m):
            cur = np.convolve(cur, pmf)
            out.append(cur)
        return out

    def _diff_pmf(self, pos_pmf, pos_base, neg_pmf, neg_base):
        """Law of (positive sum) - (negative sum) on the lattice."""
        pmf = np.convolve(pos_pmf, neg_pmf[::-1])
        lo = pos_base - (neg_base + self._h * (len(neg_pmf) - 1))
        values = lo + self._h * np.arange(len(pmf))
        return values, pmf

    def theta(self) -> float:
        values, pmf = self._diff_pmf(
            self._pow_x[self.m_x], self.m_x * self._base_x,
            self._pow_y[self.m_y], self.m_y * self._base_y)
        return float(pmf[values > 0].sum())

    def mu11(self, a_x: int, a_y: int) -> float:
        if not (0 <= a_x <= self.m_x and 0 <= a_y <= self.m_y):
            raise ValueError(f"overlap ({a_x},{a_y}) outside "
                             f"[0,{self.m_x}]x[0,{self.m_y}]")
        # C_com = shared X sum - shared Y sum
        vc, pc = self._diff_pmf(self._pow_x[a_x], a_x * self._base_x,
                                self._pow_y[a_y], a_y * self._base_y)
        # C_dif = fresh Y sum - fresh X sum
        fx, fy = self.m_x - a_x, self.m_y - a_y
        vd, pd = self._diff_pmf(self._pow_y[fy], fy * self._base_y,
                                self._pow_x[fx], fx * self._base_x)
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
    return kit.mu11(int(counts[0]), int(counts[1]))


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
    bools (TypeError), of at least 1 and 2 (ValueError).
    """
    lay = _as_renewal_layout(layout) if not isinstance(layout, RenewalLayout) \
        else layout
    r = _count(r, "r")
    replications = _count(replications, "replications", 2)
    if theta is None:
        if x_dist.family == "normal" and y_dist.family == "normal":
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
