"""Known parametric distributions usable as generators or side variables.

A :class:`KnownDistribution` is an immutable value object: a family name plus
a parameter tuple.  Families supported: ``exponential`` (rate), ``normal``
(mu, sigma), ``uniform`` (a, b), ``triangular`` (lower, mode, upper) and
``empirical`` (a fixed value list, sampled with replacement).  The parametric
families evaluate the formulas of the matching scipy.stats distributions on
numpy and ``scipy.special`` ufuncs, bit for bit, without importing
scipy.stats.  Those ufuncs are bound from scipy.special's compiled modules
without running the package ``__init__`` (see :func:`_load_ufuncs`), so
importing this module loads neither scipy.special's array-API layer nor
the ``numpy.f2py``, ``numpy.testing`` and ``numpy.fft`` modules it imports.

Two construction paths mirror the CLI and the config format:

* ``parse_distribution("exp:3")``, ``parse_distribution("triangular:0,2,4")``
  -- compact ``family:p1,p2,...`` strings used on the command line;
* ``from_dict({"family": "exponential", "rate": 2.0})`` -- JSON objects with
  named parameters.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from types import ModuleType
from typing import NamedTuple

import numpy as np
import scipy

__all__ = [
    "KnownDistribution",
    "exponential",
    "normal",
    "uniform",
    "triangular",
    "empirical",
    "parse_distribution",
    "from_dict",
]

_FAMILIES = ("exponential", "normal", "uniform", "triangular", "empirical")

# family aliases accepted by the parsers
_ALIASES = {
    "exp": "exponential",
    "exponential": "exponential",
    "normal": "normal",
    "gauss": "normal",
    "uniform": "uniform",
    "triangular": "triangular",
    "tri": "triangular",
    "empirical": "empirical",
}

# named JSON parameters per family, in positional order
_PARAM_NAMES = {
    "exponential": ("rate",),
    "normal": ("mu", "sigma"),
    "uniform": ("a", "b"),
    "triangular": ("lower", "mode", "upper"),
}

_SQRT_2PI = np.sqrt(2 * np.pi)

# the scipy.special ufuncs this module calls; the binomial pmf and cdf are
# scipy.stats.binom's own kernels, since no public ufunc gives their bits
_UFUNCS = ("expm1", "log1p", "ndtr", "ndtri", "betainc", "xlogy", "gammaln",
           "pdtrc", "_binom_pmf", "_binom_cdf")


def _load_ufuncs() -> ModuleType:
    """scipy.special's compiled ``_ufuncs`` module, which holds every name
    in ``_UFUNCS`` (those of ``_special_ufuncs`` as the same objects).

    The package ``__init__`` is most of the cost of importing scipy.special:
    its array-API layer imports ``numpy.f2py``, ``numpy.testing`` and
    ``numpy.fft``.  When scipy.special is not yet imported, a bare package
    stub (only a ``__path__``) stands in for it while the compiled ufunc
    modules load, and is removed afterwards, so a later ``import
    scipy.special`` runs its own ``__init__`` and reuses those same
    extension modules.  If the package is already imported, or that route
    fails (a scipy without ``_special_ufuncs``, a missing name), the full
    package import gives the module instead: the same module either way.
    While the stub stands (a few ms, at import), another thread's ``import
    scipy.special`` would see it.
    """
    if "scipy.special" not in sys.modules:
        stub = ModuleType("scipy.special")
        stub.__path__ = [os.path.join(p, "special") for p in scipy.__path__]
        sys.modules["scipy.special"] = stub
        try:
            importlib.import_module("scipy.special._special_ufuncs")
            ufuncs = importlib.import_module("scipy.special._ufuncs")
            if all(hasattr(ufuncs, name) for name in _UFUNCS):
                return ufuncs
        except ImportError:
            pass
        finally:
            if sys.modules.get("scipy.special") is stub:
                del sys.modules["scipy.special"]
    from scipy.special import _ufuncs
    return _ufuncs


_ufuncs = _load_ufuncs()


def _triangular_cdf(z, c):
    if c == 0:
        return 2 * z - z * z
    if c == 1:
        return z * z
    return np.where(z < c, z * z / c, (z * z - 2 * z + c) / (c - 1))


def _triangular_limited(w, c):
    """E[min(Z, w)] for the standard triangular: w minus int_0^w F on the
    rising edge, the mean minus int_w^1 (1 - F) on the falling one."""
    if w <= 0:
        return w
    if w <= c:
        return w - w ** 3 / (3.0 * c)
    if w < 1:
        return (1.0 + c) / 3.0 - (1.0 - w) ** 3 / (3.0 * (1.0 - c))
    return (1.0 + c) / 3.0


def _triangular_pdf(z, c):
    if c == 0:
        return 2 - 2 * z
    if c == 1:
        return 2 * z
    return np.where(z < c, 2 * z / c, 2 * (1 - z) / (1 - c))


class _Standard(NamedTuple):
    """A family's standard form z = (x - loc) / scale, written as
    scipy.stats writes it so that every result keeps scipy's bits: the
    support (a, b), cdf and sf on the open support, pdf on the closed one,
    ppf on (0, 1) and the standard mean and variance.  ``limited(w, c)`` is
    the limited mean E[min(Z, w)] at a scalar w.  ``c`` is the triangular
    mode in [0, 1] and None otherwise."""

    a: float
    b: float
    cdf: Callable
    sf: Callable
    pdf: Callable
    ppf: Callable
    moments: Callable
    limited: Callable


_STANDARD = {
    "exponential": _Standard(
        0.0, np.inf,
        cdf=lambda z, c: -_ufuncs.expm1(-z),
        sf=lambda z, c: np.exp(-z),
        pdf=lambda z, c: np.exp(-z),
        ppf=lambda q, c: -_ufuncs.log1p(-q),
        moments=lambda c: (1.0, 1.0),
        limited=lambda w, c: w if w <= 0 else -_ufuncs.expm1(-w)),
    "normal": _Standard(
        -np.inf, np.inf,
        cdf=lambda z, c: _ufuncs.ndtr(z),
        sf=lambda z, c: _ufuncs.ndtr(-z),
        pdf=lambda z, c: np.exp(-z ** 2 / 2.0) / _SQRT_2PI,
        ppf=lambda q, c: _ufuncs.ndtri(q),
        moments=lambda c: (0.0, 1.0),
        # w - int_-inf^w Phi = w - (w Phi(w) + phi(w))
        limited=lambda w, c: w * _ufuncs.ndtr(-w)
        - np.exp(-w * w / 2.0) / _SQRT_2PI),
    "uniform": _Standard(
        0.0, 1.0,
        cdf=lambda z, c: z,
        sf=lambda z, c: 1.0 - z,
        pdf=lambda z, c: np.ones_like(z),
        ppf=lambda q, c: q,
        moments=lambda c: (0.5, 1.0 / 12),
        limited=lambda w, c: w if w <= 0 else w - w * w / 2.0 if w < 1
        else 0.5),
    "triangular": _Standard(
        0.0, 1.0,
        cdf=_triangular_cdf,
        sf=lambda z, c: 1.0 - _triangular_cdf(z, c),
        pdf=_triangular_pdf,
        ppf=lambda q, c: np.where(q < c, np.sqrt(c * q),
                                  1 - np.sqrt((1 - c) * (1 - q))),
        moments=lambda c: ((c + 1.0) / 3.0, (1.0 - c + c * c) / 18),
        limited=_triangular_limited),
}


def _assemble(z, inside, values, ones=None):
    """scipy.stats's output: 0, or 1 where ``ones``, NaN at NaN inputs, and
    ``values`` of the compressed ``z[inside]`` on ``inside``; a 0-d result
    comes back as a numpy scalar."""
    out = np.zeros(z.shape)
    if ones is not None:
        out[ones] = 1.0
    out[np.isnan(z)] = np.nan
    if inside.any():
        out[inside] = values(z[inside])
    return out[()]


@dataclass(frozen=True)
class KnownDistribution:
    """Immutable distribution descriptor with sampling and cdf access."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown distribution family {self.family!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        p = self.params
        names = _PARAM_NAMES.get(self.family)
        if names is not None and len(p) != len(names):
            raise ValueError(f"{self.family} needs parameters "
                             f"({', '.join(names)}), got {p}")
        if self.family == "empirical" and len(p) == 0:
            raise ValueError("empirical needs at least one value")
        for i, v in enumerate(p):
            if not math.isfinite(v):
                what = names[i] if names else f"value {i}"
                raise ValueError(
                    f"{self.family} parameter {what} must be finite, got {v}")
        if self.family == "exponential" and not p[0] > 0:
            raise ValueError(f"exponential needs a positive rate, got {p}")
        if self.family == "normal" and not p[1] > 0:
            raise ValueError(f"normal needs (mu, sigma>0), got {p}")
        if self.family == "uniform" and not p[0] < p[1]:
            raise ValueError(f"uniform needs (a, b) with a < b, got {p}")
        if self.family == "triangular" \
                and (not p[0] <= p[1] <= p[2] or p[0] >= p[2]):
            raise ValueError(
                f"triangular needs lower <= mode <= upper, lower < upper, got {p}")
        if self.family in ("uniform", "triangular") \
                and not math.isfinite(p[-1] - p[0]):
            raise ValueError(f"{self.family} support is wider than the "
                             f"largest float, got {p}")

    @property
    def is_continuous(self) -> bool:
        return self.family != "empirical"

    def _standard(self):
        """(standard form, loc, scale, c) with x = loc + scale z, the
        parameterization of the matching scipy.stats family."""
        p = self.params
        if self.family == "exponential":
            loc, scale, c = 0.0, 1.0 / p[0], None
        elif self.family == "normal":
            loc, scale, c = p[0], p[1], None
        elif self.family == "uniform":
            loc, scale, c = p[0], p[1] - p[0], None
        else:
            loc, scale, c = p[0], p[2] - p[0], (p[1] - p[0]) / (p[2] - p[0])
        return _STANDARD[self.family], loc, scale, c

    def _z(self, x):
        std, loc, scale, c = self._standard()
        z = np.asarray((np.asarray(x, dtype=float) - loc) / scale)
        return std, z, scale, c

    # -- queries ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None):
        """Draw from the distribution using the supplied generator."""
        if self.family == "empirical":
            values = np.asarray(self.params)
            idx = rng.integers(0, len(values), size=size)
            return values[idx]
        if self.family == "exponential":
            return rng.exponential(1.0 / self.params[0], size=size)
        if self.family == "normal":
            return rng.normal(self.params[0], self.params[1], size=size)
        if self.family == "uniform":
            a, b = self.params
            return rng.uniform(a, b, size=size)
        return rng.triangular(*self.params, size=size)

    def cdf(self, x):
        if self.family == "empirical":
            values = np.sort(np.asarray(self.params))
            return np.searchsorted(values, x, side="right") / len(values)
        std, z, _, c = self._z(x)
        return _assemble(z, (std.a < z) & (z < std.b),
                         lambda v: std.cdf(v, c), ones=z >= std.b)

    def sf(self, x):
        """Survival function 1 - cdf(x)."""
        if self.family == "empirical":
            return 1.0 - self.cdf(x)
        std, z, _, c = self._z(x)
        return _assemble(z, (std.a < z) & (z < std.b),
                         lambda v: std.sf(v, c), ones=z <= std.a)

    def pdf(self, x):
        if self.family == "empirical":
            raise ValueError("empirical distribution has no density")
        std, z, scale, c = self._z(x)
        return _assemble(z, (std.a <= z) & (z <= std.b),
                         lambda v: std.pdf(v, c) / scale)

    def ppf(self, q):
        """Quantile function (inverse cdf)."""
        if self.family == "empirical":
            values = np.sort(np.asarray(self.params))
            idx = np.ceil(np.asarray(q) * len(values)).astype(int) - 1
            return values[np.clip(idx, 0, len(values) - 1)]
        std, loc, scale, c = self._standard()
        q = np.asarray(q, dtype=float)
        out = np.full(q.shape, np.nan)
        out[q == 0] = std.a * scale + loc
        out[q == 1] = std.b * scale + loc
        inside = (0 < q) & (q < 1)
        if inside.any():
            out[inside] = std.ppf(q[inside], c) * scale + loc
        return out[()]

    def mean(self) -> float:
        if self.family == "empirical":
            return float(np.mean(self.params))
        std, loc, scale, c = self._standard()
        return float(std.moments(c)[0] * scale + loc)

    def var(self) -> float:
        if self.family == "empirical":
            return float(np.var(self.params))
        std, _, scale, c = self._standard()
        return float(std.moments(c)[1] * scale * scale)

    def limited_mean(self, t: float) -> float:
        """E[min(D, t)], in closed form; for D >= 0 it is int_0^t sf."""
        if self.family == "empirical":
            return float(np.minimum(self.params, t).mean())
        std, loc, scale, c = self._standard()
        return float(std.limited((t - loc) / scale, c) * scale + loc)

    def support(self) -> tuple[float, float]:
        if self.family == "empirical":
            return (float(min(self.params)), float(max(self.params)))
        std, loc, scale, _ = self._standard()
        return (float(std.a * scale + loc), float(std.b * scale + loc))

    def __repr__(self):
        if self.family == "empirical" and len(self.params) > 6:
            return f"KnownDistribution(empirical, {len(self.params)} values)"
        body = ",".join(format(p, "g") for p in self.params)
        return f"KnownDistribution({self.family}:{body})"


# -- count laws -------------------------------------------------------------
# Each gives the bits of the scipy.stats call it names, for integer or
# infinite k (finite k for the pmfs), integer n >= 0, p in [0, 1] and
# mu >= 0; callers check their parameters.

def binom_pmf(k, n, p):
    """P{Bin(n, p) = k}: ``scipy.stats.binom.pmf``."""
    k, n, p = np.broadcast_arrays(k, n, p)
    out = np.zeros(k.shape)
    inside = (k >= 0) & (k <= n) & (np.floor(k) == k)
    if inside.any():
        # clipped as scipy.stats clips: the kernel can pass 1 by an ulp
        out[inside] = np.clip(
            _ufuncs._binom_pmf(k[inside], n[inside], p[inside]), 0, 1)
    return out[()]


def binom_cdf(k, n, p):
    """P{Bin(n, p) <= k}: ``scipy.stats.binom.cdf``."""
    k, n, p = np.broadcast_arrays(k, n, p)
    out = np.where(k >= n, 1.0, 0.0)
    inside = (k >= 0) & (k < n)
    if inside.any():
        out[inside] = np.clip(_ufuncs._binom_cdf(
            np.floor(k[inside]), n[inside], p[inside]), 0, 1)
    return out[()]


def binom_sf(k, n, p):
    """P{Bin(n, p) > k}: ``scipy.stats.binom.sf``."""
    k, n, p = np.broadcast_arrays(k, n, p)
    out = np.where(k < 0, 1.0, 0.0)
    inside = (k >= 0) & (k < n)
    if inside.any():
        kf = np.floor(k[inside])
        out[inside] = _ufuncs.betainc(kf + 1, n[inside] - kf, p[inside])
    return out[()]


def poisson_pmf(k, mu):
    """P{Poisson(mu) = k}: ``scipy.stats.poisson.pmf``."""
    k, mu = np.broadcast_arrays(k, mu)
    out = np.zeros(k.shape)
    inside = (k >= 0) & (np.floor(k) == k) & np.isfinite(k)
    if inside.any():
        ki, mi = k[inside], mu[inside]
        out[inside] = np.exp(_ufuncs.xlogy(ki, mi) - _ufuncs.gammaln(ki + 1)
                             - mi)
    return out[()]


def poisson_sf(k, mu):
    """P{Poisson(mu) > k}: ``scipy.stats.poisson.sf``."""
    k, mu = np.broadcast_arrays(k, mu)
    out = np.where(k < 0, 1.0, 0.0)
    inside = (k >= 0) & (k < np.inf)
    if inside.any():
        out[inside] = _ufuncs.pdtrc(np.floor(k[inside]), mu[inside])
    return out[()]


# -- constructors ---------------------------------------------------------

def exponential(rate: float) -> KnownDistribution:
    return KnownDistribution("exponential", (rate,))


def normal(mu: float, sigma: float) -> KnownDistribution:
    return KnownDistribution("normal", (mu, sigma))


def uniform(a: float, b: float) -> KnownDistribution:
    return KnownDistribution("uniform", (a, b))


def triangular(lower: float, mode: float, upper: float) -> KnownDistribution:
    return KnownDistribution("triangular", (lower, mode, upper))


def empirical(values) -> KnownDistribution:
    return KnownDistribution("empirical", tuple(float(v) for v in values))


def parse_distribution(text: str) -> KnownDistribution:
    """Parse a compact ``family:p1,p2,...`` descriptor (e.g. ``exp:3``)."""
    head, sep, tail = text.strip().partition(":")
    family = _ALIASES.get(head.strip().lower())
    if family is None:
        raise ValueError(f"unknown distribution family {head.strip()!r} in {text!r}")
    if not sep or not tail.strip():
        raise ValueError(f"missing parameters in distribution {text!r}")
    try:
        params = tuple(float(tok) for tok in tail.split(","))
    except ValueError:
        raise ValueError(f"non-numeric parameter in distribution {text!r}") from None
    return KnownDistribution(family, params)


def from_dict(obj: dict) -> KnownDistribution:
    """Build a distribution from a JSON object with named parameters.

    Raises ValueError on anything but an object whose parameters are
    numbers (an empirical law's ``values`` a list of them).
    """
    if not isinstance(obj, Mapping):
        raise ValueError(
            f"distribution must be a JSON object, got {type(obj).__name__}")
    if "family" not in obj:
        raise ValueError(f"distribution object missing 'family': {obj!r}")
    family = _ALIASES.get(str(obj["family"]).lower())
    if family is None:
        raise ValueError(f"unknown distribution family {obj['family']!r}")
    if family == "empirical":
        if "values" not in obj:
            raise ValueError("empirical distribution object needs 'values'")
        values = obj["values"]
        if not isinstance(values, (list, tuple)):
            raise ValueError("empirical 'values' must be a list of numbers, "
                             f"got {type(values).__name__}")
        return empirical(_number(v, family, "values") for v in values)
    names = _PARAM_NAMES[family]
    missing = [n for n in names if n not in obj]
    if missing:
        raise ValueError(f"{family} distribution object missing {missing}")
    return KnownDistribution(family,
                             tuple(_number(obj[n], family, n) for n in names))


def _number(value, family: str, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{family} parameter {name} must be a number, "
                         f"got {value!r}") from None
