"""Partner potentials, shape-invariance remainder, and spectral cross-checks.

V-(x) = W^2 - W' and V+(x) = W^2 + W' form the partner pair; shape
invariance under m -> m-1 means V+(x, m) - V-(x, m-1) is a constant R(m).
The eigensolver is a second-order central-difference Hamiltonian
-d^2/dx^2 + V with Dirichlet ends, solved through a symmetric tridiagonal
routine.  Isospectrality is validated via the constant-shift route: the
spectra of V+(., m) and V-(., m-1) + R must coincide level by level, which
exercises the whole pipeline, discretization included.  The complex
PT-symmetric family is excluded from spectra by contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedError, UsageError
from .superpotential import SuperpotentialFamily

_IMAG_LEAK_TOL = 1e-9
_EDGE_MARGIN_ABOVE_TOP_LEVEL = 25.0


@dataclass(frozen=True)
class PotentialGrid:
    """A sampled potential on strictly increasing abscissae."""

    x: np.ndarray
    values: np.ndarray
    which: str  # "minus" | "plus"
    m: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.shape != v.shape or x.ndim != 1:
            raise ValueError("abscissae and values must be 1-d and match")
        if not np.all(np.diff(x) > 0):
            raise ValueError("abscissae must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValueError("potential grid must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    grid_size: int
    spacing: float
    error_estimates: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if not np.all(np.diff(ev) >= 0):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(
            self, "error_estimates", np.abs(np.asarray(self.error_estimates, dtype=float))
        )


@dataclass(frozen=True)
class IsospectralResult:
    mismatch: float
    remainder_value: float
    flatness_residual: float
    spectrum_plus: SpectrumResult
    spectrum_minus: SpectrumResult
    window: tuple[float, float]
    k: int


def _real_potential_values(family, x, m):
    if not family.is_real:
        raise UnsupportedError(f"{family.tag}: complex family unsupported for spectra")
    w, wd = (np.asarray(v) for v in family.W(x, m))
    if np.iscomplexobj(w) or np.iscomplexobj(wd):
        scale = 1.0 + max(float(np.max(np.abs(w))), float(np.max(np.abs(wd))))
        leak = max(float(np.max(np.abs(w.imag))), float(np.max(np.abs(wd.imag))))
        if leak > _IMAG_LEAK_TOL * scale:
            raise UnsupportedError(f"{family.tag}: nonreal W on a real family")
        w, wd = w.real, wd.real
    return w, wd


def partner_potentials(family: SuperpotentialFamily, m: float, grid):
    """(V-, V+) with V-+ = W^2 -+ W' on the given abscissae."""
    x = np.asarray(grid, dtype=float)
    w, wd = _real_potential_values(family, x, m)
    w2 = w * w
    return (
        PotentialGrid(x=x, values=w2 - wd, which="minus", m=float(m)),
        PotentialGrid(x=x, values=w2 + wd, which="plus", m=float(m)),
    )


def remainder(family: SuperpotentialFamily, m: float, grid):
    """(R, flatness) of V+(x, m) - V-(x, m-1): mean and max deviation."""
    _, v_plus = partner_potentials(family, m, grid)
    v_minus_prev, _ = partner_potentials(family, m - 1.0, grid)
    diff = v_plus.values - v_minus_prev.values
    r = float(np.mean(diff))
    return r, float(np.max(np.abs(diff - r)))


def _lowest_eigenvalues(values: np.ndarray, h: float, k: int) -> np.ndarray:
    # imported here: scipy.linalg is most of the package's import time, and
    # only spectra need it
    from scipy.linalg import eigh_tridiagonal

    diag = 2.0 / (h * h) + values
    off = np.full(values.size - 1, -1.0 / (h * h))
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                            eigvals_only=True)


def solve_spectrum(potential: PotentialGrid, k: int) -> SpectrumResult:
    """k lowest Dirichlet eigenvalues of -d^2/dx^2 + V.

    The grid holds interior nodes of a uniform mesh; the Dirichlet walls sit
    one spacing outside both ends.  The per-level error estimate compares
    with the spacing-doubled (subsampled) problem, scaled by the 1/3 factor
    of second-order Richardson extrapolation.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    n = potential.x.size
    if k > n // 8:
        raise UsageError(f"k = {k} too large for a {n}-point grid")
    steps = np.diff(potential.x)
    h = float(steps[0])
    if float(np.max(np.abs(steps - h))) > 1e-9 * h:
        raise UsageError("solve_spectrum needs a uniform grid")
    evals = _lowest_eigenvalues(potential.values, h, k)
    coarse = _lowest_eigenvalues(potential.values[1::2], 2.0 * h, k)
    return SpectrumResult(
        eigenvalues=evals,
        grid_size=n,
        spacing=h,
        error_estimates=np.abs(evals - coarse) / 3.0,
    )


def dirichlet_grid(a: float, b: float, n: int) -> np.ndarray:
    """n interior nodes of a uniform mesh on [a, b] with walls at a and b."""
    return np.linspace(a, b, n + 2)[1:-1]


def _edge_values(family, m_values, xs) -> tuple[np.ndarray, np.ndarray]:
    """(min over m of min(V-, V+), all finite) at each abscissa: one array
    call per m.  Far candidates may overflow, so nothing is checked here;
    _grow_edge raises where it reaches a value that is not finite."""
    xs = np.asarray(xs, dtype=float)
    low, finite = np.full(xs.shape, np.inf), np.ones(xs.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m in m_values:
            w, wd = _real_potential_values(family, xs, m)
            w2 = w * w
            vm, vp = w2 - wd, w2 + wd
            finite &= np.isfinite(vm) & np.isfinite(vp)
            low = np.minimum(low, np.minimum(vm, vp))
    return low, finite


def _grow_edge(family, m_values, candidates: list, target: float, margin: float) -> float:
    """The edge reached by walking the candidates while V there is below
    target and each step raises V by more than margin.  candidates[0] is
    the current edge; V at all of them comes from one _edge_values call."""
    v, finite = _edge_values(family, m_values, candidates)
    for k in range(len(candidates)):
        if not finite[k]:
            raise ValueError("potential grid must be finite")
        if k and v[k] <= v[k - 1] + margin:
            return candidates[k - 1]  # plateau, or an attractive end
        if v[k] >= target:
            return candidates[k]
    return candidates[-1]


def _steps(start: float, step, n: int) -> list:
    out = [start]
    for _ in range(n):
        out.append(step(out[-1]))
    return out


def spectral_window(family: SuperpotentialFamily, m_values, k: int,
                    probe_points: int = 400) -> tuple[float, float]:
    """Truncation window whose edge potentials dominate the top level sought.

    Edges grow (or the margins shrink) until V at both ends exceeds the k-th
    eigenvalue estimate plus a fixed margin; growth stops early when V
    saturates (hyperbolic plateaus), which is harmless for the constant-shift
    comparison because both potentials are truncated identically.
    """
    lo, hi = family.domain
    if math.isinf(lo) and math.isinf(hi):
        a, b = -8.0, 8.0
    elif math.isinf(hi):
        a, b = lo + 0.1, max(lo + 4.0, 1.0)
    elif math.isinf(lo):
        a, b = min(hi - 4.0, -1.0), hi - 0.1
    else:
        width = hi - lo
        a, b = lo + 1e-3 * width, hi - 1e-3 * width

    for _ in range(3):
        x = dirichlet_grid(a, b, probe_points)
        _, v_plus = partner_potentials(family, m_values[0], x)
        top = float(_lowest_eigenvalues(v_plus.values, x[1] - x[0], k)[-1])
        target = top + _EDGE_MARGIN_ABOVE_TOP_LEVEL

        if math.isinf(hi):
            b = _grow_edge(family, m_values, _steps(b, lambda t: t * 1.4, 60), target, 1.0)
        if math.isinf(lo):
            a = _grow_edge(family, m_values,
                           _steps(a, lambda t: t * 1.4 if t < 0 else t - 1.0, 60), target, 1.0)
        if lo == 0.0 and not math.isinf(lo):
            halves = [a]
            while halves[-1] > 1e-4:
                halves.append(halves[-1] / 2.0)
            a = _grow_edge(family, m_values, halves, target, 0.0)
        if not math.isinf(lo) and not math.isinf(hi) and lo != 0.0:
            break
    return float(a), float(b)


def check_isospectrality(family: SuperpotentialFamily, m: float, k: int = 5,
                         n_points: int = 4000) -> IsospectralResult:
    """Max relative level mismatch of spectrum(V+(., m)) vs
    spectrum(V-(., m-1)) + R over the k lowest levels, on one shared grid."""
    if k < 1:
        raise UsageError("k must be >= 1")
    if n_points < 8 * k:
        raise UsageError(f"k = {k} too large for a {n_points}-point grid")
    window = spectral_window(family, (m, m - 1.0), k)
    x = dirichlet_grid(window[0], window[1], n_points)
    _, v_plus = partner_potentials(family, m, x)
    v_minus_prev, _ = partner_potentials(family, m - 1.0, x)

    diff = v_plus.values - v_minus_prev.values
    r = float(np.mean(diff))
    flatness = float(np.max(np.abs(diff - r)))

    sp = solve_spectrum(v_plus, k)
    sm = solve_spectrum(v_minus_prev, k)
    shifted = sm.eigenvalues + r
    denom = np.maximum(np.maximum(np.abs(sp.eigenvalues), np.abs(shifted)), 1.0)
    mismatch = float(np.max(np.abs(sp.eigenvalues - shifted) / denom))
    return IsospectralResult(
        mismatch=mismatch,
        remainder_value=r,
        flatness_residual=flatness,
        spectrum_plus=sp,
        spectrum_minus=sm,
        window=window,
        k=k,
    )
