"""Partner potentials, shape-invariance remainder, and spectral cross-checks.

V-(x) = W^2 - W' and V+(x) = W^2 + W' form the partner pair; shape
invariance under m -> m-1 means V+(x, m) - V-(x, m-1) is a constant R(m).
The eigensolver is a second-order central-difference Hamiltonian
-d^2/dx^2 + V with Dirichlet ends on a symmetric tridiagonal matrix.
Isospectrality is bounded, not measured twice: on one shared grid the
matrices of V+(., m) and V-(., m-1) + R differ only on the diagonal, by
V+ - V- - R, so by Weyl's inequality no level pair differs by more than
the flatness of that difference.  Only V+ is solved, for its levels and
their error estimates.  The complex PT-symmetric family is excluded from
spectra by contract.

The window search evaluates W once per pass, for its 400-point probe grid
and every edge candidate of both sides at every m.  Only that probe is
bisected, once per pass: all k levels in one call, to a shift tolerance,
since they only seed inverse iteration and set the edge target, 25 above
the top one.  V+'s levels are refined by inverse iteration from shifts:
its spacing-doubled grid from the probe's levels, and the fine grid from
the spacing-doubled levels.  The fine grid also starts from the
spacing-doubled grid's eigenvectors, interpolated linearly one level at a
time, so it needs fewer steps; a fixed pseudo-random vector starts any
level that has no such vector.  A level stops at a residual of
4 eps*||T||_1, or earlier where its Kato-Temple bound, r^2 over its
isolation, already reaches that.  A level set is accepted only under a
certificate on its own matrix (disjoint residual intervals, one Sturm
count that also isolates the top level, and each level's Weyl or Temple
error bound); where that fails, the matrix is bisected instead.  A matrix
whose residuals could square past float64, (2*||T||_1)^2 not finite, is
refused before any iteration; below that, a level whose solved iterate
has a squared norm that is not finite, or is 0, fails like a singular
factorisation.  A real family's W must arrive as float64: complex values
are refused, not truncated.

The three LAPACK routines (dstebz, dgttrf, dgttrs) come from scipy's
Fortran LAPACK extension, scipy.linalg._flapack, loaded directly from its
file (_lapack): the package never imports scipy.linalg, whose package
__init__ would cost more start-up than a spectrum run's solve.  The start
vector comes from SplitMix64 in numpy's uint64 arithmetic (_random_start),
so a spectrum never imports numpy.random either; only the sampler does.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedError, UsageError
from .superpotential import SuperpotentialFamily, assemble_w, require_region

_EDGE_MARGIN_ABOVE_TOP_LEVEL = 25.0
# Abscissae of the grid on which the window search estimates the k-th level
_PROBE_POINTS = 400
_EPS = float(np.finfo(float).eps)
# Inverse-iteration steps per level before its solve falls back to bisection
_MAX_STEPS = 8
# In units of eps*||T||_1: the residual at which inverse iteration stops, and
# the guard added to each residual bound for the rounding in computing it
# and in the Sturm count
_RESIDUAL_ULPS = 4.0
_GUARD_ULPS = 8.0
# In units of ||T||_1: the bisection tolerance of the probe levels, which
# only seed inverse iteration and set the window's edge target
_SHIFT_ABSTOL = 1e-8
# check_isospectrality's default level count and grid size
DEFAULT_LEVELS = 5
DEFAULT_SPECTRUM_POINTS = 4000


@dataclass(frozen=True)
class PotentialGrid:
    """A sampled potential on strictly increasing abscissae."""

    x: np.ndarray
    values: np.ndarray

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
    """mismatch is Weyl's bound on |E+ - (E- + R)| over the k lowest levels."""

    mismatch: float
    remainder_value: float
    flatness_residual: float
    spectrum_plus: SpectrumResult
    window: tuple[float, float]


def _real_potential_values(family, x, m_values, values=None):
    """(W, W') on x as float64 arrays, one row per m.  values, the
    conditions.grid_values of x at these m among others, stands in for
    evaluating the family.  Complex W is refused, not truncated."""
    if not family.is_real:
        raise UnsupportedError(f"{family.tag}: complex family unsupported for spectra")
    if values is None:
        w, wd = family.w_rows(x, m_values)
    else:
        w1 = tuple(r[values.rows(*m_values)] for r in values.w1)
        w, wd = assemble_w(values.affine, w1, m_values)
    w, wd = np.asarray(w), np.asarray(wd)
    if np.iscomplexobj(w) or np.iscomplexobj(wd):
        raise UnsupportedError(f"{family.tag}: complex W on a real family")
    return w, wd


def partner_potentials(family: SuperpotentialFamily, m: float, grid, *, values=None):
    """(V-, V+) with V-+ = W^2 -+ W' on the given abscissae.  values,
    conditions.grid_values(family, grid, m_values) for m_values that hold
    m, spares evaluating the family again; the result is the same bit for
    bit."""
    x = np.asarray(grid, dtype=float)
    (w,), (wd,) = _real_potential_values(family, x, (m,), values)
    w2 = w * w
    return PotentialGrid(x=x, values=w2 - wd), PotentialGrid(x=x, values=w2 + wd)


@np.errstate(over="ignore", invalid="ignore")
def _plus_and_remainder(family, m: float, x: np.ndarray, values=None):
    """(V+(x, m), R, flatness) of V+(x, m) - V-(x, m-1), from one evaluation
    of W at both m: R is the difference's mean, flatness its max deviation.
    Where W overflows, V is inf and flatness nan, without a warning: nan
    fails the remainder's verdict, and a spectrum refuses V+ that is not
    finite."""
    w, wd = _real_potential_values(family, x, (m, m - 1.0), values)
    w2 = w * w
    v_plus = w2[0] + wd[0]
    diff = v_plus - (w2[1] - wd[1])
    r = float(np.mean(diff))
    return v_plus, r, float(np.max(np.abs(diff - r)))


def remainder(family: SuperpotentialFamily, m: float, grid, *, values=None):
    """(R, flatness) of V+(x, m) - V-(x, m-1): mean and max deviation.
    values, conditions.grid_values(family, grid, m_values) for m_values
    that hold m and m - 1, spares evaluating the family again; the result
    is the same bit for bit."""
    return _plus_and_remainder(family, m, np.asarray(grid, dtype=float), values)[1:]


def _tridiagonal(values: np.ndarray, h: float):
    """(diagonal, off-diagonal) of the central-difference -d^2/dx^2 + V."""
    return 2.0 / (h * h) + values, np.full(values.size - 1, -1.0 / (h * h))


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _lapack():
    """scipy's Fortran LAPACK extension module, scipy.linalg._flapack: the
    very module scipy.linalg.lapack re-exports, loaded from its file without
    running scipy's or scipy.linalg's package __init__.  It is registered
    under its full name, so a later import of scipy.linalg reuses it; one
    already imported is returned as it is.  Where the file is not found or
    does not load, the normal import system reaches the same module."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    scipy = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
    for root in (scipy.submodule_search_locations if scipy else None) or ():
        finder = importlib.machinery.FileFinder(
            os.path.join(root, "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(_FLAPACK)
        if spec is None:
            continue
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            break
        sys.modules[_FLAPACK] = module
        return module
    return importlib.import_module(_FLAPACK)


def _bisect(diag: np.ndarray, off: np.ndarray, first: int, last: int,
            abstol: float = 0.0) -> np.ndarray:
    """Levels first..last (0-based, ascending) by bisection to abstol, or to
    eps*||T||_1 where abstol is 0: the dstebz call that scipy's
    eigh_tridiagonal makes, without its argument checks (every grid is
    finite by PotentialGrid), from scipy's LAPACK extension loaded directly
    (_lapack).  A dstebz failure is outside the supported envelope."""
    count, w, *_, info = _lapack().dstebz(diag, off, 2, 0.0, 0.0, first + 1, last + 1,
                                          abstol, b"E")
    if info != 0:
        raise UnsupportedError(f"LAPACK dstebz failed to converge (info = {info})")
    return w[:count]


def _lowest_eigenvalues(values: np.ndarray, h: float, k: int) -> np.ndarray:
    """The k lowest levels of the grid's matrix, by bisection."""
    return _bisect(*_tridiagonal(values, h), 0, k - 1)


@np.errstate(over="ignore")
def _inverse_iteration(diag, off, shift: float, start: np.ndarray, tol: float,
                       delta: float = 0.0):
    """(rho, r, v) from fixed-shift inverse iteration on T - shift*I: the
    unit iterate v, its Rayleigh quotient rho and r = ||T v - rho v||,
    computed from T itself.  It stops at r <= tol, or at r^2 <= tol*delta,
    where Kato-Temple bounds the error by r^2/delta once the level is
    isolated by delta; delta = 0 leaves the first rule alone.  None where
    T - shift*I is singular or r stays above both for _MAX_STEPS steps.

    It is None too where a solved iterate's squared norm is not finite, or
    is 0: a shift so close to a level that one solve overflows (or a zero
    start) fails like a singular factorisation, without a warning, and the
    caller bisects the matrix.

    start is copied once, and every step solves in place in that copy; T v,
    the residual vector and the off-diagonal products have one buffer each
    for the whole level, so a step allocates nothing.  Both norms are
    sqrt(v @ v), the sum np.linalg.norm forms for a 1-d float64 array."""
    lapack = _lapack()
    dl, d, du, du2, ipiv, info = lapack.dgttrf(off, diag - shift, off)
    if info != 0:
        return None
    v = np.array(start, dtype=float)
    tv, res, prod = np.empty_like(v), np.empty_like(v), np.empty_like(off)
    for _ in range(_MAX_STEPS):
        v, info = lapack.dgttrs(dl, d, du, du2, ipiv, v, overwrite_b=1)
        square = float(v @ v)
        if not 0.0 < square < math.inf:  # also refuses nan
            return None
        v /= math.sqrt(square)
        np.multiply(diag, v, out=tv)
        np.multiply(off, v[:-1], out=prod)
        tv[1:] += prod
        np.multiply(off, v[1:], out=prod)
        tv[:-1] += prod
        rho = float(v @ tv)
        np.multiply(rho, v, out=res)
        np.subtract(tv, res, out=res)
        r = math.sqrt(res @ res)
        if r <= tol or r * r <= tol * delta:
            return rho, r, v
    return None


@functools.lru_cache(maxsize=8)
def _random_start(n: int) -> np.ndarray:
    """A fixed pseudo-random n-vector in [-0.5, 0.5), read-only: a symmetric
    start would miss every odd level of a symmetric potential.  Entry i is
    the SplitMix64 output of node i + 1 (Steele, Lea and Flood, OOPSLA
    2014): its finaliser applied to (i + 1) times the golden gamma, in
    wrapping uint64 arithmetic, then the top 53 bits as a fraction.  Integer
    arithmetic makes it, so a spectrum run never imports numpy.random."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    start = (z ^ (z >> np.uint64(31))) >> np.uint64(11)
    start = start * 2.0 ** -53 - 0.5
    start.setflags(write=False)
    return start


def _prolong(coarse: np.ndarray, n: int) -> np.ndarray:
    """A vector on the spacing-doubled grid (fine nodes 1, 3, ...)
    interpolated linearly to the n fine nodes: odd nodes take the coarse
    values, even nodes the mean of their two neighbours, with the walls at
    0.  It acts on the last axis, so rows of vectors prolong as one array.
    Each fine node is written once: the first and (for odd n) last even
    nodes take half their one coarse neighbour, the mean with the wall's 0."""
    half = coarse.shape[-1]
    fine = np.empty(coarse.shape[:-1] + (n,))
    fine[..., 1::2] = coarse
    inner = fine[..., 2:2 * half:2]
    np.add(coarse[..., :-1], coarse[..., 1:], out=inner)
    inner *= 0.5
    fine[..., 0] = 0.5 * coarse[..., 0]
    if n % 2:
        fine[..., -1] = 0.5 * coarse[..., -1]
    return fine


def _gershgorin_norm(diag: np.ndarray, h: float) -> float:
    """Gershgorin's bound on ||T||_1 of the grid's matrix."""
    return float(np.max(np.abs(diag))) + 2.0 / (h * h)


def _certificate(diag, off, found, floor: float, tol: float, guard: float):
    """(levels, vectors) of the inverse-iteration results found, (rho, r, v)
    per level, sorted by rho, when they certify the len(found) lowest levels
    of T; else None.  levels is an array, vectors the tuple of the
    iterates v as the iteration made them.

    Each rho_i has an eigenvalue of T in [lo_i, hi_i] = rho_i -+ (r_i +
    guard) (Weyl; v has unit norm to within n*eps, and the guard covers the
    rounding in rho, r and the Sturm count).  When those intervals are
    disjoint and one Sturm count finds exactly k eigenvalues up to c, each
    holds one of the k lowest levels, in order, and level i is the only
    eigenvalue in (hi_{i-1}, lo_{i+1}), or in (hi_{k-2}, c) for the top.  c
    is hi_top when r_top <= tol, else rho_top + (r_top + guard)^2/tol, the
    isolation at which the top level's Temple bound reaches tol.  Each
    level's error is then Weyl's r + guard when r <= tol, else Temple's
    (r + guard)^2/dist, dist its distance to the nearer end of its
    interval; the set is accepted when every error is at most tol + guard.
    rho and r are Python floats, and there are only k of each: the bounds
    are formed in scalar arithmetic, not in arrays.
    """
    rho, r, vectors = zip(*sorted(found, key=operator.itemgetter(0)))
    lo = [p - q - guard for p, q in zip(rho, r)]
    hi = [p + q + guard for p, q in zip(rho, r)]
    if not all(above > below for above, below in zip(lo[1:], hi)):
        return None
    top = hi[-1] if r[-1] <= tol else rho[-1] + (r[-1] + guard) ** 2 / tol
    # abstol spans the whole interval: dstebz counts, no bisection
    count, *_, info = _lapack().dstebz(diag, off, 1, floor - guard, top, 0, 0, top - floor,
                                       b"E")
    if info != 0 or count != len(found):
        return None
    for p, q, below, above in zip(rho, r, [-math.inf, *hi[:-1]], [*lo[1:], top]):
        error = q + guard if q <= tol else (q + guard) * (q + guard) / min(p - below, above - p)
        if not error <= tol + guard:
            return None
    return np.array(rho), vectors


def _certified_levels(values: np.ndarray, h: float, shifts, starts=None):
    """(levels, vectors): the len(shifts) lowest levels of the grid's matrix
    T, refined from the shifts by inverse iteration and accepted under a
    certificate (_certificate), with their unit iterates (a tuple, in
    ascending order of level); or bisected levels and None where the
    certificate fails.  Level i starts from the i-th vector of starts, an
    iterable read one level at a time, when given, else from the fixed
    pseudo-random vector of _random_start.

    Each level stops at r <= tol, or at r^2 <= tol*delta (Kato-Temple),
    delta a quarter of its shift's distance to the nearest other shift (0
    for a lone shift).  The start vectors and the early stops only change
    how fast the iteration gets there, never the bound an accepted level
    meets.

    The solve squares its residuals (r^2 above, (r + guard)^2 in the
    certificate, r itself as sqrt(res @ res)).  A residual is at most
    ||T - rho*I||_2 <= 2*||T||_1, so where (2*||T||_1)^2, from Gershgorin's
    bound, is not finite, UnsupportedError is raised before any iteration:
    float64 cannot hold the solve.  Below that, 1/(2*||T||_1)^2 > 0 also
    keeps v @ v of a solved unit vector from underflowing to 0.
    """
    diag, off = _tridiagonal(values, h)
    k = len(shifts)
    norm = _gershgorin_norm(diag, h)
    if not math.isfinite(4.0 * norm * norm):
        raise UnsupportedError(f"Gershgorin's bound {norm:.3g} on ||T||_1: the spectral "
                               f"solve's squared residuals overflow float64")
    floor = float(np.min(diag)) - 2.0 / (h * h)  # Gershgorin: no eigenvalue below it
    tol, guard = _RESIDUAL_ULPS * _EPS * norm, _GUARD_ULPS * _EPS * norm
    if starts is None:
        starts = [_random_start(values.size)] * k
    shifts = np.asarray(shifts, dtype=float)
    # sorted |s_i - s_j| of row i: 0 (itself), then the nearest other shift
    deltas = (0.25 * np.sort(np.abs(shifts[:, None] - shifts), axis=1)[:, 1] if k > 1
              else np.zeros(1))
    found = []
    for s, start, delta in zip(shifts, starts, deltas):
        found.append(_inverse_iteration(diag, off, float(s), start, tol, delta))
        if found[-1] is None:
            return _bisect(diag, off, 0, k - 1), None
    return (_certificate(diag, off, found, floor, tol, guard)
            or (_bisect(diag, off, 0, k - 1), None))


def solve_spectrum(potential: PotentialGrid, k: int, shifts=None) -> SpectrumResult:
    """k lowest Dirichlet eigenvalues of -d^2/dx^2 + V.

    The grid holds interior nodes of a uniform mesh; the Dirichlet walls sit
    one spacing outside both ends.  The spacing-doubled (subsampled)
    problem's levels are refined by inverse iteration from shifts, estimates
    of the k lowest levels, when they are given, and bisected otherwise.
    They are in turn the shifts from which the fine-grid levels are refined.
    When they were refined, their eigenvectors, interpolated linearly to the
    fine nodes (walls at 0) one level at a time (_prolong on one vector),
    are the fine grid's start vectors; after a bisection the fixed
    pseudo-random vector of _random_start starts every fine-grid level.
    Each refined level set is accepted only under a certificate on its own
    matrix (_certificate: disjoint residual intervals, a Sturm count, and a
    Weyl or Kato-Temple bound of tol + guard on every level), and that
    matrix is bisected where the certificate fails, so bad shifts or starts
    cost time but cannot yield wrong levels; a level may stop early on its
    Temple bound.
    The per-level error estimate compares the two grids, scaled by the 1/3
    factor of second-order Richardson extrapolation.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    if shifts is not None and len(shifts) != k:
        raise UsageError(f"{len(shifts)} shifts for k = {k} levels")
    n = potential.x.size
    if k > n // 8:
        raise UsageError(f"k = {k} too large for a {n}-point grid")
    steps = np.diff(potential.x)
    h = float(steps[0])
    if float(np.max(np.abs(steps - h))) > 1e-9 * h:
        raise UsageError("solve_spectrum needs a uniform grid")
    coarse_values = potential.values[1::2]
    if shifts is None:
        coarse, vectors = _lowest_eigenvalues(coarse_values, 2.0 * h, k), None
    else:
        coarse, vectors = _certified_levels(coarse_values, 2.0 * h, shifts)
    # one fine-grid start per level, made as that level's iteration begins
    starts = None if vectors is None else (_prolong(v, n) for v in vectors)
    evals, _ = _certified_levels(potential.values, h, coarse, starts)
    return SpectrumResult(eigenvalues=evals, error_estimates=np.abs(evals - coarse) / 3.0)


def dirichlet_grid(a: float, b: float, n: int) -> np.ndarray:
    """n interior nodes of a uniform mesh on [a, b] with walls at a and b."""
    return np.linspace(a, b, n + 2)[1:-1]


def _walk_edge(candidates: list, v: np.ndarray, finite: np.ndarray, target: float,
               margin: float) -> float:
    """The edge reached by walking the candidates while V there is below
    target and each step raises V by more than margin.  candidates[0] is
    the current edge; v is min over m of min(V-, V+) at each candidate and
    finite says where all of them are finite.  Reaching a candidate whose
    values are not finite raises UnsupportedError."""
    for k in range(len(candidates)):
        if not finite[k]:
            raise UnsupportedError(f"V is not finite at the window edge candidate "
                                   f"x = {candidates[k]:g}")
        if k and v[k] <= v[k - 1] + margin:
            return candidates[k - 1]  # plateau, or an attractive end
        if v[k] >= target:
            return candidates[k]
    return candidates[-1]


def _steps(start: float, n: int) -> list:
    """An infinite side's growth candidates: start, times 1.4 n times."""
    return list(itertools.accumulate(itertools.repeat(1.4, n), operator.mul, initial=start))


def _window_potential(family, x: np.ndarray, v_plus: np.ndarray) -> PotentialGrid:
    """V+ on a window's grid, or UnsupportedError where it is not finite
    there: float64 cannot hold the spectrum's potential."""
    if not np.all(np.isfinite(v_plus)):
        raise UnsupportedError(f"{family.name}: V+ is not finite on the spectral window "
                               f"[{x[0]:g}, {x[-1]:g}]")
    return PotentialGrid(x=x, values=v_plus)


def spectral_window(family: SuperpotentialFamily, m_values,
                    k: int) -> tuple[tuple[float, float], np.ndarray]:
    """((a, b), levels): a truncation window whose edge potentials dominate
    the top level sought, and the k lowest levels of V+(., m_values[0]) on
    the last probe grid, bisected to _SHIFT_ABSTOL*||T||_1: they only seed
    inverse iteration and set the edge target.

    Each pass bisects levels 0..k-1 of V+ on a 400-point probe grid of the
    current window, in one call, and takes the k-th level estimate from
    the top one; no bisection follows the last pass.  Edges grow (or the
    margins shrink) until V at both ends exceeds it plus a fixed margin;
    growth stops early when V saturates (hyperbolic plateaus), which is
    harmless for the constant-shift comparison because both potentials are
    truncated identically.  A pass depends only on the window it starts
    from, so the search stops after a pass that leaves the window
    unchanged, and after 3 passes at most.  The levels then belong to the
    returned window, except after a third pass that still moved an edge.
    V that is not finite on the probe grid or at a candidate the walk
    reaches raises UnsupportedError.  No region is checked here:
    check_isospectrality gates its m first.

    Every growth candidate of both sides follows from the window the pass
    starts from, so a pass evaluates W once, at every m, on the probe grid
    and all candidates together: the probe's V+ is row 0 of that table, and
    each side's walk reads its candidates' columns.
    """
    lo, hi = family.domain
    if math.isinf(lo) and math.isinf(hi):
        a, b = -8.0, 8.0
    elif math.isinf(hi):
        a, b = lo + 0.1, max(lo + 4.0, 1.0)
    else:
        width = hi - lo
        a, b = lo + 1e-3 * width, hi - 1e-3 * width

    for _ in range(3):
        start = (a, b)
        x = dirichlet_grid(a, b, _PROBE_POINTS)
        # the growth candidates of each side, from the window the pass
        # starts from: b grows on an infinite side, a on an infinite side
        # or, next to a finite end at 0, halves towards it
        right = _steps(b, 60) if math.isinf(hi) else []
        left, left_margin = [], 1.0
        if math.isinf(lo):
            left = _steps(a, 60)
        elif lo == 0.0:
            left, left_margin = [a], 0.0
            while left[-1] > 1e-4:
                left.append(left[-1] / 2.0)
        # one evaluation of W for the probe grid and every candidate at every
        # m.  Far candidates may overflow, so nothing is checked here; the
        # walk raises where it reaches a value that is not finite
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w, wd = _real_potential_values(family, np.concatenate([x, right, left]), m_values)
            w2 = w * w
            v_minus, v_plus = w2 - wd, w2 + wd
            edge_v = np.min(np.minimum(v_minus, v_plus)[:, x.size:], axis=0)
            finite = np.all(np.isfinite(v_minus) & np.isfinite(v_plus), axis=0)[x.size:]
        probe = _window_potential(family, x, v_plus[0, :x.size])
        h = x[1] - x[0]
        diag, off = _tridiagonal(probe.values, h)
        levels = _bisect(diag, off, 0, k - 1, _SHIFT_ABSTOL * _gershgorin_norm(diag, h))
        target = float(levels[-1]) + _EDGE_MARGIN_ABOVE_TOP_LEVEL

        n = len(right)
        if right:
            b = _walk_edge(right, edge_v[:n], finite[:n], target, 1.0)
        if left:
            a = _walk_edge(left, edge_v[n:], finite[n:], target, left_margin)
        if (a, b) == start:
            break
    return (float(a), float(b)), levels


def check_isospectrality(family: SuperpotentialFamily, m: float, k: int = DEFAULT_LEVELS,
                         n_points: int = DEFAULT_SPECTRUM_POINTS) -> IsospectralResult:
    """Weyl's bound on the level mismatch of spectrum(V+(., m)) vs
    spectrum(V-(., m-1)) + R over the k lowest levels, on one shared grid,
    and the levels of V+.

    The two matrices differ by the diagonal V+ - V- - R, so no level pair
    differs by more than its largest entry, the flatness of the remainder.
    The mismatch adds 4 eps/h^2 for the rounding in forming the two
    diagonals 2/h^2 + V.  V+ alone is solved, seeded with the window
    probe's levels (one bisection per window pass, to a shift tolerance)
    and certified on its own matrix.

    m and m - 1 pass superpotential.require_region first, so no pole of
    either partner lies in the window; V+ that is not finite on it raises
    UnsupportedError.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    if n_points < 8 * k:
        raise UsageError(f"k = {k} too large for a {n_points}-point grid")
    window, probe = spectral_window(family, require_region(family, (m, m - 1.0)), k)
    x = dirichlet_grid(window[0], window[1], n_points)
    v_plus, r, flatness = _plus_and_remainder(family, m, x)
    h = float(x[1] - x[0])
    return IsospectralResult(
        mismatch=flatness + 4.0 * _EPS / (h * h),
        remainder_value=r,
        flatness_residual=flatness,
        spectrum_plus=solve_spectrum(_window_potential(family, x, v_plus), k, shifts=probe),
        window=window,
    )
