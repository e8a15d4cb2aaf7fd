import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hypothesis import settings
from hypothesis import strategies as st

import starphase as sp
from starphase import rootfind

# Tier-1 is deterministic: every property test draws the same examples on
# every run, and no example database carries failures between runs
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

#: the four families exercised throughout the suite (kappa at the
#: radiation border 1/3; scaled at the default sigma = 8 pi)
FAMILY_ARGS = {
    "nonrel": {},
    "stiff": {},
    "scaled": {},
    "kappa": {"kappa": 1.0 / 3.0},
}

SIGMA = 8.0 * math.pi


def run_python(code, *flags):
    """Run ``code`` in a fresh interpreter with ``flags`` (such as ``-W
    error``) and this package on its path; the completed process."""
    src = os.path.dirname(os.path.dirname(sp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def drawn_models():
    """Hypothesis strategy over the members: the four presets, ``kappa``
    with kappa log-uniform in [1e-3, 1] and ``scaled`` with scale
    log-uniform in [1e-3, 1e3]."""
    return st.one_of(
        st.sampled_from(list(FAMILY_ARGS)).map(
            lambda name: sp.model(name, **FAMILY_ARGS[name])),
        st.floats(-3.0, 0.0).map(lambda e: sp.model("kappa", kappa=10.0 ** e)),
        st.floats(-3.0, 3.0).map(
            lambda e: sp.model("scaled", scale=10.0 ** e)))


#: scales that ``wide_scales`` always tries: two whose x_max overflows
#: (``ModelSpec`` refuses them), the smallest it accepts, one where H
#: overflows near x_max and one where it just does not, two ordinary
#: ones, two where Brent's steps underflowed before ``invert_H`` scaled
#: its objective, one where r(z) = 6 s overflows, the largest it accepts,
#: one whose c = 3 s overflows and the largest finite double (refused)
SCALE_EDGES = (1e-310, 5.562684646268003e-309, 5.56268464626801e-309,
               6e-309, 1e-307, 1.0, 1e12, 1e156, 1e300, 4e307,
               5.992310449541052e307, 5.992310449541053e307,
               sys.float_info.max)


def wide_scales():
    """Hypothesis strategy over ``scaled`` scales: log-uniform in
    [1e-310, 10^308.25], plus ``SCALE_EDGES``."""
    return st.one_of(
        st.sampled_from(SCALE_EDGES),
        st.floats(-310.0, 308.25).map(lambda e: max(10.0 ** e, 1e-310)))


@st.composite
def drawn_points(draw, m):
    """One x in [0, x_end) of member ``m``, x = z included (x below 100 z
    for the unbounded ``nonrel`` domain)."""
    hi = m.x_end if math.isfinite(m.x_end) else 100.0 * m.z
    return draw(st.one_of(st.just(m.z),
                          st.floats(0.0, hi, exclude_max=True)))


def orbit_case(family, kappa, e_scale, e_eps, e_rtol):
    """(model, config) of one draw of the orbit contract: a ``kappa`` or
    ``scaled`` member with its absolute tolerances shrunk by 1/s along
    with its lengths and V."""
    s = 10.0 ** e_scale if family == "scaled" else 1.0
    m = sp.model(family, kappa=kappa if family == "kappa" else None,
                 scale=s if family == "scaled" else None)
    base = sp.IntegratorConfig()
    cfg = sp.IntegratorConfig(eps_start=m.w / 10.0 * 10.0 ** -e_eps,
                              rel_tol=10.0 ** e_rtol,
                              abs_tol=base.abs_tol / s,
                              converge_radius=base.converge_radius / s,
                              v_threshold=base.v_threshold / s)
    return m, cfg


#: the parameter draws of the orbit contract, for ``orbit_case``
ORBIT_DRAWS = dict(family=st.sampled_from(["kappa", "scaled"]),
                   kappa=st.floats(0.02, 1.0), e_scale=st.floats(-3.0, 3.0),
                   e_eps=st.floats(0.0, 60.0, exclude_min=True),
                   e_rtol=st.floats(-12.0, -6.0))


@pytest.fixture(scope="session")
def models():
    out = {name: sp.model(name, **kw) for name, kw in FAMILY_ARGS.items()}
    out["kappa1"] = sp.model("kappa", kappa=1.0)
    return out


@pytest.fixture(scope="session", params=list(FAMILY_ARGS))
def each_model(request, models):
    return models[request.param]


@pytest.fixture(scope="session")
def trajectories(models):
    """One default-config shoot per family, shared across tests."""
    return {name: sp.shoot_heteroclinic(models[name])
            for name in FAMILY_ARGS}


def raised_a_model(base):
    """``base`` with a raised by 20 x left of w/2, where the tangent-line
    inequality of ``check_hypotheses`` and the line fact of the trap
    region fail; a(0) and the root of w's objective are unchanged."""
    return dataclasses.replace(base, a=lambda x: base.a(x) + np.where(
        np.asarray(x) < 0.5 * base.w, 20.0 * np.asarray(x), 0.0))


def count_root_solves(monkeypatch):
    """Count the ``solve_bracketed`` calls made through
    ``starphase.rootfind``."""
    calls = [0]
    original = rootfind.solve_bracketed

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(rootfind, "solve_bracketed", counting)
    return calls


#: ulps by which ``invert_H`` may differ from ``machine_root`` on the
#: same bracket
X_ULPS = 15


def ulps(a, b):
    """How many doubles lie from ``a`` to ``b``, both finite with the same
    sign."""
    return abs(int(np.float64(a).view(np.int64))
               - int(np.float64(b).view(np.int64)))


def machine_root(f, lo, x_max):
    """Root of ``f`` on the bracket that ``rootfind.expand_bracket`` finds
    on (lo, x_max), by scipy's brentq at machine precision: xtol is the
    smallest double and rtol scipy's least, 4 eps."""
    from scipy.optimize import brentq
    a, b = rootfind.expand_bracket(f, lo, x_max)
    return a if a == b else brentq(f, a, b, xtol=5e-324, maxiter=1000)


def near_machine_root(m, got, want):
    """Whether an H inversion ``got`` of member ``m`` is as accurate as
    its objective allows, against the ``machine_root`` ``want``: within
    X_ULPS ulps, or within 8 eps ell / H'(want), the rounding eps ell of
    H's terms (ell = x_max, 1 for ``nonrel``) mapped through the slope
    H' = z b - a, where the level lies near z or H's terms are large
    against x."""
    if ulps(got, want) <= X_ULPS:
        return True
    ell = m.x_max if m.x_max < math.inf else 1.0
    slope = m.z * m.b(want) - m.a(want)
    return abs(got - want) * slope <= 8.0 * 2.0 ** -52 * ell


def random_domain_points(m, n, seed=0):
    """Uniform sample of the phase domain (x capped at 0.95 x_max, y in
    a band around z that keeps log y well conditioned)."""
    rng = np.random.default_rng(seed)
    x_hi = 0.95 * m.x_max if math.isfinite(m.x_max) else 2.5 * m.z
    xs = rng.uniform(0.0, x_hi, n)
    ys = rng.uniform(0.05 * m.z, 4.0 * m.z, n)
    return xs, ys


def max_fd_deviation(m, n, seed=0):
    """Worst |analytic orbital derivative - grad(V).field| relative to
    1 + |value|, the gradient taken by central differences with steps
    scaled to the family's domain size."""
    xs, ys = random_domain_points(m, n, seed)
    hx = 1e-6 * (m.x_max if math.isfinite(m.x_max) else 1.0)
    hy = 1e-6 * np.maximum(ys, m.z)
    xs = np.clip(xs, 2.0 * hx, None)
    dx, dy = sp.eval_field(m, xs, ys)
    vx = (np.asarray(sp.lyapunov_value(m, xs + hx, ys))
          - np.asarray(sp.lyapunov_value(m, xs - hx, ys))) / (2 * hx)
    vy = (np.asarray(sp.lyapunov_value(m, xs, ys + hy))
          - np.asarray(sp.lyapunov_value(m, xs, ys - hy))) / (2 * hy)
    fd = vx * np.asarray(dx) + vy * np.asarray(dy)
    analytic = np.asarray(sp.lyapunov_derivative(m, xs, ys))
    return float(np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic))))
