"""Per-node and per-sphere reliability (Eqs. 2-4 of the paper).

The paper assumes fail-stop node failures arriving as a Poisson process,
i.e. exponentially distributed interarrival times with node MTBF
``theta``.  A node therefore survives an interval of length ``t`` with
probability ``R(t) = exp(-t/theta)`` (Eq. 2).

For large ``theta`` the paper linearises the failure probability as
``Pr(node failure) = t/theta`` (Eq. 3) and builds the rest of the
analysis on that form.  Both forms are provided here; every function
takes an ``exact`` flag (default ``False`` = the paper's linearisation)
so the ablation benchmark can quantify the linearisation error.

The linearised probability is clamped to ``[0, 1]`` — for very unreliable
configurations (``t > theta``) the raw linearisation exceeds 1 and would
otherwise produce negative reliabilities downstream in Eq. 9.

One implementation serves scalars and arrays: each of Eqs. 1-15 is a
private function over Python floats *or* NumPy arrays, with
transcendentals as NumPy ufuncs (``np.expm1`` here), plain arithmetic
operators, :func:`integer_power` for powers and :func:`_where` for
branches.  NumPy's element-wise loops give the same last-ULP result for
one cell and for a thousand (``libm``'s ``math.*`` functions do not),
so a grid cell is bit-identical to the scalar answer.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


def _where(condition, if_true, if_false):
    """``np.where`` for an array condition, a conditional expression otherwise.

    Every data-dependent branch of Eqs. 1-15 goes through here.  Both
    branch values are computed either way, so each must stay finite (or
    a harmless ``inf``) even where it is discarded.
    """
    if isinstance(condition, np.ndarray):
        return np.where(condition, if_true, if_false)
    return if_true if condition else if_false


def integer_power(base, exponent):
    """``base ** exponent`` by ascending repeated multiplication.

    ``pow``'s result differs between numpy's scalar path, numpy's array
    loops and libm; a fixed multiply chain is correctly rounded per step
    and therefore bit-identical for Python floats and numpy arrays
    alike.  Exponents on the model path are sphere replication levels —
    tiny integers — so the chain is short.

    ``exponent`` is a positive integer, or an array of integer-valued
    levels with one level per cell of ``base``: each cell's chain stops
    at its own level, so its result is the same as for a scalar call.
    """
    if isinstance(exponent, np.ndarray):
        lowest, highest = exponent.min(initial=1), exponent.max(initial=1)
    else:
        lowest = highest = exponent
    if lowest < 1:
        raise ConfigurationError(
            f"integer_power exponent must be >= 1, got {lowest}"
        )
    result = base
    for level in range(2, int(highest) + 1):
        result = _where(exponent >= level, result * base, result)
    return result


def _node_failure(t, theta, exact):
    """Eqs. 2-3: ``1 - exp(-t/theta)``, or ``t/theta`` clamped to 1."""
    if exact:
        return -np.expm1(-t / theta)
    ratio = t / theta
    return _where(ratio < 1.0, ratio, 1.0)


def _validate_time(t: float) -> None:
    if t < 0:
        raise ConfigurationError(f"time must be >= 0, got {t}")


def _validate_mtbf(theta: float) -> None:
    if theta <= 0:
        raise ConfigurationError(f"node MTBF must be > 0, got {theta}")


def node_failure_probability(t: float, theta: float, exact: bool = False) -> float:
    """Probability that one node fails before time ``t``.

    Parameters
    ----------
    t:
        Exposure interval (seconds).
    theta:
        Node mean time between failures (seconds).
    exact:
        ``True`` uses the exponential CDF ``1 - exp(-t/theta)`` (Eq. 2);
        ``False`` (default) uses the paper's linearisation ``t/theta``
        (Eq. 3), clamped to ``[0, 1]``.
    """
    _validate_time(t)
    _validate_mtbf(theta)
    return float(_node_failure(t, theta, exact))


def node_reliability(t: float, theta: float, exact: bool = False) -> float:
    """Probability that one node survives until time ``t`` (Eqs. 2-3)."""
    return 1.0 - node_failure_probability(t, theta, exact=exact)


def sphere_reliability(t: float, theta: float, k: int, exact: bool = False) -> float:
    """Probability that a ``k``-way replicated virtual process survives.

    Eq. 4 of the paper: a sphere of ``k`` independent, identically
    distributed replicas fails only if *all* replicas fail, so

    ``R_red(t) = 1 - (Pr(node failure))^k``.

    Parameters
    ----------
    k:
        Positive integer redundancy level of this sphere (1 = no
        redundancy).  Partial redundancy is handled one level up, by
        partitioning processes into integer-``k`` sets (Eqs. 5-8).
    """
    if not isinstance(k, int) or k < 1:
        raise ConfigurationError(f"sphere redundancy k must be an int >= 1, got {k!r}")
    failure = node_failure_probability(t, theta, exact=exact)
    return 1.0 - integer_power(failure, k)
