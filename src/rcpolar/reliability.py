"""Gaussian-approximation density evolution for punctured polar codes.

Tracks every synthesized bit channel as a one-parameter Gaussian LLR model
(variance = 2 * mean) through the polarization recursion, yielding per-channel
error probabilities and the information-set selection.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .codec import _is_int

# The two analytic pieces of the GA reliability function
#   phi(m) ~ exp(0.0218 - 0.4527 m^0.86)                      (small m)
#   phi(m) ~ sqrt(pi/m) exp(-m/4) (1 - 10/(7m))               (large m)
# intersect at this abscissa; switching exactly there keeps phi strictly
# decreasing, so _log_phi_inv can tell the piece from its closed-form root.
_PHI_CROSSOVER = 14.394352942168425

# Below this log-phi magnitude the product term in 1-(1-a)(1-b) is negligible
# relative to double precision and the update degrades to logaddexp.
_LOG_TINY = -30.0


def _log_phi_large(m):
    return 0.5 * (np.log(np.pi) - np.log(m)) - 0.25 * m \
        + np.log1p(-10.0 / (7.0 * m))


def _log_phi(m):
    """log phi(m) for the two-piece GA reliability function (vectorized)."""
    m = np.asarray(m, dtype=float)
    out = np.empty_like(m)
    low = m < _PHI_CROSSOVER
    out[low] = 0.0218 - 0.4527 * np.power(m[low], 0.86)
    out[~low] = _log_phi_large(m[~low])
    return out


def _log_phi_inv(log_y):
    """Inverse of _log_phi: closed form on the small-mean piece, four Newton
    steps on the large-mean one.

    Measured on 3.5M means, m -> _log_phi -> _log_phi_inv returns m to within
    5.2e-16 relative for m in [1, 1e9] and 2.3e-16 absolute below 1.
    """
    log_y = np.minimum(np.asarray(log_y, dtype=float), 0.0218)
    m = np.asarray(((0.0218 - log_y) / 0.4527) ** (1.0 / 0.86))
    high = m >= _PHI_CROSSOVER
    ly = log_y[high]
    mh = np.maximum(-4.0 * ly, _PHI_CROSSOVER)
    for _ in range(4):
        slope = -0.5 / mh - 0.25 + 10.0 / (mh * (7.0 * mh - 10.0))
        mh -= (_log_phi_large(mh) - ly) / slope
    m[high] = mh
    return m


def check_mean_update(m_a, m_b):
    """Mean of the degraded (check-type) channel from two Gaussian LLR means.

    Computes phi^-1(1 - (1 - phi(m_a)) (1 - phi(m_b))) without underflow: the
    argument 1-(1-a)(1-b) = a + b - a*b is evaluated in the log domain once
    either operand is tiny.  An exactly-zero mean (erased channel) is absorbing.
    """
    m_a = np.asarray(m_a, dtype=float)
    m_b = np.asarray(m_b, dtype=float)
    la, lb = _log_phi(m_a), _log_phi(m_b)
    small = (la < _LOG_TINY) | (lb < _LOG_TINY)
    log_arg = np.empty_like(la)
    a = np.exp(la[~small])
    b = np.exp(lb[~small])
    log_arg[~small] = np.log(np.maximum(a + b - a * b, 1e-300))
    # a*b is below relative double precision here; drop it
    log_arg[small] = np.logaddexp(la[small], lb[small])
    out = _log_phi_inv(log_arg)
    return np.where((m_a == 0.0) | (m_b == 0.0), 0.0, out)


def pe_from_mean(means):
    """Per-channel error probability Q(sqrt(mean/2)) of the Gaussian LLR model.

    Evaluated through the log of the normal tail so that values far below
    1e-12 remain meaningful instead of rounding to zero prematurely; a mean
    of 0 (an erased channel) gives exactly 0.5.
    """
    means = np.asarray(means, dtype=float)
    if not np.all(means >= 0):
        raise ValueError("LLR means must be nonnegative (NaN is rejected)")
    return np.exp(log_ndtr(-np.sqrt(0.5 * means)))


@dataclass(frozen=True, eq=False)
class ReliabilityTable:
    """Per-channel LLR means and error probabilities after polarization.

    ``means`` and ``pe`` have shape (N0,), or (M, N0) for a table of M stacked
    mother codes from :func:`ga_evolve`.
    """

    means: np.ndarray
    pe: np.ndarray

    @property
    def size(self) -> int:
        """Number of synthesized channels (per row of a stacked table)."""
        return self.means.shape[-1]


def ga_evolve(n0: int, ms, mean: float) -> ReliabilityTable:
    """GA tables of the quasi-uniformly punctured mother codes of length n0.

    Parameters
    ----------
    n0 : int
        Mother length, a power of two.
    ms : sequence of int
        Code lengths in (n0/2, n0]; row i is the mother code with the
        positions ``puncture_pattern(n0, ms[i])`` carrying mean 0.
    mean : float
        Gaussian LLR mean of every unpunctured channel use.

    Returns
    -------
    ReliabilityTable
        Means and error probabilities of the n0 synthesized channels, shape
        (len(ms), n0), indexed in input-bit order: index i is the channel
        seen by bit u_i.

    Position j pairs with j + L/2 inside each node of length L (the root is
    the codeword); the check-type output is the node's first child and the
    variable-type output (means add) its second, as in the codec's
    natural-order transform.  Under quasi-uniform puncturing a node of a row
    holds, in bit-reversed order, P zeros, then one value at position P,
    then the node's bulk value, which all rows share.  The check child has
    ceil(P/2) zeros and the variable child floor(P/2); a value at P that
    differs from the bulk needs its own check update only where P is even.
    Each stage makes one check-update call, and the table equals the
    position-by-position recursion bit for bit.
    """
    if not _is_int(n0) or n0 < 1 or (n0 & (n0 - 1)) != 0:
        raise ValueError(f"n0 must be an integer power of two, got {n0!r}")
    ms = np.asarray(ms)
    if ms.ndim != 1 or ms.dtype.kind not in "iu" \
            or not np.all((n0 // 2 < ms) & (ms <= n0)):
        raise ValueError(f"need integers n0/2 < m <= n0, got {ms} for n0={n0}")
    ms = ms.astype(np.int64)
    mean = float(mean)
    if not 0.0 <= mean < np.inf:
        raise ValueError(f"channel mean must be finite and nonnegative, "
                         f"got {mean}")
    # Per node: the shared bulk, and per row the zero count P and the
    # value at position P (the bulk where nothing differs).
    bulk = np.array([mean])
    zeros = (n0 - ms)[:, None]
    first = np.full(zeros.shape, mean)
    while bulk.size < n0:
        width = bulk.size
        odd = (zeros & 1).astype(bool)
        at = np.broadcast_to(bulk, first.shape)
        # In the check child, the value at even P meets the bulk; at odd P
        # it meets the last zero and the child starts with bulk.
        meets = (first != at) & ~odd
        check = check_mean_update(np.concatenate([bulk, first[meets]]),
                                  np.concatenate([bulk, at[meets]]))
        check_first = np.broadcast_to(check[:width], first.shape).copy()
        check_first[meets] = check[width:]
        # In the variable child, the value at even P adds the bulk; at odd
        # P it adds the last zero, which leaves it as it is.
        first = _children(check_first, np.where(odd, first, first + at))
        zeros = _children(zeros - (zeros >> 1), zeros >> 1)
        bulk = _children(check[:width], bulk + bulk)
    means = np.where(zeros > 0, 0.0, first)
    return ReliabilityTable(means=means, pe=pe_from_mean(means))


def _children(check, var):
    """Per-node values of the next stage: node b's check child is node 2b
    and its variable child node 2b + 1 (along the last axis)."""
    out = np.empty(check.shape[:-1] + (2 * check.shape[-1],), check.dtype)
    out[..., 0::2] = check
    out[..., 1::2] = var
    return out


def _bit_reversal(n0: int) -> np.ndarray:
    """Bit-reversal permutation of 0..n0-1, n0 a power of two."""
    nbits = n0.bit_length() - 1
    idx = np.arange(n0, dtype=np.int64)
    rev = np.zeros_like(idx)
    for b in range(nbits):
        rev |= ((idx >> b) & 1) << (nbits - 1 - b)
    return rev


def puncture_pattern(n0: int, m: int) -> np.ndarray:
    """Quasi-uniform puncturing: positions to delete from an N0-length codeword.

    Returns the sorted set of the first ``n0 - m`` entries of the bit-reversal
    permutation of 0..n0-1.  Requires n0/2 < m <= n0 with n0 a power of two.
    Bit reversal is its own inverse, so that set is the positions where the
    permutation is below ``n0 - m``.
    """
    if not _is_int(n0) or n0 < 1 or (n0 & (n0 - 1)) != 0:
        raise ValueError(f"n0 must be an integer power of two, got {n0!r}")
    if not (_is_int(m) and n0 // 2 < m <= n0):
        raise ValueError(f"need integer n0/2 < m <= n0, got m={m!r}, n0={n0}")
    return np.flatnonzero(_bit_reversal(int(n0)) < n0 - m)


def select_info_set(table: ReliabilityTable, k: int) -> np.ndarray:
    """Indices of the k most reliable channels (smallest pe), sorted ascending.

    Ties are broken toward the smaller channel index.  A stacked table gives
    one row of indices per mother code, from one row-wise stable argsort.
    """
    if not (_is_int(k) and 0 < k <= table.size):
        raise ValueError(f"k must be an integer in 1..{table.size}, got {k!r}")
    order = np.argsort(table.pe, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1).astype(np.int64)
