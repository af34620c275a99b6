"""Gaussian-approximation density evolution for punctured polar codes.

Tracks every synthesized bit channel as a one-parameter Gaussian LLR model
(variance = 2 * mean) through the polarization recursion, yielding per-channel
error probabilities and the information-set selection.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import log_ndtr

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
    1e-12 remain meaningful instead of rounding to zero prematurely.
    """
    means = np.asarray(means, dtype=float)
    if not np.all(means >= 0):
        raise ValueError("LLR means must be nonnegative (NaN is rejected)")
    out = np.full(means.shape, 0.5)
    pos = means > 0
    out[pos] = np.exp(log_ndtr(-np.sqrt(0.5 * means[pos])))
    return out


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

    def to_csv(self, fp) -> None:
        """Write an ``index,mean,pe`` header and one row per channel."""
        fp.write("index,mean,pe\n")
        for i, (m, p) in enumerate(zip(self.means, self.pe)):
            fp.write(f"{i},{float(m)!r},{float(p)!r}\n")


def ga_evolve(channel_means) -> ReliabilityTable:
    """Evolve per-use channel LLR means through the polarization transform.

    Parameters
    ----------
    channel_means : array-like, shape (N0,) or (M, N0)
        Gaussian LLR mean of every channel use, in codeword order; punctured
        positions carry 0.  N0 must be a power of two.  A 2-D array stacks M
        independent mother codes of the same length; each row evolves exactly
        as it would on its own.

    Returns
    -------
    ReliabilityTable
        Means and error probabilities of the N0 synthesized channels, indexed
        in input-bit order: index i is the channel seen by bit u_i.  Arrays
        have the shape of ``channel_means``.

    The recursion pairs use j with use j + block/2 inside each block; the
    check-type output feeds the first half of the bit indices and the
    variable-type output (means add) the second half, matching the codec's
    natural-order transform.  Each stage evolves every row at once, on
    contiguous copies of the two half-blocks.  Peak memory is about 9 times
    the input (traced), so callers stacking many rows pass them in blocks.
    """
    means = np.array(channel_means, dtype=float)
    if means.ndim not in (1, 2):
        raise ValueError(f"need a 1-D or 2-D array of means, got {means.ndim}-D")
    n0 = means.shape[-1]
    if n0 < 1 or (n0 & (n0 - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n0}")
    if not np.all(means >= 0):
        raise ValueError("channel means must be nonnegative (NaN is rejected)")
    n_rows = means.size // n0
    work = means
    half = n0
    while half > 1:
        half >>= 1
        pairs = work.reshape(n_rows, n0 // (2 * half), 2, half)
        upper = np.ascontiguousarray(pairs[:, :, 0])
        lower = np.ascontiguousarray(pairs[:, :, 1])
        work = np.empty_like(pairs)
        work[:, :, 0] = check_mean_update(upper, lower)
        work[:, :, 1] = upper + lower
    work = work.reshape(means.shape)
    return ReliabilityTable(means=work, pe=pe_from_mean(work))


@lru_cache(maxsize=None)
def _bit_reversal(n0: int) -> np.ndarray:
    """Read-only bit-reversal permutation of 0..n0-1, n0 a power of two."""
    nbits = n0.bit_length() - 1
    idx = np.arange(n0, dtype=np.int64)
    rev = np.zeros_like(idx)
    for b in range(nbits):
        rev |= ((idx >> b) & 1) << (nbits - 1 - b)
    rev.flags.writeable = False
    return rev


def puncture_pattern(n0: int, m: int) -> np.ndarray:
    """Quasi-uniform puncturing: positions to delete from an N0-length codeword.

    Returns the sorted set of the first ``n0 - m`` entries of the bit-reversal
    permutation of 0..n0-1.  Requires n0/2 < m <= n0 with n0 a power of two.
    Bit reversal is its own inverse, so that set is the positions where the
    permutation is below ``n0 - m``.
    """
    if n0 < 1 or (n0 & (n0 - 1)) != 0:
        raise ValueError(f"n0 must be a power of two, got {n0}")
    if not n0 // 2 < m <= n0:
        raise ValueError(f"need n0/2 < m <= n0, got m={m}, n0={n0}")
    return np.flatnonzero(_bit_reversal(int(n0)) < n0 - m)


def select_info_set(table: ReliabilityTable, k: int) -> np.ndarray:
    """Indices of the k most reliable channels (smallest pe), sorted ascending.

    Ties are broken toward the smaller channel index.  A stacked table gives
    one row of indices per mother code, from one row-wise stable argsort.
    """
    if not 0 < k <= table.size:
        raise ValueError(f"k must be in 1..{table.size}, got {k}")
    order = np.argsort(table.pe, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1).astype(np.int64)
