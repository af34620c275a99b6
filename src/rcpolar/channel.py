"""Binary-input AWGN channel: BPSK mapping, LLR demodulation, symmetric capacity."""

from dataclasses import dataclass

import numpy as np

from .codec import _bits, _is_int, _real

# Channel LLRs are saturated at this magnitude so that downstream tanh-domain
# arithmetic never sees infinities.  |LLR| = 40 corresponds to an error
# probability around 4e-18, far beyond any decision-relevant scale.
LLR_CLAMP = 40.0


@dataclass(frozen=True)
class ChannelParams:
    """Operating point of the BPSK-input AWGN channel.

    ``snr_db``, the symbol SNR Es/N0 in decibels, is stored as a float.  The
    noise standard deviation per dimension is ``sqrt(0.5 * 10^(-snr_db/10))``.
    For a rate-R code the bit SNR is ``Eb/N0 [dB] = snr_db - 10*log10(R)``.
    """

    snr_db: float

    def __post_init__(self):
        snr = self.snr_db
        object.__setattr__(self, "snr_db", _real(snr))
        try:
            var = self.noise_var
        except OverflowError:  # 10.0 ** x for x above about 308
            var = float("inf")
        if not 0.0 < var < float("inf"):
            raise ValueError("snr_db must be a real number with a finite, "
                             f"positive noise variance, got {snr!r}")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(0.5 * 10.0 ** (-self.snr_db / 10.0)))

    @property
    def noise_var(self) -> float:
        return self.sigma ** 2


@dataclass(frozen=True)
class LlrDistribution:
    """One-parameter Gaussian model of a bit-channel LLR density.

    Under all-zero transmission the LLR of a symmetric channel is modelled as
    Normal(mean, 2*mean); mean == 0 encodes a zero-capacity (erased) channel.
    """

    mean: float

    def __post_init__(self):
        if not _real(self.mean) >= 0:
            raise ValueError("LLR mean must be a nonnegative real number, "
                             f"got {self.mean!r}")


def _philox_keys(base: int, lo: int, count: int) -> np.ndarray:
    """Philox keys of the streams ``(base, lo), ..., (base, lo + count - 1)``:
    row j is ``[base, lo + j]`` as uint64.  A seed or index that is not an
    integer in [0, 2^64) raises ``ValueError`` instead of aliasing another
    stream.
    """
    if not (_is_int(base) and _is_int(lo) and _is_int(count)
            and 0 <= base < 2 ** 64 and 0 <= lo <= lo + count <= 2 ** 64):
        raise ValueError(f"streams ({base}, {lo}) .. ({base}, {lo + count - 1})"
                         " need an integer seed and indices in [0, 2^64)")
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = base
    keys[:, 1] = np.arange(lo, lo + count, dtype=np.uint64)
    return keys


def noise_stream(seed) -> np.random.Generator:
    """Deterministic random stream of the trial ``seed = (base_seed, index)``.

    Pairs map to distinct Philox keys, so the streams for ``(base_seed, 0),
    (base_seed, 1), ...`` are statistically independent and reproducible
    regardless of scheduling; this is the seed-derivation rule used for
    parallel Monte Carlo trials.  :func:`trial_draws` gives the same numbers
    for a range of trials by re-keying one generator with the same rule.
    """
    return np.random.Generator(np.random.Philox(key=_philox_keys(*seed, 1)[0]))


def trial_draws(base_seed: int, lo: int, hi: int, k: int, n: int, out=None):
    """Blocks and unit-variance noise of Monte Carlo trials [lo, hi).

    Row i of ``bits`` (int8, shape (hi - lo, k)) and of ``noise`` (float64,
    shape (hi - lo, n)) are what ``noise_stream((base_seed, lo + i))`` gives
    for ``.integers(0, 2, size=k, dtype=np.int8)`` followed by
    ``.standard_normal(n)``.  One generator is re-keyed per trial instead
    of building a new one, and each block is read from ``ceil(k/8)`` raw
    64-bit words: for a range of 2, numpy's bounded int8 draw returns the
    top bit of each byte, bytes taken low first from each 32-bit half, low
    half first; the normals start at the next word, so the blocks are the
    same at any n.  A property test checks both against numpy exactly.
    The noise is written into ``out``, a (hi - lo, n) float64 array with
    contiguous rows, if given.
    """
    if not (_is_int(k) and _is_int(n) and k >= 1 and n >= 0):
        raise ValueError("need integers k >= 1 and n >= 0, "
                         f"got k={k!r}, n={n!r}")
    count = hi - lo
    if out is not None and not (isinstance(out, np.ndarray)
                                and out.dtype == np.float64
                                and out.shape == (count, n)):
        raise ValueError(f"out must be a ({count}, {n}) float64 array")
    rng = noise_stream((base_seed, lo))
    bitgen = rng.bit_generator
    # A fresh state (zero counter, empty buffers) held as Python ints,
    # which the state setter reads faster than numpy arrays.
    fresh = bitgen.state
    fresh["state"]["counter"] = fresh["state"]["counter"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    keys = _philox_keys(base_seed, lo, count).tolist()
    words = -(-k // 8)
    raw = np.empty((count, words), dtype=np.uint64)
    noise = np.empty((count, n)) if out is None else out
    for i in range(count):
        fresh["state"]["key"] = keys[i]
        bitgen.state = fresh
        raw[i] = bitgen.random_raw(words)
        rng.standard_normal(out=noise[i])
    octets = raw.astype("<u8", copy=False).view(np.uint8)
    return (octets[:, :k] >> 7).view(np.int8), noise


def observation_to_llr(y, params: ChannelParams, out=None):
    """LLR of BPSK observations: 2*y/sigma^2, saturated at +/-LLR_CLAMP;
    written into ``out`` if given (``y`` itself may be ``out``)."""
    llr = np.multiply(2.0, y, out=np.empty(np.shape(y)) if out is None
                      else out)
    llr /= params.noise_var
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP, out=llr)


def transmit(words, noise, params: ChannelParams, out=None):
    """LLRs of binary ``words`` sent as BPSK (0 -> +1, 1 -> -1) through
    the channel with unit-variance ``noise`` of the same shape, scaled by
    ``params.sigma``; clamped to +/-LLR_CLAMP.  Without ``out`` a pure
    function; with it, the LLRs are written into ``out``, a float64 array
    of the words' shape, which may be ``noise`` itself.

    The LLRs are built in one float array: sigma*noise, plus the symbols
    1 - 2w as int8 (exact once cast, and IEEE addition commutes, so each
    value is rounded as (1 - 2w) + sigma*noise), then scaled and clamped in
    place; each element gets the same arithmetic with or without ``out``.
    Raises ValueError unless every word entry is 0 or 1.
    """
    words = _bits(words, "words")
    if np.shape(noise) != words.shape:
        raise ValueError("transmit expects noise of the words' shape, got "
                         f"{words.shape} and {np.shape(noise)}")
    if out is None:
        out = np.empty(words.shape)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == words.shape):
        raise ValueError(f"out must be a float64 array of shape {words.shape}")
    llr = np.multiply(noise, params.sigma, out=out)
    symbols = np.multiply(words, np.int8(-2))
    symbols += np.int8(1)
    np.add(llr, symbols, out=llr)
    return observation_to_llr(llr, params, out=llr)


def channel_llr_distribution(params: ChannelParams) -> LlrDistribution:
    """Gaussian LLR model of the raw channel: mean 2/sigma^2 (variance twice that)."""
    return LlrDistribution(mean=2.0 / params.noise_var)


def bawgn_capacity(params: ChannelParams) -> float:
    """Symmetric capacity of the BPSK-input AWGN channel, in bits per use.

    Evaluates C = 1 - E[log2(1 + exp(-L))] with L ~ Normal(m, 2m), m = 2/sigma^2,
    by Gauss-Hermite quadrature with 128 points.
    """
    t, w = np.polynomial.hermite.hermgauss(128)
    m = 2.0 / params.noise_var
    llr = m + np.sqrt(2.0 * m) * np.sqrt(2.0) * t
    # log2(1 + e^-L), computed stably for large |L|
    integrand = np.logaddexp(0.0, -llr) / np.log(2.0)
    c = 1.0 - float(np.dot(w, integrand)) / np.sqrt(np.pi)
    return min(max(c, 0.0), 1.0)
