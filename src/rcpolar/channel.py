"""Binary-input AWGN channel: BPSK mapping, LLR demodulation, symmetric capacity."""

from dataclasses import dataclass

import numpy as np

# Channel LLRs are saturated at this magnitude so that downstream tanh-domain
# arithmetic never sees infinities.  |LLR| = 40 corresponds to an error
# probability around 4e-18, far beyond any decision-relevant scale.
LLR_CLAMP = 40.0


@dataclass(frozen=True)
class ChannelParams:
    """Operating point of the BPSK-input AWGN channel.

    ``snr_db`` is the symbol SNR Es/N0 in decibels.  The per-dimension noise
    standard deviation follows as ``sigma = sqrt(1 / (2 * 10^(snr_db/10)))``.
    For a rate-R code the bit SNR is ``Eb/N0 [dB] = snr_db - 10*log10(R)``.
    """

    snr_db: float

    def __post_init__(self):
        try:
            var = self.noise_var
        except OverflowError:  # 10.0 ** x for x above about 308
            var = float("inf")
        if not 0.0 < var < float("inf"):
            raise ValueError(f"snr_db {self.snr_db!r} gives noise variance "
                             f"{var!r}, not finite and positive")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(0.5 * 10.0 ** (-self.snr_db / 10.0)))

    @property
    def noise_var(self) -> float:
        return self.sigma ** 2

    @staticmethod
    def from_sigma(sigma: float) -> "ChannelParams":
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        return ChannelParams(snr_db=float(-10.0 * np.log10(2.0 * sigma ** 2)))


@dataclass(frozen=True)
class LlrDistribution:
    """One-parameter Gaussian model of a bit-channel LLR density.

    Under all-zero transmission the LLR of a symmetric channel is modelled as
    Normal(mean, 2*mean); mean == 0 encodes a zero-capacity (erased) channel.
    """

    mean: float

    def __post_init__(self):
        if not self.mean >= 0:
            raise ValueError(f"LLR mean must be nonnegative, got {self.mean}")


def _philox_keys(base: int, lo: int, count: int) -> np.ndarray:
    """Philox keys of the streams ``(base, lo), ..., (base, lo + count - 1)``:
    row j is ``[base, lo + j]`` as uint64.  A seed or index outside
    [0, 2^64) raises ``ValueError`` instead of aliasing another stream.
    """
    if not (0 <= base < 2 ** 64 and 0 <= lo <= lo + count <= 2 ** 64):
        raise ValueError(f"streams ({base}, {lo}) .. ({base}, {lo + count - 1})"
                         " need a seed and indices in [0, 2^64)")
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


def trial_draws(base_seed: int, lo: int, hi: int, k: int, n: int):
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
    """
    count = hi - lo
    rng = noise_stream((base_seed, lo))
    bitgen = rng.bit_generator
    fresh = bitgen.state  # zero counter, empty buffers
    keys = _philox_keys(base_seed, lo, count)
    words = -(-k // 8)
    raw = np.empty((count, words), dtype=np.uint64)
    noise = np.empty((count, n))
    for i in range(count):
        fresh["state"]["key"] = keys[i]
        bitgen.state = fresh
        raw[i] = bitgen.random_raw(words)
        rng.standard_normal(out=noise[i])
    octets = raw.astype("<u8", copy=False).view(np.uint8)
    return (octets[:, :k] >> 7).view(np.int8), noise


def observation_to_llr(y, params: ChannelParams):
    """LLR of BPSK observations: 2*y/sigma^2, saturated at +/-LLR_CLAMP."""
    llr = 2.0 * np.asarray(y, dtype=float) / params.noise_var
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP)


def transmit(words, noise, params: ChannelParams):
    """LLRs of binary ``words`` sent as BPSK (0 -> +1, 1 -> -1) through
    the channel with unit-variance ``noise`` of the same shape, scaled by
    ``params.sigma``; clamped to +/-LLR_CLAMP.  A pure function.
    """
    words = np.asarray(words)
    if np.shape(noise) != words.shape or (words != words.astype(bool)).any():
        raise ValueError("transmit expects binary words and noise of their "
                         f"shape, got {words.shape} and {np.shape(noise)}")
    return observation_to_llr((1.0 - 2.0 * words) + params.sigma * noise,
                              params)


def channel_llr_distribution(params: ChannelParams) -> LlrDistribution:
    """Gaussian LLR model of the raw channel: mean 2/sigma^2 (variance twice that)."""
    return LlrDistribution(mean=2.0 / params.noise_var)


def bawgn_capacity(params: ChannelParams, nodes: int = 128) -> float:
    """Symmetric capacity of the BPSK-input AWGN channel, in bits per use.

    Evaluates C = 1 - E[log2(1 + exp(-L))] with L ~ Normal(m, 2m), m = 2/sigma^2,
    by Gauss-Hermite quadrature with ``nodes`` points (>= 64 for the default
    accuracy target).
    """
    if nodes < 64:
        raise ValueError("use at least 64 quadrature nodes")
    t, w = np.polynomial.hermite.hermgauss(nodes)
    m = 2.0 / params.noise_var
    llr = m + np.sqrt(2.0 * m) * np.sqrt(2.0) * t
    # log2(1 + e^-L), computed stably for large |L|
    integrand = np.logaddexp(0.0, -llr) / np.log(2.0)
    c = 1.0 - float(np.dot(w, integrand)) / np.sqrt(np.pi)
    return min(max(c, 0.0), 1.0)
