"""Encoder and successive-cancellation decoder for punctured polar codes
extended with repetition bits.

Conventions (pinned so that golden vectors stay stable):
  * natural-order transform on both sides -- no bit-reversal permutation;
  * frozen bits default to all-zero;
  * punctured positions enter the decoder as LLR exactly 0 (erasures);
  * repetition LLRs are added at the input-bit decision site of the mapped
    information index, i.e. after the full tree update for that bit.
"""

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class PolarCodeSpec:
    """Mother polar code with a puncture pattern.

    Parameters
    ----------
    n0 : int
        Mother code length, a power of two.
    info_set : ndarray
        Sorted input-bit indices carrying payload, |info_set| = k.
    puncture_set : ndarray
        Sorted codeword positions that are never transmitted; the surviving
        m = n0 - |puncture_set| positions satisfy m > n0/2.
    frozen_values : ndarray or None
        Values of the frozen bits in index order; None means all-zero.
    """

    n0: int
    info_set: np.ndarray
    puncture_set: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    frozen_values: np.ndarray | None = None

    def __post_init__(self):
        if self.n0 < 1 or (self.n0 & (self.n0 - 1)) != 0:
            raise ValueError(f"n0 must be a power of two, got {self.n0}")
        info = np.asarray(self.info_set, dtype=np.int64)
        punct = np.asarray(self.puncture_set, dtype=np.int64)
        object.__setattr__(self, "info_set", info)
        object.__setattr__(self, "puncture_set", punct)
        if info.size == 0 or np.unique(info).size != info.size:
            raise ValueError("info_set must be nonempty without duplicates")
        if info.min() < 0 or info.max() >= self.n0:
            raise ValueError("info_set indices out of range")
        if not np.all(np.diff(info) > 0):
            raise ValueError("info_set must be sorted ascending")
        if punct.size:
            if np.unique(punct).size != punct.size:
                raise ValueError("puncture_set must not contain duplicates")
            if punct.min() < 0 or punct.max() >= self.n0:
                raise ValueError("puncture_set indices out of range")
            if not np.all(np.diff(punct) > 0):
                raise ValueError("puncture_set must be sorted ascending")
        if punct.size >= self.n0 - self.n0 // 2:
            raise ValueError("at most n0/2 - 1 positions may be punctured")
        if self.frozen_values is not None:
            fv = np.asarray(self.frozen_values, dtype=np.int8)
            if fv.size != self.n0 - info.size:
                raise ValueError("frozen_values length must match frozen set size")
            object.__setattr__(self, "frozen_values", fv)

    @property
    def k(self) -> int:
        return int(self.info_set.size)

    @property
    def m(self) -> int:
        """Number of transmitted (polar) codeword bits."""
        return int(self.n0 - self.puncture_set.size)

    @property
    def frozen_set(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.n0, dtype=np.int64), self.info_set)

    @property
    def transmitted_positions(self) -> np.ndarray:
        """Codeword positions that survive puncturing, ascending."""
        return np.setdiff1d(np.arange(self.n0, dtype=np.int64), self.puncture_set)


@dataclass(frozen=True, eq=False)
class RcpCode:
    """Length-adjustable code: punctured polar word plus repetition bits.

    ``rep_vector[k]`` is the input-bit index (a member of the info set) whose
    value is re-sent as transmitted bit m + k.
    """

    spec: PolarCodeSpec
    rep_vector: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    def __post_init__(self):
        rep = np.asarray(self.rep_vector, dtype=np.int64)
        object.__setattr__(self, "rep_vector", rep)
        if self.spec.k > self.spec.m:
            raise ValueError("information length exceeds polar-bit count")
        if rep.size and not np.isin(rep, self.spec.info_set).all():
            raise ValueError("repetition entries must be information indices")

    @property
    def n(self) -> int:
        return int(self.spec.m + self.rep_vector.size)

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def m(self) -> int:
        return self.spec.m

    def prefix(self, n: int) -> "RcpCode":
        """The nested code using only the first ``n`` transmitted bits."""
        if not self.m <= n <= self.n:
            raise ValueError(f"prefix length must be in [{self.m}, {self.n}]")
        return RcpCode(spec=self.spec, rep_vector=self.rep_vector[: n - self.m])


def _expand_u(info_bits, spec: PolarCodeSpec):
    info_bits = np.asarray(info_bits, dtype=np.int8)
    batched = info_bits.ndim == 2
    if info_bits.shape[-1] != spec.k:
        raise ValueError(f"expected {spec.k} information bits, got {info_bits.shape[-1]}")
    shape = (info_bits.shape[0] if batched else 1, spec.n0)
    u = np.zeros(shape, dtype=np.int8)
    u[:, spec.info_set] = info_bits if batched else info_bits[None, :]
    if spec.frozen_values is not None:
        u[:, spec.frozen_set] = spec.frozen_values[None, :]
    return u, batched


def _butterfly(u):
    """x = u F^(kron n) over GF(2), natural order; operates on the last axis."""
    x = u.copy()
    n = x.shape[-1]
    step = 1
    while step < n:
        for i in range(0, n, 2 * step):
            x[..., i:i + step] ^= x[..., i + step:i + 2 * step]
        step <<= 1
    return x


def polar_encode(info_bits, spec: PolarCodeSpec):
    """Encode information bits into the full n0-length mother codeword.

    Accepts shape (k,) or a batch (B, k); the output has matching leading shape.
    """
    u, batched = _expand_u(info_bits, spec)
    x = _butterfly(u)
    return x if batched else x[0]


def rcp_encode(info_bits, code: RcpCode):
    """Encode into the transmitted word: surviving polar bits, then repetitions."""
    u, batched = _expand_u(info_bits, code.spec)
    x = _butterfly(u)
    tx = np.concatenate(
        [x[:, code.spec.transmitted_positions], u[:, code.rep_vector]], axis=1)
    return tx if batched else tx[0]


def f_update(a, b):
    """Exact check-node LLR combination 2*atanh(tanh(a/2)*tanh(b/2)).

    Evaluated in the numerically stable form
    sign(a)sign(b)*min(|a|,|b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|).
    """
    return (np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
            + np.log1p(np.exp(-np.abs(a + b)))
            - np.log1p(np.exp(-np.abs(a - b))))


def g_update(a, b, bits):
    """Variable-node LLR combination given the decided upper branch."""
    return b + (1.0 - 2.0 * bits) * a


def sc_decode(llrs, code: RcpCode, counter=None, return_decision_llrs=False):
    """Successive-cancellation decode of one or many received LLR words.

    Parameters
    ----------
    llrs : array-like, shape (n,) or (B, n)
        Received LLRs: first m entries are the surviving polar positions in
        ascending order, the rest are repetition observations.
    code : RcpCode
    counter : dict, optional
        If given, "f_ops" and "g_ops" are incremented by the number of
        per-word scalar updates performed (independent of batch size).
    return_decision_llrs : bool
        Also return the (B, n0) decision LLRs seen at every input bit.

    Returns
    -------
    ndarray of int8, shape (k,) or (B, k); optionally the decision LLRs.

    Raises ValueError on a length mismatch or any NaN/infinite LLR.
    """
    llrs = np.asarray(llrs, dtype=float)
    batched = llrs.ndim == 2
    if not batched:
        llrs = llrs[None, :]
    if llrs.shape[1] != code.n:
        raise ValueError(f"expected {code.n} LLRs, got {llrs.shape[1]}")
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")
    spec = code.spec
    b = llrs.shape[0]

    # Punctured positions are erasures: LLR exactly 0.
    chan = np.zeros((b, spec.n0))
    chan[:, spec.transmitted_positions] = llrs[:, : spec.m]

    # Repetition observations combine additively at the decision site of the
    # mapped input bit; duplicates accumulate.
    rep_sum = np.zeros((b, spec.n0))
    if code.rep_vector.size:
        np.add.at(rep_sum, (slice(None), code.rep_vector), llrs[:, spec.m:])

    frozen_mask = np.ones(spec.n0, dtype=bool)
    frozen_mask[spec.info_set] = False
    frozen_bits = np.zeros(spec.n0, dtype=np.int8)
    if spec.frozen_values is not None:
        frozen_bits[spec.frozen_set] = spec.frozen_values

    u_hat = np.zeros((b, spec.n0), dtype=np.int8)
    dec_llrs = np.empty((b, spec.n0)) if return_decision_llrs else None
    pos = 0

    def descend(block_llr):
        nonlocal pos
        width = block_llr.shape[1]
        if width == 1:
            i = pos
            pos += 1
            decision = block_llr[:, 0] + rep_sum[:, i]
            if dec_llrs is not None:
                dec_llrs[:, i] = decision
            if frozen_mask[i]:
                bits = np.full(b, frozen_bits[i], dtype=np.int8)
            else:
                bits = (decision < 0).astype(np.int8)
            u_hat[:, i] = bits
            return bits[:, None]
        half = width // 2
        la, lb = block_llr[:, :half], block_llr[:, half:]
        if counter is not None:
            counter["f_ops"] = counter.get("f_ops", 0) + half
        x_left = descend(f_update(la, lb))
        if counter is not None:
            counter["g_ops"] = counter.get("g_ops", 0) + half
        x_right = descend(g_update(la, lb, x_left))
        return np.concatenate([x_left ^ x_right, x_right], axis=1)

    descend(chan)
    out = u_hat[:, spec.info_set]
    if not batched:
        out = out[0]
        if dec_llrs is not None:
            dec_llrs = dec_llrs[0]
    if return_decision_llrs:
        return out, dec_llrs
    return out


# ---------------------------------------------------------------------------
# Golden-vector file format: one JSON object per line, hex-packed bits.

def bits_to_hex(bits) -> str:
    """Pack a bit vector MSB-first into a fixed-width hex string."""
    bits = np.asarray(bits, dtype=np.int8)
    if bits.size == 0:
        return ""
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return format(value, f"0{(bits.size + 3) // 4}x")


def hex_to_bits(hexstr: str, length: int) -> np.ndarray:
    """Inverse of :func:`bits_to_hex` given the original bit count."""
    if length == 0:
        return np.array([], dtype=np.int8)
    value = int(hexstr, 16)
    return np.array([(value >> (length - 1 - i)) & 1 for i in range(length)],
                    dtype=np.int8)


def code_to_dict(code: RcpCode) -> dict:
    """JSON-ready form; ``frozen_values`` appears only when the spec sets it."""
    d = {
        "n": code.n,
        "k": code.k,
        "m": code.m,
        "n0": code.spec.n0,
        "info_set": code.spec.info_set.tolist(),
        "puncture_set": code.spec.puncture_set.tolist(),
        "rep_vector": code.rep_vector.tolist(),
    }
    if code.spec.frozen_values is not None:
        d["frozen_values"] = code.spec.frozen_values.tolist()
    return d


def code_from_dict(d: dict) -> RcpCode:
    spec = PolarCodeSpec(
        n0=int(d["n0"]),
        info_set=np.array(d["info_set"], dtype=np.int64),
        puncture_set=np.array(d["puncture_set"], dtype=np.int64),
        frozen_values=d.get("frozen_values"),
    )
    return RcpCode(spec=spec, rep_vector=np.array(d["rep_vector"], dtype=np.int64))


def write_golden_vectors(fp, records) -> None:
    """Write (code, info_bits) pairs as JSON lines for regression checks."""
    for code, info_bits in records:
        row = {
            "spec": code_to_dict(code),
            "info_bits_hex": bits_to_hex(info_bits),
            "codeword_hex": bits_to_hex(rcp_encode(info_bits, code)),
        }
        fp.write(json.dumps(row, separators=(",", ":")) + "\n")


def check_golden_vectors(fp):
    """Yield (line_number, ok) for every stored vector re-encoded and compared."""
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        code = code_from_dict(row["spec"])
        info = hex_to_bits(row["info_bits_hex"], code.k)
        expect = hex_to_bits(row["codeword_hex"], code.n)
        yield lineno, bool(np.array_equal(rcp_encode(info, code), expect))
