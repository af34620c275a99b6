"""Encoder and successive-cancellation decoder for punctured polar codes
extended with repetition bits.

Conventions (pinned so that golden vectors stay stable):
  * natural-order transform on both sides -- no bit-reversal permutation;
  * frozen bits are zero: on a symmetric channel such as the BI-AWGN their
    values do not change the error probability (Arikan 2009);
  * punctured positions enter the decoder as LLR exactly 0 (erasures);
  * repetition LLRs are added at the input-bit decision site of the mapped
    information index, i.e. after the full tree update for that bit.

Dead blocks: an aligned block of leaves that holds no information bit
decides nothing, so :func:`sc_decode` computes no LLR inside it (Rate-0
nodes, Alamdar-Yazdi & Kschischang 2011).  Its partial sums are all zero.

Invariant behind :func:`round_failures`: repetition LLRs enter only at
decision sites, so the tree LLRs at input bit i depend on the channel LLRs
and the decisions on bits 0..i-1 alone.  On a block's true trajectory, where
every earlier decision equals the block sent, each leaf LLR is therefore one
number per received polar word, bit for bit, whatever repetitions a round
adds; :func:`sc_decode` given the blocks sent walks that trajectory, with
every partial sum re-encoded from the block instead of from a decision.  SC
decodes a block right exactly when every decision along the true trajectory
is right (Arikan 2009): while all are right the decoder stays on that
trajectory, and at the first wrong one it has decided wrongly.  So a round
fails exactly when, at some bit, the true-path leaf LLR plus the round's
repetition sum decides against the block sent.

Workspace: a Monte Carlo run can decode every chunk in one flat float64
array, laid out by :func:`decode_workspace`.  For B words of a code its
first n0*B entries are the channel level ``chan`` (zero at punctured rows);
the next max(n0, n)*B entries first hold the (B, n) received LLRs and then,
over the same entries, the (n0, B) tree levels.  Aliasing rule: LLRs may lie
in that tree half, never in ``chan``.  :func:`sc_decode` and
:func:`round_failures` read every LLR they use, the channel level and every
round's repetition sums, before the first tree level is written, so after
such a decode the LLRs are gone.
"""

from dataclasses import dataclass, replace

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max


def _is_int(value) -> bool:
    """An integer, numpy's included, and not a bool."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, (bool, np.bool_)))


def _real(value) -> float:
    """``value`` as a float if it is an integer or a float, numpy's included,
    and not a bool; NaN for other values and ints beyond the float range."""
    try:
        return (float(value) if _is_int(value)
                or isinstance(value, (float, np.floating)) else np.nan)
    except OverflowError:
        return np.nan


def _indices(values, name: str) -> np.ndarray:
    """``values`` as an int64 index array.  Raises ValueError unless every
    entry is an integer (a float would be truncated, a bool read as 0 or
    1) that fits in int64; an empty list is valid.  A ``range`` and an
    ndarray are converted directly; any other input is checked entry by
    entry, as an object array."""
    try:
        if isinstance(values, range):
            return np.fromiter(values, dtype=np.int64, count=len(values))
        arr = values if isinstance(values, np.ndarray) else np.asarray(
            values, dtype=object)
        if arr.dtype == object:
            valid = all(_is_int(v) for v in arr.flat)
        else:
            valid = arr.size == 0 or (
                np.issubdtype(arr.dtype, np.integer)
                and (arr.dtype != np.uint64 or arr.max() <= _INT64_MAX))
        if valid:
            return np.asarray(arr, dtype=np.int64)
    except OverflowError:  # an int beyond int64
        pass
    raise ValueError(f"{name} entries must be integers in int64, "
                     f"got {values!r}")


def _bits(values, name: str) -> np.ndarray:
    """``values`` as an int8 array of bits.  Raises ValueError unless every
    entry equals its bool cast: 0 or 1 of any number type, not 2, -1, 0.5
    or NaN.  int8 input is checked in one pass."""
    bits = np.asarray(values)
    if bits.dtype != np.int8 and (bits == bits.astype(bool)).all():
        bits = bits.astype(np.int8)
    if bits.dtype != np.int8 or bits.view(np.uint8).max(initial=0) > 1:
        raise ValueError(f"{name} must hold 0/1 bits")
    return bits


@dataclass(frozen=True, eq=False)
class RcpCode:
    """Length-adjustable code: a punctured polar word plus repetition bits.

    ``n0`` is the mother code length, a power of two.  ``info_set`` holds
    the k input-bit indices carrying payload and ``puncture_set`` the
    codeword positions never transmitted, both sorted ascending; the
    m = n0 - |puncture_set| > n0/2 surviving positions are at least k.
    ``rep_vector[j]`` is the information index whose value is re-sent as
    transmitted bit m + j.  Every index is an integer (a float or a bool
    raises ValueError instead of being truncated), kept in int64 arrays.
    """

    n0: int
    info_set: np.ndarray
    puncture_set: np.ndarray = ()
    rep_vector: np.ndarray = ()

    def __post_init__(self):
        if (not _is_int(self.n0) or not 1 <= self.n0 <= 2 ** 62
                or self.n0 & (self.n0 - 1)):
            raise ValueError("n0 must be an integer power of two up to "
                             f"2^62, got {self.n0!r}")
        object.__setattr__(self, "n0", int(self.n0))
        for name in ("info_set", "puncture_set", "rep_vector"):
            object.__setattr__(self, name, _indices(getattr(self, name), name))
        info, punct, rep = self.info_set, self.puncture_set, self.rep_vector
        if info.size == 0:
            raise ValueError("info_set must be nonempty")
        # Strictly ascending rules out duplicates and puts the extremes at
        # the ends.
        for name, idx in (("info_set", info), ("puncture_set", punct)):
            if idx.ndim != 1 or not (idx[1:] > idx[:-1]).all():
                raise ValueError(f"{name} must be 1-D, sorted ascending "
                                 "without duplicates")
            if idx.size and (idx[0] < 0 or idx[-1] >= self.n0):
                raise ValueError(f"{name} indices out of range")
        if punct.size >= self.n0 - self.n0 // 2:
            raise ValueError("at most n0/2 - 1 positions may be punctured")
        if self.k > self.m:
            raise ValueError("information length exceeds polar-bit count")
        if rep.ndim != 1 or not np.isin(rep, info).all():
            raise ValueError("rep_vector must be 1-D information indices")

    @property
    def k(self) -> int:
        return int(self.info_set.size)

    @property
    def m(self) -> int:
        """Number of transmitted (polar) codeword bits."""
        return int(self.n0 - self.puncture_set.size)

    @property
    def n(self) -> int:
        return int(self.m + self.rep_vector.size)

    @property
    def transmitted_positions(self) -> np.ndarray:
        """Codeword positions that survive puncturing, ascending."""
        return np.setdiff1d(np.arange(self.n0, dtype=np.int64), self.puncture_set)

    def prefix(self, n: int) -> "RcpCode":
        """The nested code using only the first ``n`` transmitted bits."""
        if not self.m <= n <= self.n:
            raise ValueError(f"prefix length must be in [{self.m}, {self.n}]")
        return replace(self, rep_vector=self.rep_vector[: n - self.m])


def rcp_encode(info_bits, code: RcpCode):
    """Encode shape (k,) or a batch (B, k) of 0/1 bits into the transmitted
    word: surviving polar bits, then repetitions.

    The polar word is x = u F^(kron n) over GF(2) in natural order, built on
    (n0, B) input words, one per column, by one XOR of each block's halves
    per stage.
    """
    info_bits = _bits(info_bits, "info_bits")
    batched = info_bits.ndim == 2
    if info_bits.ndim not in (1, 2) or info_bits.shape[-1] != code.k:
        raise ValueError(f"expected {code.k} information bits per block, got "
                         f"shape {info_bits.shape}")
    u = np.zeros((code.n0, info_bits.shape[0] if batched else 1), dtype=np.int8)
    u[code.info_set] = info_bits.T if batched else info_bits[:, None]
    x = u.copy()
    for s in range(code.n0.bit_length() - 1):
        pairs = x.reshape(code.n0 >> (s + 1), 2, -1)
        pairs[:, 0] ^= pairs[:, 1]
    tx = np.concatenate([x[code.transmitted_positions], u[code.rep_vector]])
    return tx.T if batched else tx[:, 0]


# sc_decode runs every f-update in tiles of this many output values, so
# that a tile's operands stay in L2 across the update's dozen passes.  An
# f-update tile touches five such runs of float64 (a, b, the output and the
# two scratch halves): 1.25 MiB at 2^15, inside the 2 MiB of L2 per core of
# the 2-core reference VM.  There a check node of width 1024 at B = 732
# took 14-15 ns per output in such tiles against 17-20 ns in one pass, and
# 2^15 decoded faster than 2^13, 2^14 or 2^16.
_TILE = 1 << 15


def decode_workspace(code: RcpCode, rows: int, buffer=None):
    """Views of the flat float64 workspace that decodes ``rows`` received
    words of ``code``, laid out as the module docstring says: ``(buffer,
    chan, llrs, tree)``, where ``chan`` and ``tree`` are (n0, rows) and
    ``llrs`` (rows, n) lies over the same entries as ``tree``.  ``buffer``
    None allocates exactly (n0 + max(n0, n)) * rows entries; a given
    ``buffer`` must be a contiguous 1-D float64 array at least that long.
    """
    n0, n = code.n0, code.n
    size = (n0 + max(n0, n)) * rows
    if buffer is None:
        buffer = np.empty(size)
    elif not (isinstance(buffer, np.ndarray) and buffer.dtype == np.float64
              and buffer.ndim == 1 and buffer.flags.c_contiguous
              and buffer.size >= size):
        raise ValueError(f"a workspace for {rows} words of this code is a "
                         f"contiguous 1-D float64 array of >= {size} entries")
    rest = buffer[n0 * rows:]
    return (buffer, buffer[: n0 * rows].reshape(n0, rows),
            rest[: n * rows].reshape(rows, n),
            rest[: n0 * rows].reshape(n0, rows))


def _repetition_sums(llrs, code: RcpCode):
    """Repeated input-bit indices (ascending) and their summed repetition
    LLRs, shape (len(indices), B).

    Each bit's sum is 0.0 + r1 + r2 + ... over its repetitions: one loop
    over the repetitions in transmit order adds each to its bit's row.
    """
    index, slot = np.unique(code.rep_vector, return_inverse=True)
    reps = llrs[:, code.m:code.n].T
    sums = np.zeros((index.size, llrs.shape[0]))
    for j, row in enumerate(slot.tolist()):
        sums[row] += reps[j]
    return index, sums


def _check_node(parent, out, pair):
    """Exact check-node update 2*atanh(tanh(a/2)*tanh(b/2)) into ``out``,
    where ``parent`` is a (..., 2, w) view of a and b and ``out`` a
    (..., w) view: sign(a)sign(b) * (min(|a|,|b|) + L(|a|+|b|) -
    L(||a|-|b||)), L(x) = log1p(exp(-x)).  The only scratch, ``pair``, a
    contiguous array shaped like ``parent`` (so exp and log1p run numpy's
    SIMD loops), holds -|a| and -|b|, with nmin <= nmax those two, then L's
    arguments -(|a|+|b|) = nmin + nmax and -||a|-|b|| = nmin - nmax for one
    exp and one log1p call; min(|a|,|b|) + L(|a|+|b|) is L(|a|+|b|) - nmax.
    Negation is exact and IEEE addition commutes, so every value is rounded
    as in the plain form, bit for bit.
    """
    lo, hi = pair[..., 0, :], pair[..., 1, :]
    np.copysign(parent, -1.0, out=pair)
    np.maximum(lo, hi, out=out)
    np.minimum(lo, hi, out=hi)
    np.add(hi, out, out=lo)
    np.subtract(hi, out, out=hi)
    np.exp(pair, out=pair)
    np.log1p(pair, out=pair)
    np.subtract(lo, out, out=out)
    np.subtract(out, hi, out=out)
    np.sign(parent, out=pair)
    np.multiply(lo, hi, out=lo)
    np.multiply(out, lo, out=out)


def _schedule(code: RcpCode):
    """What the decoder visits, in leaf order: every information bit and
    every dead block, the maximal aligned leaf blocks without one.

    Returns ``(start, level, row)`` per visit (a block at level s covers
    2^s leaves; ``row`` is the info-set row of a bit, -1 for a block).  One
    pass per level: a block is dead if both its halves are, and maximal if
    its parent is not.
    """
    n0, k = code.n0, code.k
    dead = np.ones(n0, dtype=bool)
    dead[code.info_set] = False
    starts, levels = [code.info_set], [np.zeros(k, dtype=np.int64)]
    for s in range(n0.bit_length() - 1):
        parent = dead[0::2] & dead[1::2]
        maximal = dead & ~np.repeat(parent, 2)
        first = np.flatnonzero(maximal)
        starts.append(first << s)
        levels.append(np.full(first.size, s))
        dead = parent
    start = np.concatenate(starts)
    row = np.full(start.size, -1)
    row[:k] = np.arange(k)
    order = np.argsort(start)
    visits = zip(start[order].tolist(),
                 np.concatenate(levels)[order].tolist(), row[order].tolist())
    return list(visits)


def sc_decode(llrs, code: RcpCode, sent=None, *, workspace=None):
    """Successive-cancellation decode of one or many received LLR words.

    Parameters
    ----------
    llrs : array-like, shape (n,) or (B, n)
        Received LLRs: first m entries are the surviving polar positions in
        ascending order, the rest are repetition observations.
    code : RcpCode
    sent : array-like of 0/1 bits, shape (k,) or (B, k), optional
        The blocks sent.  If given, the decoder walks each word's true
        trajectory: it re-encodes every partial sum from ``sent`` instead of
        from a decision, makes no decision and adds no repetition LLRs.
    workspace : 1-D float64 array, optional
        A :func:`decode_workspace` buffer for B words of ``code``, which
        then holds the channel level and the tree; ``llrs`` may be its LLR
        view, overwritten by the tree.  Without it the decoder allocates
        both levels itself.

    Returns
    -------
    Without ``sent``, the decided bits, int8 of shape (k,) or (B, k), each
    made on its leaf LLR plus its repetition LLRs summed in transmit order.
    With ``sent``, the true-path leaf LLRs in its shape: the tree LLR at
    every information bit, in info-set order, before repetitions.

    Raises ValueError on a length or shape mismatch, any NaN/infinite LLR,
    a sent bit other than 0 or 1, or LLRs in the workspace's channel level.
    """
    batched = np.ndim(llrs) == 2
    llrs = np.atleast_2d(np.asarray(llrs, dtype=float))
    if llrs.shape[1] != code.n:
        raise ValueError(f"expected {code.n} LLRs, got {llrs.shape[1]}")
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")
    n0, b = code.n0, llrs.shape[0]
    depth = n0.bit_length() - 1
    if sent is not None:
        sent = _bits(sent, "sent")
        if sent.shape != (b, code.k)[not batched:]:
            raise ValueError("sent must hold one 0/1 block per word")
        sent = np.ascontiguousarray(sent.reshape(b, code.k).T)

    # Words are columns: every node's LLRs are a contiguous (width, B) block.
    # Punctured positions are erasures: LLR exactly 0.
    if workspace is None:
        chan, tree = np.zeros((n0, b)), np.empty((n0, b))
    else:
        _, chan, _, tree = decode_workspace(code, b, workspace)
        if np.may_share_memory(llrs, chan):
            raise ValueError("llrs overlap the workspace's channel level")
        chan[code.puncture_set] = 0.0
    chan[code.transmitted_positions] = llrs[:, : code.m].T
    if sent is None:
        rep_index, rep_sums = _repetition_sums(llrs, code)
        rep_at = dict(zip(rep_index.tolist(), rep_sums))
        decision = np.empty(b)

    # Every LLR is read: from here on the tree may overwrite them.  Level s
    # (width 2^s) of the current path lives in rows [2^s, 2^(s+1)) of
    # `tree`; the channel word is level `depth`.  Level s is always
    # computed from the two halves of level s + 1; for an f-update they are
    # flattened to (2, 2^s B) and cut into tiles of at most _TILE columns.
    levels = [tree[1 << s: 2 << s] for s in range(depth)] + [chan]
    pair = np.empty(2 * min(_TILE, n0 // 2 * b))
    f_tiles = [[(levels[s + 1].reshape(2, -1)[:, c:c + _TILE],
                 levels[s].reshape(-1)[c:c + _TILE],
                 pair[: 2 * min(_TILE, (b << s) - c)].reshape(2, -1))
                for c in range(0, b << s, _TILE)] for s in range(depth)]
    # Partial sums as int8 (-1)^x: a finished node at level s holding leaves
    # [j 2^s, (j+1) 2^s) keeps its re-encoded bits in those rows.  A g-update
    # casts them to +-1.0 exactly, so x * sign is x or -x, signed zeros kept.
    signs = np.empty((n0, b), dtype=np.int8)

    # Per information bit: its decision, or its leaf LLR when following sent.
    found = np.empty((code.k, b), dtype=np.int8 if sent is None else float)
    leaf = levels[0][0]

    for i, s, j in _schedule(code):
        # An information leaf is computed down to level 0; a dead block is
        # not computed at all, only the path down to its parent.
        low = 0 if j >= 0 else s + 1
        top = depth
        if i:
            # Visit i starts the right child at the level of its lowest set
            # bit; every node below that on its path is a left child.
            top = (i & -i).bit_length() - 1
            if top >= low:
                h, child, parent = 1 << top, levels[top], levels[top + 1]
                np.multiply(parent[:h], signs[i - h:i], out=child)
                np.add(child, parent[h:], out=child)
        for t in range(top - 1, low - 1, -1):
            for tile in f_tiles[t]:
                _check_node(*tile)

        end = i + (1 << s)
        if j < 0:
            signs[i:end] = 1
        else:
            if sent is None:
                rep = rep_at.get(i)
                d = leaf if rep is None else np.add(leaf, rep, out=decision)
                bit = np.less(d, 0.0, out=found[j])
            else:
                found[j] = leaf
                bit = sent[j]
            np.multiply(bit, -2, out=signs[i])
            np.add(signs[i], 1, out=signs[i])
        # Close every node whose last leaf this was: x = (x_L xor x_R, x_R).
        while s + 1 < depth and ((end - 1) >> s) & 1:
            h = 1 << s
            left = signs[end - 2 * h:end - h]
            np.multiply(left, signs[end - h:end], out=left)
            s += 1

    # Leaves stay a view of the (k, B) rows that round_failures reads.
    out = np.ascontiguousarray(found.T) if sent is None else found.T
    return out if batched else out[0]


def round_failures(llrs, code: RcpCode, lengths, bits, *,
                   workspace=None) -> np.ndarray:
    """Which rounds of a nested family decode each row of a (B, n) LLR
    batch wrongly: the (B, T) bool matrix ``any(sc_decode(llrs[:, :n],
    code.prefix(n)) != bits, axis=1)`` for n in ``lengths``, a strictly
    increasing list inside ``[code.m, code.n]``.

    Every round's failures follow from the true-path leaf LLRs (see the
    module docstring), which one walk of the last round's tree following
    ``bits`` gives: round t decides each bit on its leaf plus the round's
    repetition sum, as :func:`sc_decode` does, and fails where a decision
    differs from ``bits``.  A single round is one plain decode.  Every
    round's sums are taken before the walk, which ``workspace`` (see
    :func:`sc_decode`) lets overwrite the LLRs.
    """
    lengths = _indices(lengths, "lengths").tolist()
    if not (lengths and code.m <= lengths[0] and lengths[-1] <= code.n
            and all(a < b for a, b in zip(lengths, lengths[1:]))):
        raise ValueError("lengths must be strictly increasing within "
                         f"[{code.m}, {code.n}], got {lengths}")
    llrs = np.asarray(llrs, dtype=float)[:, : lengths[-1]]
    last = code.prefix(lengths[-1])
    if len(lengths) == 1:
        decided = sc_decode(llrs, last, workspace=workspace)
        return (decided != bits).any(axis=1)[:, None]
    sums = [_repetition_sums(llrs, code.prefix(n)) for n in lengths]
    # Bits by rows, words by columns, as the decoder holds its leaves.
    leaf = sc_decode(llrs, last, sent=bits, workspace=workspace).T
    bits = bits.T.copy()
    fails = np.empty((len(llrs), len(lengths)), dtype=bool)
    for t, (index, round_sums) in enumerate(sums):
        cols = np.searchsorted(code.info_set, index)
        decisions = leaf < 0
        decisions[cols] = (leaf[cols] + round_sums) < 0
        fails[:, t] = (decisions != bits).any(axis=0)
    return fails


def code_to_dict(code: RcpCode) -> dict:
    """JSON-ready form: the code's n, k and m, then what rebuilds it."""
    return {"n": code.n, "k": code.k, "m": code.m, "n0": code.n0,
            "info_set": code.info_set.tolist(),
            "puncture_set": code.puncture_set.tolist(),
            "rep_vector": code.rep_vector.tolist()}


def code_from_dict(d: dict) -> RcpCode:
    """The code that :func:`code_to_dict` wrote.  Raises ValueError on
    anything else: a value that is not a JSON integer (or a list of them),
    a missing or unknown key, an ``n``, ``k`` or ``m`` that the rebuilt code
    does not have, and ``frozen_values`` (older files) that are not n0 - k
    zeros."""
    fields = ("n0", "info_set", "puncture_set", "rep_vector")
    keys = {"n", "k", "m", *fields}
    if not (isinstance(d, dict) and keys <= d.keys() <= {*keys, "frozen_values"}):
        raise ValueError(f"a code is an object with the keys {sorted(keys)}"
                         " and at most frozen_values besides")
    code = RcpCode(**{key: d[key] for key in fields})
    for key in ("n", "k", "m"):
        if type(d[key]) is not int or d[key] != getattr(code, key):
            raise ValueError(f"{key} is {d[key]!r}, the code has "
                             f"{getattr(code, key)}")
    if "frozen_values" in d:
        frozen = _indices(d["frozen_values"], "frozen_values")
        if frozen.shape != (code.n0 - code.k,) or frozen.any():
            raise ValueError("frozen bits are zero: frozen_values must be "
                             f"{code.n0 - code.k} zeros")
    return code
