"""Machine verification that a code computes the sum at every terminal.

``verify_exact`` is complete for the linear codes built here: it composes
each terminal's decoder with the global maps of its input bundles and
compares the result with the all-ones block map [I_m | I_m | ... | I_m].
A bottleneck block is multiplied by that bottleneck's encoder restricted to
its feeding columns, the message coordinates of the sources feeding it;
``_check_locality`` has proven every other column zero, so only those
columns of the composite receive the product.  A direct edge carries its
source's message uncoded, so its block is scattered through the layout
``_direct_layout`` shares with the simulator.  The composite is reduced
mod p once per terminal, after every input is added: with entries below p
the unreduced sum stays within (p-1)^2 times the decoder's width, which
``_check_dimensions`` keeps below 2^63.  Restricting a product to its
feeding columns drops only zero terms, so no inner dimension grows and
that argument is unchanged.  The composite is still the full map, and
equality of those matrices is equivalent to correct decoding of every
message tuple, so a passing report is a proof, not a sample.

``verify_random`` re-checks by simulating topological edge propagation on
pseudorandom messages; it exists as an independent cross-check and demo.
The generator is fixed so reports are reproducible: trial t draws symbols
from a SplitMix64 stream with initial state s = (seed + t) mod 2^64, whose
draw k (k >= 1) is mix(s + k*gamma) mod 2^64 in closed form, gamma the
stream's odd increment.  Each 64-bit draw maps to a field symbol by
rejection sampling (values at or above floor(2^64/p)*p are discarded, the
rest reduced mod p).

Both ``verify_random`` and ``exhaustive_oracle``, which enumerates every
message tuple outright as the ground truth for ``verify_exact`` on tiny
instances, simulate blocks of up to 64 trials at once: one message vector
per column of a (dim x T) matrix, one product per encoder over its feeding
rows, one scatter per direct source and one product per decoder.  Peak
memory is bounded by the block, not by the trial count, and every report
lists its failures in (trial, terminal) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Optional

import numpy as np

from .codes import NetworkCode
from .gf import is_prime
from .network import SumNetwork, bottleneck_sources, source_offset

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_BLOCK = 64  # trials simulated per block


def _draws(seeds: np.ndarray, first: int, count: int) -> np.ndarray:
    """Draws first..first+count-1 of the SplitMix64 streams seeded ``seeds``,
    one stream per column: draw k is mix(s + k*gamma), in uint64 arithmetic,
    which wraps mod 2^64."""
    ks = np.arange(first, first + count, dtype=np.uint64)
    z = seeds[None, :] + ks[:, None] * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _symbols(seeds: np.ndarray, p: int, dim: int) -> np.ndarray:
    """The first dim field symbols of each stream seeded ``seeds``, as columns.

    A column with a rejected draw takes further draws until it has dim
    accepted ones; below p = 2^32 a draw is rejected with probability under 2^-32.
    """
    top = np.uint64((1 << 64) // p * p - 1)  # largest accepted draw
    z = _draws(seeds, 1, dim)
    for j in np.flatnonzero((z > top).any(axis=0)):
        kept, k = z[:, j][z[:, j] <= top], dim
        while len(kept) < dim:
            more = _draws(seeds[j : j + 1], k + 1, dim - len(kept))[:, 0]
            k += len(more)
            kept = np.concatenate([kept, more[more <= top]])
        z[:, j] = kept
    return (z % np.uint64(p)).astype(np.int64)


def _random_blocks(seed: int, p: int, trials: int, dim: int):
    """Trial t's messages, drawn from the stream seeded (seed + t) mod 2^64, in blocks."""
    for start in range(0, trials, _BLOCK):
        seeds = np.uint64((seed + start) & _MASK) + np.arange(
            min(_BLOCK, trials - start), dtype=np.uint64
        )
        yield _symbols(seeds, p, dim)


def _exhaustive_blocks(p: int, dim: int):
    """Every message tuple in lexicographic order, in blocks."""
    tuples = product(range(p), repeat=dim)
    while block := list(islice(tuples, _BLOCK)):
        yield np.array(block, dtype=np.int64).T


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification run.

    ``failures`` holds (terminal, witness) pairs; a witness maps source
    labels to message tuples, with all-zero messages omitted.
    """

    mode: str  # "exact-basis", "randomized", or "exhaustive"
    ok: bool
    failures: tuple[tuple[str, dict[str, tuple[int, ...]]], ...]
    trials_or_dim: int
    seed: Optional[int] = None


def _direct_layout(net: SumNetwork, code: NetworkCode, label: str):
    """Where a direct-edge bundle carries its source's message.

    Parallel edge l carries message slice [l*m/alpha, (l+1)*m/alpha) in its
    leading slots.  Returns (bundle components, stacked-vector coordinates).
    """
    m, n = code.m, code.n
    slice_len = m // code.alpha
    comps = [ell * n + u for ell in range(code.alpha) for u in range(slice_len)]
    off = source_offset(net.r, m, label)
    return np.array(comps, dtype=np.intp), np.arange(off, off + m)


def _feeding_masks(net: SumNetwork, m: int) -> list[np.ndarray]:
    """Per bottleneck, the stacked-vector coordinates of the sources feeding it."""
    masks = []
    for i in range(1, net.r + 1):
        mask = np.zeros(m * (net.r + net.c), dtype=bool)
        for label in bottleneck_sources(net.matrix, i):
            off = source_offset(net.r, m, label)
            mask[off : off + m] = True
        masks.append(mask)
    return masks


def _check_dimensions(net: SumNetwork, code: NetworkCode) -> None:
    if (net.r, net.c) != (code.rows, code.cols):
        raise ValueError(
            f"code is for a {code.rows}x{code.cols} matrix, network has "
            f"{net.r}x{net.c}"
        )
    if net.alpha != code.alpha:
        raise ValueError(f"code alpha {code.alpha} != network alpha {net.alpha}")
    if code.m % code.alpha:
        raise ValueError("m must be divisible by alpha")
    width = code.m * (net.r + net.c)
    for i, enc in enumerate(code.encoders, start=1):
        if enc.shape != (code.alpha * code.n, width):
            raise ValueError(f"encoder e{i} has shape {enc.shape}")
    # verify_exact sums a terminal's inputs unreduced.  With entries below p, a
    # bottleneck input adds at most W(p-1)^2 to an entry of the composite, W the
    # bundle width alpha*n, and a direct input at most p-1; so the composite
    # stays within (p-1)^2 times the decoder's width, and that width and every
    # product's inner dimension are at most ``inner``.
    inner = max([width] + [dec.matrix.shape[1] for dec in code.decoders.values()])
    if (code.p - 1) ** 2 * inner >= 1 << 63:
        limit = math.isqrt(((1 << 63) - 1) // inner) + 1
        raise ValueError(
            f"characteristic p={code.p} is too large for exact int64 verification: "
            f"(p-1)^2 * {inner} must stay below 2^63, so p <= {limit} for this code"
        )
    # Over Z/p with p not prime (p = 1 makes every map zero) a passing check proves nothing.
    if not is_prime(code.p):
        raise ValueError(f"characteristic p={code.p} is not a prime: codes are checked over GF(p)")
    # The int64 limit above holds only for entries reduced mod p.
    matrices = [(f"encoder e{i}", enc) for i, enc in enumerate(code.encoders, start=1)]
    matrices += [(f"decoder for {t}", dec.matrix) for t, dec in code.decoders.items()]
    for name, mat in matrices:
        if mat.size and (mat.min() < 0 or mat.max() >= code.p):
            raise ValueError(f"{name} has an entry outside [0, {code.p})")


def _check_locality(net: SumNetwork, code: NetworkCode) -> list[tuple[np.ndarray, np.ndarray]]:
    """Structural validity: encoders and decoders read only what reaches them.

    Returns (encoder restricted to its feeding columns, those columns) per
    encoder.  The feeding columns are the coordinates of the sources feeding
    it, and every other column is checked here to be zero.
    """
    m = code.m
    fed = []
    for i, (enc, allowed) in enumerate(zip(code.encoders, _feeding_masks(net, m)), start=1):
        if np.any(enc[:, ~allowed]):
            raise ValueError(
                f"encoder e{i} uses a message outside the sources feeding it"
            )
        fed.append((enc[:, allowed], np.flatnonzero(allowed)))
    for terminal, ins in net.inputs.items():
        if terminal not in code.decoders:
            raise ValueError(f"no decoder for terminal {terminal}")
        dec = code.decoders[terminal]
        expected = tuple(ins)
        if dec.inputs != expected:
            raise ValueError(
                f"decoder for {terminal} reads {dec.inputs}, expected {expected}"
            )
        if dec.matrix.shape != (m, code.alpha * code.n * len(expected)):
            raise ValueError(f"decoder for {terminal} has shape {dec.matrix.shape}")
    return fed


def _sum_map(net: SumNetwork, m: int) -> np.ndarray:
    return np.hstack([np.eye(m, dtype=np.int64)] * (net.r + net.c))


def _unit_witness(net: SumNetwork, m: int, col: int) -> dict[str, tuple[int, ...]]:
    labels = net.sources()
    block, comp = divmod(col, m)
    vec = [0] * m
    vec[comp] = 1
    return {labels[block]: tuple(vec)}


def verify_exact(net: SumNetwork, code: NetworkCode) -> VerifyReport:
    """Prove or refute the code by composing decoder and bundle maps.

    ok means every terminal's composite map equals the sum map, i.e. the
    code is correct for all q^(m(r+c)) messages.
    """
    _check_dimensions(net, code)
    fed = _check_locality(net, code)
    p = code.p
    m = code.m
    width = code.alpha * code.n
    target = _sum_map(net, m)
    directs = {label: _direct_layout(net, code, label) for label in net.sources()}
    failures = []
    for terminal in net.terminals():
        dec = code.decoders[terminal]
        composite = np.zeros_like(target)
        for pos, x in enumerate(dec.inputs):
            block = dec.matrix[:, pos * width : (pos + 1) * width]
            if x.startswith("e"):
                enc, cols = fed[int(x[1:]) - 1]
                composite[:, cols] += block @ enc
            else:
                comps, coords = directs[x]
                composite[:, coords] += block[:, comps]
        composite %= p  # the unreduced sum stays within _check_dimensions' limit
        diff = composite != target
        if np.any(diff):
            col = int(np.flatnonzero(diff.any(axis=0))[0])
            failures.append((terminal, _unit_witness(net, m, col)))
    return VerifyReport(
        mode="exact-basis",
        ok=not failures,
        failures=tuple(failures),
        trials_or_dim=m * (net.r + net.c),
    )


def _failures(net: SumNetwork, code: NetworkCode, fed, blocks) -> list:
    """Propagate each block of message vectors, one per column, decode at
    every terminal, and collect (terminal, witness) for every terminal that
    misses the sum, in (message, terminal) order.

    Bottleneck values are computed from the feeding rows of the message
    block only, the sources feeding that bottleneck, which asserts
    structurally that edge values depend on nothing else.
    """
    p, m = code.p, code.m
    directs = {label: _direct_layout(net, code, label) for label in net.sources()}
    decoders = [(t, code.decoders[t]) for t in net.terminals()]
    failures = []
    for x in blocks:
        want = x.reshape(net.r + net.c, m, -1).sum(axis=0) % p
        values = {f"e{i}": enc @ x[cols] % p for i, (enc, cols) in enumerate(fed, start=1)}
        for label, (comps, coords) in directs.items():
            values[label] = np.zeros((code.alpha * code.n, x.shape[1]), dtype=np.int64)
            values[label][comps] = x[coords]
        missed = np.empty((x.shape[1], len(decoders)), dtype=bool)
        for pos, (_, dec) in enumerate(decoders):
            got = dec.matrix @ np.vstack([values[k] for k in dec.inputs]) % p
            missed[:, pos] = (got != want).any(axis=0)
        for trial, pos in zip(*np.nonzero(missed)):
            failures.append((decoders[pos][0], _assignment(net, m, x[:, trial])))
    return failures


def _assignment(net: SumNetwork, m: int, x: np.ndarray) -> dict[str, tuple[int, ...]]:
    out = {}
    for idx, label in enumerate(net.sources()):
        vec = tuple(int(v) for v in x[idx * m : (idx + 1) * m])
        if any(vec):
            out[label] = vec
    return out


def verify_random(net: SumNetwork, code: NetworkCode, trials: int, seed: int) -> VerifyReport:
    """Simulate the code on seeded pseudorandom messages (reproducible)."""
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    _check_dimensions(net, code)
    fed = _check_locality(net, code)
    dim = code.m * (net.r + net.c)
    failures = _failures(net, code, fed, _random_blocks(seed, code.p, trials, dim))
    return VerifyReport(
        mode="randomized",
        ok=not failures,
        failures=tuple(failures),
        trials_or_dim=trials,
        seed=seed,
    )


def exhaustive_oracle(net: SumNetwork, code: NetworkCode, limit: int) -> VerifyReport:
    """Check every message tuple outright; refuses when q^dim exceeds limit."""
    _check_dimensions(net, code)
    fed = _check_locality(net, code)
    p = code.p
    dim = code.m * (net.r + net.c)
    total = p**dim
    if total > limit:
        raise ValueError(f"{p}^{dim} = {total} message tuples exceed the limit {limit}")
    failures = _failures(net, code, fed, _exhaustive_blocks(p, dim))
    return VerifyReport(
        mode="exhaustive",
        ok=not failures,
        failures=tuple(failures),
        trials_or_dim=total,
    )
