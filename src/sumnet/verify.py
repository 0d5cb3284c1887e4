"""Machine verification that a code computes the sum at every terminal.

``verify_exact`` is complete for the linear codes built here: it composes
each terminal's decoder with the global maps of its input bundles and
compares the result with the all-ones block map [I_m | I_m | ... | I_m].
A bottleneck block is multiplied by that bottleneck's encoder restricted to
its feeding columns, the message coordinates of the sources feeding it;
``_check`` has proven every other column zero, so only those
columns of the composite receive the product.  A direct edge carries its
source's message uncoded, so a terminal's direct inputs are added in one
gather through ``_bundles``, the layout of the stacked bundle values that
the simulator shares.  The composite is reduced mod p once per terminal,
after every input is added: with entries below p the unreduced sum stays
within (p-1)^2 times the decoder's width, which ``_check`` keeps below
2^63.  Restricting a product to its feeding columns drops only zero terms,
so no inner dimension grows and that argument is unchanged.  The composite
is still the full map, and equality of those matrices is equivalent to
correct decoding of every message tuple, so a passing report is a proof,
not a sample.

All three verifiers admit a code through one gate, ``_check``, which refuses
it with a ``ValueError`` naming the first fault found.

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
instances, simulate blocks of up to 64 trials at once, trials-major: one
message vector per row of a (T x dim) block.  The codes are almost all
zero, so every encoder and decoder is read once per call as its list of
nonzero terms (output row, value read, coefficient), and each bottleneck
and then each terminal is one gather of the values its terms read, one
multiplication by their coefficients and one sum per output row.  The
encoders write the stacked bundle values of ``_bundles``, where one
scatter adds every direct slot, and the decoders read them.  A term sum
has at most ``inner`` products, each below (p-1)^2, so ``_check``'s int64
limit covers it unreduced.  Taking one bottleneck or terminal at a time
bounds peak memory by the block and the largest term list, not by the
trial count, and every report lists its failures in (trial, terminal) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Optional

import numpy as np

from .codes import NetworkCode
from .gf import is_prime
from .network import SumNetwork, feeding_columns

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


def _bundles(net: SumNetwork, code: NetworkCode):
    """The layout of the stacked bundle values: bottlenecks e1..er, then one
    direct bundle per source in message order, each alpha*n rows.

    Returns (terminal, stacked rows its decoder reads) pairs, each built as it
    is reached, and for every stacked row the message coordinate a direct edge
    carries there, -1 elsewhere: parallel edge l carries message slice
    [l*m/alpha, (l+1)*m/alpha) in its leading slots.
    """
    width, piece = code.alpha * code.n, code.m // code.alpha
    labels = [f"e{i}" for i in range(1, net.r + 1)] + net.sources()
    start = {label: k * width for k, label in enumerate(labels)}
    reads = ((t, np.add.outer([start[x] for x in code.decoders[t].inputs], range(width)).ravel())
             for t in net.terminals())
    carries = np.full((len(labels), code.alpha, code.n), -1, dtype=np.intp)
    direct = np.arange(code.m * (net.r + net.c)).reshape(-1, code.alpha, piece)
    carries[net.r :, :, :piece] = direct
    return reads, carries.ravel()


def _check(net: SumNetwork, code: NetworkCode) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Admit a code to the verifiers, or raise naming the first fault.

    In order: shapes, encoder count and alpha, the int64 limit, primality,
    the entry range, encoder locality, then each decoder's inputs and shape.
    Returns (encoder restricted to its feeding columns, those columns) per
    bottleneck label e<i>: the feeding columns are the coordinates of the
    sources feeding it, and every other column is checked here to be zero.
    """
    if (net.r, net.c) != (code.rows, code.cols):
        shapes = f"{code.rows}x{code.cols} matrix, network has {net.r}x{net.c}"
        raise ValueError(f"code is for a {shapes}")
    if len(code.encoders) != net.r:
        raise ValueError(f"code has {len(code.encoders)} encoders, network has {net.r} bottlenecks")
    if net.alpha != code.alpha:
        raise ValueError(f"code alpha {code.alpha} != network alpha {net.alpha}")
    if code.m % code.alpha:
        raise ValueError("m must be divisible by alpha")
    m = code.m
    width = m * (net.r + net.c)
    for i, enc in enumerate(code.encoders, start=1):
        if enc.shape != (code.alpha * code.n, width):
            raise ValueError(f"encoder e{i} has shape {enc.shape}")
    # verify_exact sums a terminal's inputs unreduced.  With entries below p, a
    # bottleneck input adds at most W(p-1)^2 to an entry of the composite, W the
    # bundle width alpha*n, and the direct inputs at most p-1, as a terminal's
    # direct sources are distinct and feed none of its bottlenecks.  So the
    # composite stays within (p-1)^2 times the decoder's width, and that width
    # and every product's inner dimension are at most ``inner``.
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
    fed = {}
    for i, enc in enumerate(code.encoders, start=1):
        cols = np.array(feeding_columns(net.matrix, i, m))
        if np.delete(enc, cols, axis=1).any():
            raise ValueError(f"encoder e{i} uses a message outside the sources feeding it")
        fed[f"e{i}"] = (enc[:, cols], cols)
    for terminal, ins in net.inputs.items():
        if terminal not in code.decoders:
            raise ValueError(f"no decoder for terminal {terminal}")
        dec = code.decoders[terminal]
        expected = tuple(ins)
        if dec.inputs != expected:
            raise ValueError(f"decoder for {terminal} reads {dec.inputs}, expected {expected}")
        if dec.matrix.shape != (m, code.alpha * code.n * len(expected)):
            raise ValueError(f"decoder for {terminal} has shape {dec.matrix.shape}")
    return fed


def verify_exact(net: SumNetwork, code: NetworkCode) -> VerifyReport:
    """Prove or refute the code by composing decoder and bundle maps.

    ok means every terminal's composite map equals the sum map, i.e. the
    code is correct for all q^(m(r+c)) messages.
    """
    fed = _check(net, code)
    p, m, width = code.p, code.m, code.alpha * code.n
    target = np.tile(np.eye(m, dtype=np.int64), net.r + net.c)
    reads, carries = _bundles(net, code)
    failures = []
    for terminal, rows in reads:
        dec = code.decoders[terminal]
        composite = np.zeros_like(target)
        for pos, x in enumerate(dec.inputs):
            if x in fed:
                enc, cols = fed[x]
                composite[:, cols] += dec.matrix[:, pos * width : (pos + 1) * width] @ enc
        # The direct coordinates are distinct (see _check), so one gather adds them all.
        coords = carries[rows]
        direct = coords >= 0
        composite[:, coords[direct]] += dec.matrix[:, direct]
        composite %= p  # the unreduced sum stays within _check's int64 limit
        diff = composite != target
        if np.any(diff):
            unit = np.zeros(target.shape[1], dtype=np.int64)
            unit[np.flatnonzero(diff.any(axis=0))[0]] = 1
            failures.append((terminal, _assignment(net, m, unit)))
    return VerifyReport(
        mode="exact-basis",
        ok=not failures,
        failures=tuple(failures),
        trials_or_dim=m * (net.r + net.c),
    )


def _terms(matrix: np.ndarray, cols: np.ndarray):
    """The nonzero terms of ``matrix``, row-major: the rows that have terms,
    the start of each row's run, the value each term reads (``cols`` maps a
    matrix column to it) and the coefficients."""
    rows, k = np.nonzero(matrix)
    out, heads = np.unique(rows, return_index=True)
    return out, heads, cols[k], matrix[rows, k]


def _apply(terms, values: np.ndarray, p: int, out: np.ndarray) -> None:
    """Write each row's term sum over a trials-major block of values, mod p,
    to that row of ``out``; rows without terms are left as they are."""
    rows, heads, reads, coef = terms
    products = np.take(values, reads, axis=1)
    products *= coef
    out[:, rows] = np.add.reduceat(products, heads, axis=1) % p


def _failures(net: SumNetwork, code: NetworkCode, fed, blocks) -> list:
    """Propagate each block of message vectors, one per column, decode at
    every terminal, and collect (terminal, witness) for every terminal that
    misses the sum, in (message, terminal) order.

    A block is simulated trials-major, one bottleneck and then one terminal
    at a time, each by its list of nonzero terms, taken once per call.  An
    encoder's terms read only its feeding columns, the coordinates of the
    sources feeding it, which asserts structurally that edge values depend
    on nothing else.  A decoder's terms read the stacked bundle values of
    ``_bundles``, allocated once per call: every block rewrites the
    bottleneck rows and, in one scatter, the direct slots, and the slots no
    term writes stay zero.
    """
    p, m, width = code.p, code.m, code.alpha * code.n
    reads, carries = _bundles(net, code)
    encoders = [_terms(enc, cols) for enc, cols in fed.values()]  # e1..er, in stacked order
    decoders = [(t, _terms(code.decoders[t].matrix, rows)) for t, rows in reads]
    slots = np.flatnonzero(carries >= 0)
    failures = []
    stacked = np.zeros((_BLOCK, len(carries)), dtype=np.int64)
    for x in blocks:
        x = np.ascontiguousarray(x.T)
        trials = len(x)
        want = x.reshape(trials, net.r + net.c, m).sum(axis=1) % p
        values = stacked[:trials]
        for k, terms in enumerate(encoders):
            _apply(terms, x, p, values[:, k * width : (k + 1) * width])
        values[:, slots] = x[:, carries[slots]]
        missed = np.empty((trials, len(decoders)), dtype=bool)
        for pos, (_, terms) in enumerate(decoders):
            got = np.zeros_like(want)
            _apply(terms, values, p, got)
            missed[:, pos] = (got != want).any(axis=1)
        for trial, pos in zip(*np.nonzero(missed)):
            failures.append((decoders[pos][0], _assignment(net, m, x[trial])))
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
    fed = _check(net, code)
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
    fed = _check(net, code)
    p = code.p
    dim = code.m * (net.r + net.c)
    total = 1
    for _ in range(dim):  # stops at the first power past limit
        total *= p
        if total > limit:
            # The count is named while it has fewer digits than Python's
            # default limit of 4300 for printing an integer.
            count = f"{p}^{dim} = {p**dim}" if dim * math.log10(p) < 4299 else f"{p}^{dim}"
            raise ValueError(f"{count} message tuples exceed the limit {limit}")
    failures = _failures(net, code, fed, _exhaustive_blocks(p, dim))
    return VerifyReport(
        mode="exhaustive",
        ok=not failures,
        failures=tuple(failures),
        trials_or_dim=total,
    )
