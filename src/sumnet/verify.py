"""Machine verification that a code computes the sum at every terminal.

Both verifiers, ``verify_exact`` and ``verify_random``, admit a code
through one gate, ``_check``, which refuses it with a ``ValueError`` naming
the first fault found.  It is also the only place that reads a code's
matrices: one scan, ``_scan``, reads each encoder and decoder whole, once,
so every nonzero entry is a term.  A term's coefficient is read as int64
whatever signed type the matrix is stored in, so the int64 limit below
holds for a code of any entry type.  The codes are almost all zero, so a
term list is short.  Each holds row starts, row j's terms running from start
j to start j + 1, and each term's value read and coefficient.  The stacked
bundle map lists, for every row of the bottlenecks e1..er and then of one
direct bundle per source, each alpha*n rows, the message coordinates it
reads and their coefficients.  An encoder contributes its nonzero entries,
and a direct edge, which carries its source's message uncoded, one term of
coefficient 1 per slot it uses.  So a direct edge is one more bundle whose
map is a selection.  The decoders list the stacked rows they read, terminal
t's row i as decoded row t*m + i.

``verify_exact`` is complete for the linear codes built here.  It takes
consecutive whole terminals in chunks of at most ``_CHUNK`` join products
(a terminal with more is a chunk alone), joins every decoder term with each
term of the stacked row it reads, and keys each product by (terminal, row,
coordinate).  Sorting the keys and summing each run of equal keys gives
every nonzero entry of each terminal's composite map; no dense composite
is built.  The sums are exact in int64 and then reduced mod p: an entry
sums at most one product per decoder term of its row, each at most
(p-1)^2, and ``_check`` keeps (p-1)^2 times the decoder's width below 2^63.
A terminal fails where an entry differs from the all-ones block map
[I_m | I_m | ... | I_m], or where a one of that map gets no product, and
its witness is the smallest such coordinate, the first column in which the
two matrices differ.  Equality of those matrices is equivalent to correct
decoding of every message tuple, so a passing report is a proof, not a
sample.  Enumerating every message tuple is only the tests' ground truth
for it, kept with their other references in ``tests/conftest.py``.

``verify_random`` re-checks by simulating topological edge propagation on
pseudorandom messages; it exists as an independent cross-check and demo.
The generator is fixed so reports are reproducible: trial t draws symbols
from a SplitMix64 stream with initial state s = (seed + t) mod 2^64, whose
draw k (k >= 1) is mix(s + k*gamma) mod 2^64 in closed form, gamma the
stream's odd increment.  Each 64-bit draw maps to a field symbol by
rejection sampling (values at or above floor(2^64/p)*p are discarded, the
rest reduced mod p).

The simulation takes blocks of up to 64 trials at once, trials-major: one
message vector per row of a (T x dim) block.  It applies the stacked bundle
map in chunks of whole rows and then the decoders in chunks of whole
terminals, each chunk holding at most ``_STEP`` terms (a row or terminal
with more is a chunk alone), and one ``_apply`` takes a step of either: one
gather of the values its terms read, one multiplication by their
coefficients and one sum per row that has terms.  A term sum has at most
``inner`` products, each below (p-1)^2, so ``_check``'s int64 limit covers
it unreduced.  A step's temporaries hold at most 64 trials of ``_STEP``
terms, 256 KiB of int64, or of the largest row or terminal, so peak memory
grows with neither the trial count nor the number of terminals, and every
report lists its failures in (trial, terminal) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codes import NetworkCode, _chunks
from .gf import is_prime
from .network import SumNetwork, feeding_columns

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_BLOCK = 64  # trials simulated per block
_CHUNK = 1 << 12  # decoder terms or join products a step takes at once (see _chunks)
_STEP = 1 << 9  # terms a simulation step takes at once: 64 trials of them are 256 KiB


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


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification run.

    ``failures`` holds (terminal, witness) pairs; a witness maps source
    labels to message tuples, with all-zero messages omitted.
    """

    mode: str  # "exact-basis" or "randomized"; the tests' reference adds "exhaustive"
    ok: bool
    failures: tuple[tuple[str, dict[str, tuple[int, ...]]], ...]
    trials_or_dim: int
    seed: Optional[int] = None


def _scan(mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every nonzero entry of the matrices stacked top to bottom, row-major:
    its row in the stack, its column and its value, the value as int64
    whatever the matrix's signed type.  A flat scan of a boolean mask is
    several times faster than a 2-D np.nonzero."""
    found = [np.flatnonzero(mat != 0) for mat in mats]
    ends = np.cumsum([0] + [len(flat) for flat in found])
    tops = np.cumsum([0] + [mat.shape[0] for mat in mats])
    row, col, value = (np.empty(ends[-1], dtype=np.int64) for _ in range(3))
    for mat, flat, top, lo, hi in zip(mats, found, tops, ends, ends[1:]):
        np.divmod(flat, mat.shape[1], out=(row[lo:hi], col[lo:hi]))
        row[lo:hi] += top
        value[lo:hi] = mat.ravel()[flat]
    return row, col, value


def _check(net: SumNetwork, code: NetworkCode):
    """Admit a code to the verifiers, or raise naming the first fault.

    In order: shapes, encoder count and alpha, the int64 limit, primality,
    the entry range, encoder locality, then each decoder's inputs and shape.
    This is the only reader of a code's matrices.  It returns two term
    lists, each as row starts, the value each term reads and its
    coefficient: the stacked bundle map, whose terms read message
    coordinates, and the terminals' decoders, whose terms read stacked rows,
    with the terminals.  Terminal t's row i is decoded row t*m + i.  The
    stacked rows are bottlenecks e1..er, then one direct bundle per source
    in message order, each alpha*n rows.  An encoder's terms are all its
    nonzero entries, and the locality check finds each among the sources
    feeding it.  A direct slot has one term of coefficient 1: parallel edge
    l carries message slice [l*m/alpha, (l+1)*m/alpha) in its leading slots.
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
    m, width = code.m, code.alpha * code.n
    dim = m * (net.r + net.c)
    for i, enc in enumerate(code.encoders, start=1):
        if enc.shape != (width, dim):
            raise ValueError(f"encoder e{i} has shape {enc.shape}")
    # The verifiers sum products unreduced, each at most (p-1)^2 with entries
    # below p.  A stacked row's term sum has at most dim products, one per
    # coordinate, and a decoded symbol's at most the decoder's width.  An
    # entry of verify_exact's composite sums one product per decoder term of
    # its row whose stacked row reads its coordinate: at most the decoder's
    # width again, as a stacked row reads each coordinate once.
    inner = max([dim] + [dec.matrix.shape[1] for dec in code.decoders.values()])
    if (code.p - 1) ** 2 * inner >= 1 << 63:
        limit = math.isqrt(((1 << 63) - 1) // inner) + 1
        raise ValueError(
            f"characteristic p={code.p} is too large for exact int64 verification: "
            f"(p-1)^2 * {inner} must stay below 2^63, so p <= {limit} for this code"
        )
    # Over Z/p with p not prime (p = 1 makes every map zero) a passing check proves nothing.
    if not is_prime(code.p):
        raise ValueError(f"characteristic p={code.p} is not a prime: codes are checked over GF(p)")
    row, k, coef = _scan(code.encoders)  # stacked row, coordinate read, coefficient
    # The decoders' terms: the network's terminals in order, then any other decoder.
    order = [t for t in net.inputs if t in code.decoders]
    order += [t for t in code.decoders if t not in net.inputs]
    out, read, weight = _scan([code.decoders[t].matrix for t in order])
    # The int64 limit above holds only for entries reduced mod p.  The range
    # and then the locality are each decided once over all the terms; a
    # refusal names the first matrix at fault, encoders before decoders and
    # decoders in the order of code.decoders.
    outside = (coef < 0) | (coef >= code.p)
    if outside.any():  # encoder terms are in encoder order, so the first names the lowest
        i = row[outside.argmax()] // width + 1
        raise ValueError(f"encoder e{i} has an entry outside [0, {code.p})")
    outside = (weight < 0) | (weight >= code.p)
    if outside.any():
        rank = {t: pos for pos, t in enumerate(code.decoders)}
        tops = np.cumsum([code.decoders[t].matrix.shape[0] for t in order])
        owners = np.searchsorted(tops, out[outside], side="right")
        t = min((order[o] for o in np.unique(owners)), key=rank.__getitem__)
        raise ValueError(f"decoder for {t} has an entry outside [0, {code.p})")
    # fed[i, s]: source s feeds e<i+1>; with m = 1 the feeding columns are the sources.
    fed = np.zeros((net.r, net.r + net.c), dtype=bool)
    for i in range(net.r):
        fed[i, feeding_columns(net.matrix, i + 1, 1)] = True
    foreign = ~fed[row // width, k // m]
    if foreign.any():
        i = row[foreign.argmax()] // width + 1
        raise ValueError(f"encoder e{i} uses a message outside the sources feeding it")
    slots = np.arange((net.r + net.c) * width).reshape(-1, code.alpha, code.n) + net.r * width
    direct = slots[:, :, : m // code.alpha].ravel()  # carry coordinates 0, 1, ..., dim - 1
    # The row starts: stacked row s's terms run from start s to start s + 1.
    sizes = np.bincount(row, minlength=(2 * net.r + net.c) * width)
    sizes[direct] = 1
    stacked = (
        np.append(0, np.cumsum(sizes)),
        np.concatenate([k, np.arange(dim)]),
        np.concatenate([coef, np.ones(dim, dtype=np.int64)]),
    )
    labels = [f"e{i}" for i in range(1, net.r + 1)] + net.sources()
    start = {label: k * width for k, label in enumerate(labels)}
    # The first stacked row of every input of every terminal in turn;
    # first[t] is terminal t's first input.
    inputs, first = [], []
    for terminal, ins in net.inputs.items():
        if terminal not in code.decoders:
            raise ValueError(f"no decoder for terminal {terminal}")
        dec = code.decoders[terminal]
        expected = tuple(ins)
        if dec.inputs != expected:
            raise ValueError(f"decoder for {terminal} reads {dec.inputs}, expected {expected}")
        if dec.matrix.shape != (m, width * len(expected)):
            raise ValueError(f"decoder for {terminal} has shape {dec.matrix.shape}")
        first.append(len(inputs))
        inputs += map(start.__getitem__, ins)
    inputs, first = np.array(inputs, dtype=np.int64), np.array(first, dtype=np.int64)
    count = len(first)  # every terminal has its decoder: order[:count] are the terminals
    # The row starts of the decoded rows (out is sorted), terminal t's terms from start t*m.
    starts = np.searchsorted(out, np.arange(count * m + 1))
    for a, b in _chunks(starts[::m], _CHUNK):
        lo, hi = starts[a * m], starts[b * m]
        col = read[lo:hi]
        bundle, col[:] = np.divmod(col, width)
        bundle += np.repeat(first[a:b], np.diff(starts[a * m : b * m + 1 : m]))
        col += inputs[bundle]  # the stacked row each column reads
    return stacked, (order[:count], starts, read[: starts[-1]], weight[: starts[-1]])


def verify_exact(net: SumNetwork, code: NetworkCode) -> VerifyReport:
    """Prove or refute the code by composing decoder and bundle maps.

    ok means every terminal's composite map equals the sum map, i.e. the
    code is correct for all q^(m(r+c)) messages.
    """
    (heads, coords, coefs), (terminals, starts, reads, coef) = _check(net, code)
    p, m, dim = code.p, code.m, code.m * (net.r + net.c)
    # The products before each decoded row: decoder term j joins the terms
    # of stacked row reads[j].  (Every read is a stacked row, and take
    # copies its output once more unless it may clip.)
    size = np.zeros(len(reads) + 1, dtype=np.int64)
    np.take(np.diff(heads), reads, out=size[1:], mode="clip")
    size = np.cumsum(size, out=size)[starts]
    failures = []
    # A chunk counts each terminal's products and one more, so that a chunk
    # of more than one terminal has at most _CHUNK of them.
    for a, b in _chunks(size[::m] + np.arange(len(terminals) + 1), _CHUNK):
        lo, hi = starts[a * m], starts[b * m]
        first = heads[reads[lo:hi]]
        counts = heads[reads[lo:hi] + 1] - first
        # Join every decoder term with each term of the stacked row it reads.
        join = np.repeat(first - np.cumsum(counts) + counts, counts)
        join += np.arange(len(join))
        # Key (terminal * m + row) * dim + coordinate, the terminal counted
        # from a, is below (b - a) * m * dim <= _CHUNK * m * dim, and m * dim
        # is at most width * dim, the size of one dense encoder, as the direct
        # bundles carry a message only if width >= m.  So it fits int64.
        keys = np.repeat(np.arange((b - a) * m) * dim, np.diff(size[a * m : b * m + 1]))
        keys += coords[join]
        # A key's run sums at most one product per decoder term of its row,
        # each at most (p-1)^2, so _check's int64 limit covers it unreduced.
        values = np.repeat(coef[lo:hi], counts) * coefs[join]
        order = np.argsort(keys)
        keys = keys[order]
        runs = np.flatnonzero(np.diff(keys, prepend=-1))
        keys = keys[runs]
        sums = np.add.reduceat(values[order], runs) % p
        # The sum map is 1 where the coordinate is its row's in some source's
        # block, and dim divides by m, so key and coordinate agree mod m there.
        ones = keys % m == keys // dim % m
        wrong = keys[sums != ones]
        if wrong.size or np.count_nonzero(ones) < (b - a) * dim:
            # Add the keys of the sum map's ones that no product reaches.
            row = np.arange((b - a) * m)[:, None]
            target = row * dim + row % m + np.arange(0, dim, m)
            wrong = np.union1d(wrong, np.setdiff1d(target, keys[ones], assume_unique=True))
            # Each failing terminal's witness is its smallest coordinate that differs.
            terminal, coordinate = wrong // (m * dim), wrong % dim
            firsts = np.flatnonzero(np.diff(terminal, prepend=-1))
            for t, col in zip(terminal[firsts], np.minimum.reduceat(coordinate, firsts)):
                unit = np.zeros(dim, dtype=np.int64)
                unit[col] = 1
                failures.append((terminals[a + t], _assignment(net, m, unit)))
    return VerifyReport(
        mode="exact-basis",
        ok=not failures,
        failures=tuple(failures),
        trials_or_dim=dim,
    )


def _steps(starts: np.ndarray, reads: np.ndarray, coef: np.ndarray, ends: np.ndarray, size: int):
    """``_chunks``' ranges [a, b) of items of ``size`` rows, each with its
    terms as ``_apply`` takes them: the rows with terms, counted from row
    a*size (np.add.reduceat would give an empty row the next one's term),
    the start of each one's run, the values read and the coefficients."""
    for a, b in _chunks(ends, _STEP):
        chunk = starts[a * size : b * size + 1]
        rows = np.flatnonzero(np.diff(chunk))
        lo, hi = chunk[0], chunk[-1]
        yield a, b, (rows, chunk[rows] - lo, reads[lo:hi], coef[lo:hi])


def _apply(terms, values: np.ndarray, p: int, out: np.ndarray) -> None:
    """Write each row's term sum over a trials-major block of values, mod p,
    to that column of ``out``; rows without terms are left as they are."""
    rows, heads, reads, coef = terms
    products = np.take(values, reads, axis=1)
    products *= coef
    out[:, rows] = np.add.reduceat(products, heads, axis=1) % p


def _failures(net: SumNetwork, code: NetworkCode, terms, blocks) -> list:
    """Propagate each block of message vectors, one per column, decode at
    every terminal, and collect (terminal, witness) for every terminal that
    misses the sum, in (message, terminal) order.

    The steps are those of the module docstring.  The stacked values are
    allocated once per call, and their rows without terms stay zero.  A chunk
    decodes its terminal t's row i as row t*m + i, and a terminal counts its
    m decoded symbols toward ``_STEP``.
    """
    p, m, width = code.p, code.m, code.alpha * code.n
    (heads, coords, coefs), (terminals, starts, reads, coef) = terms
    bundles = list(_steps(heads, coords, coefs, heads, 1))
    ends = starts[::m] + m * np.arange(len(terminals) + 1)
    decoders = list(_steps(starts, reads, coef, ends, m))
    failures = []
    values = np.zeros((_BLOCK, (2 * net.r + net.c) * width), dtype=np.int64)
    for x in blocks:
        x = np.ascontiguousarray(x.T)
        trials = len(x)
        want = x.reshape(trials, net.r + net.c, m).sum(axis=1) % p
        for a, b, step in bundles:
            _apply(step, x, p, values[:trials, a:b])
        missed = np.empty((trials, len(terminals)), dtype=bool)
        for a, b, step in decoders:
            got = np.zeros((trials, b - a, m), dtype=np.int64)
            _apply(step, values[:trials], p, got.reshape(trials, -1))
            np.any(got != want[:, None], axis=2, out=missed[:, a:b])
        for trial, pos in zip(*np.nonzero(missed)):
            failures.append((terminals[pos], _assignment(net, m, x[trial])))
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
    terms = _check(net, code)
    dim = code.m * (net.r + net.c)
    failures = _failures(net, code, terms, _random_blocks(seed, code.p, trials, dim))
    return VerifyReport(
        mode="randomized",
        ok=not failures,
        failures=tuple(failures),
        trials_or_dim=trials,
        seed=seed,
    )
