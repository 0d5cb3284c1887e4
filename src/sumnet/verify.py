"""Machine verification that a code computes the sum at every terminal.

Both verifiers, ``verify_exact`` and ``verify_random``, admit a code
through one gate, ``_check``, which refuses it with a ``ValueError`` naming
the first fault found.  It is also the only place that reads a code's
matrices: it reads each one whole, once, as its list of nonzero terms, so
every nonzero entry is a term, and both verifiers work on those lists.
The codes are almost all zero, so a list is short.  The stacked bundle map
lists, for every row of the bottlenecks e1..er and then of one direct
bundle per source, each alpha*n rows, the message coordinates it reads and
their coefficients.  An encoder contributes its nonzero entries, and a
direct edge, which carries its source's message uncoded, one term of
coefficient 1 per slot it uses.  So a direct edge is one more bundle whose
map is a selection.  Each decoder lists the stacked rows it reads.

``verify_exact`` is complete for the linear codes built here.  For each
terminal it joins every decoder term with each term of the stacked row it
reads, adds the products into the dense composite map and compares it with
the all-ones block map [I_m | I_m | ... | I_m].  The sums are exact in
int64 and reduced mod p once per terminal: an entry sums at most one
product per decoder term of its row, each at most (p-1)^2, and ``_check``
keeps (p-1)^2 times the decoder's width below 2^63.  Equality of those
matrices is equivalent to correct decoding of every message tuple, so a
passing report is a proof, not a sample.  Enumerating every message tuple
is only the tests' ground truth for it, kept with their other references
in ``tests/conftest.py``.

``verify_random`` re-checks by simulating topological edge propagation on
pseudorandom messages; it exists as an independent cross-check and demo.
The generator is fixed so reports are reproducible: trial t draws symbols
from a SplitMix64 stream with initial state s = (seed + t) mod 2^64, whose
draw k (k >= 1) is mix(s + k*gamma) mod 2^64 in closed form, gamma the
stream's odd increment.  Each 64-bit draw maps to a field symbol by
rejection sampling (values at or above floor(2^64/p)*p are discarded, the
rest reduced mod p).

The simulation takes blocks of up to 64 trials at once, trials-major: one
message vector per row of a (T x dim) block.  It applies the stacked
bundle map, one bottleneck's rows at a time and then the direct rows, and
then each decoder: each is one gather of the values its terms read, one
multiplication by their coefficients and one sum per row.  A term sum has
at most ``inner`` products, each below (p-1)^2, so ``_check``'s int64
limit covers it unreduced.  Taking one bottleneck or terminal at a time
bounds peak memory by the block and the largest term list, not by the
trial count, and every report lists its failures in (trial, terminal) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _entries(mat: np.ndarray):
    """The row, column and value of each nonzero entry, row-major.  A flat
    scan of a boolean mask is several times faster than a 2-D np.nonzero."""
    flat = np.flatnonzero(mat != 0)
    return *np.divmod(flat, mat.shape[1]), np.take(mat, flat)


def _check(net: SumNetwork, code: NetworkCode):
    """Admit a code to the verifiers, or raise naming the first fault.

    In order: shapes, encoder count and alpha, the int64 limit, primality,
    the entry range, encoder locality, then each decoder's inputs and shape.
    This is the only reader of a code's matrices.  It returns them as term
    lists, each held row-major as arrays of (row, value read, coefficient):
    the stacked bundle map, whose terms read message coordinates, and
    (terminal, decoder) pairs in terminal order, whose terms read stacked
    rows.  The stacked rows are bottlenecks e1..er, then one direct bundle
    per source in message order, each alpha*n rows.  An encoder's terms are
    all its nonzero entries, and the locality check finds each in its
    feeding columns, the coordinates of the sources feeding it.  A direct
    slot has one term of coefficient 1: parallel edge l carries message
    slice [l*m/alpha, (l+1)*m/alpha) in its leading slots.
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
    parts = []  # each bundle's terms: (stacked row, coordinate read, coefficient)
    for i, enc in enumerate(code.encoders):
        row, k, coef = _entries(enc)
        parts.append((row + i * width, k, coef))
    terms = {t: _entries(dec.matrix) for t, dec in code.decoders.items()}
    # The int64 limit above holds only for entries reduced mod p.
    named = [(f"encoder e{i}", coef) for i, (_, _, coef) in enumerate(parts, start=1)]
    named += [(f"decoder for {t}", coef) for t, (_, _, coef) in terms.items()]
    for name, values in named:
        if values.size and (values.min() < 0 or values.max() >= code.p):
            raise ValueError(f"{name} has an entry outside [0, {code.p})")
    for i, (_, k, _) in enumerate(parts, start=1):
        fed = np.zeros(dim, dtype=bool)
        fed[feeding_columns(net.matrix, i, m)] = True
        if not fed[k].all():
            raise ValueError(f"encoder e{i} uses a message outside the sources feeding it")
    slots = np.arange((net.r + net.c) * width).reshape(-1, code.alpha, code.n) + net.r * width
    direct = slots[:, :, : m // code.alpha].ravel()  # carry coordinates 0, 1, ..., dim - 1
    parts.append((direct, np.arange(dim), np.ones(dim, dtype=np.int64)))
    labels = [f"e{i}" for i in range(1, net.r + 1)] + net.sources()
    start = {label: k * width for k, label in enumerate(labels)}
    decoders = []
    for terminal, ins in net.inputs.items():
        if terminal not in code.decoders:
            raise ValueError(f"no decoder for terminal {terminal}")
        dec = code.decoders[terminal]
        expected = tuple(ins)
        if dec.inputs != expected:
            raise ValueError(f"decoder for {terminal} reads {dec.inputs}, expected {expected}")
        if dec.matrix.shape != (m, width * len(expected)):
            raise ValueError(f"decoder for {terminal} has shape {dec.matrix.shape}")
        row, k, coef = terms[terminal]
        read = np.array([start[x] for x in ins], dtype=np.intp)[k // width] + k % width
        decoders.append((terminal, (row, read, coef)))
    return tuple(map(np.concatenate, zip(*parts))), decoders


def verify_exact(net: SumNetwork, code: NetworkCode) -> VerifyReport:
    """Prove or refute the code by composing decoder and bundle maps.

    ok means every terminal's composite map equals the sum map, i.e. the
    code is correct for all q^(m(r+c)) messages.
    """
    (rows, coords, coefs), decoders = _check(net, code)
    p, m, dim = code.p, code.m, code.m * (net.r + net.c)
    target = np.tile(np.eye(m, dtype=np.int64), net.r + net.c)
    failures = []
    for terminal, (out, reads, coef) in decoders:
        # Join every decoder term with each term of the stacked row it reads:
        # that row's terms are rows[first:first + count], as rows is sorted.
        first = np.searchsorted(rows, reads)
        counts = np.searchsorted(rows, reads, side="right") - first
        join = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        products = np.repeat(coef, counts) * coefs[join]
        composite = np.zeros_like(target)
        np.add.at(composite, (np.repeat(out, counts), coords[join]), products)
        diff = composite % p != target  # the sums stay within _check's int64 limit
        if np.any(diff):
            unit = np.zeros(dim, dtype=np.int64)
            unit[np.flatnonzero(diff.any(axis=0))[0]] = 1
            failures.append((terminal, _assignment(net, m, unit)))
    return VerifyReport(
        mode="exact-basis",
        ok=not failures,
        failures=tuple(failures),
        trials_or_dim=dim,
    )


def _runs(rows: np.ndarray, reads: np.ndarray, coef: np.ndarray):
    """A row-major term list as ``_apply`` reads it: the rows that have
    terms, the start of each one's run, the values read and coefficients."""
    out, heads = np.unique(rows, return_index=True)
    return out, heads, reads, coef


def _apply(terms, values: np.ndarray, p: int, out: np.ndarray) -> None:
    """Write each row's term sum over a trials-major block of values, mod p,
    to that row of ``out``; rows without terms are left as they are."""
    rows, heads, reads, coef = terms
    products = np.take(values, reads, axis=1)
    products *= coef
    out[:, rows] = np.add.reduceat(products, heads, axis=1) % p


def _failures(net: SumNetwork, code: NetworkCode, terms, blocks) -> list:
    """Propagate each block of message vectors, one per column, decode at
    every terminal, and collect (terminal, witness) for every terminal that
    misses the sum, in (message, terminal) order.

    A block is simulated trials-major through ``_check``'s term lists: the
    stacked bundle map one bottleneck's rows at a time and then the direct
    rows, into stacked values allocated once per call, where the rows
    without terms stay zero, and then one decoder at a time.
    """
    p, m, width = code.p, code.m, code.alpha * code.n
    (rows, coords, coefs), decoders = terms
    cuts = list(np.searchsorted(rows, np.arange(net.r + 1) * width)) + [len(rows)]
    bundles = [_runs(rows[a:b], coords[a:b], coefs[a:b]) for a, b in zip(cuts, cuts[1:])]
    decoders = [(t, _runs(*dec)) for t, dec in decoders]
    failures = []
    values = np.zeros((_BLOCK, (2 * net.r + net.c) * width), dtype=np.int64)
    for x in blocks:
        x = np.ascontiguousarray(x.T)
        trials = len(x)
        want = x.reshape(trials, net.r + net.c, m).sum(axis=1) % p
        for bundle in bundles:
            _apply(bundle, x, p, values[:trials])
        missed = np.empty((trials, len(decoders)), dtype=bool)
        for pos, (_, dec) in enumerate(decoders):
            got = np.zeros_like(want)
            _apply(dec, values[:trials], p, got)
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
