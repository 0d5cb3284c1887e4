"""Exact field and matrix arithmetic."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    FANO_MATRIX,
    FIG3_TRANSPOSE_BOUND_MATRIX,
    mat,
    random_01_matrix,
    rank_mod_p,
    to_lists,
)
from sumnet.bounds import bound_matrix
from sumnet.gf import IntMatrix, PrimeField, is_prime


def det_oracle(m: IntMatrix) -> int:
    """Independent determinant: plain Gaussian elimination over Fraction."""
    n = m.rows
    work = [[Fraction(x) for x in m.row(i)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col]:
                f = work[r][col] * inv
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    assert det.denominator == 1
    return int(det)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_prime_field_rejects_composites():
    PrimeField(2)
    PrimeField(65537)
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_from_order_reduces_prime_powers():
    assert PrimeField.from_order(9).p == 3
    assert PrimeField.from_order(8).p == 2
    assert PrimeField.from_order(5).p == 5
    with pytest.raises(ValueError):
        PrimeField.from_order(12)
    with pytest.raises(ValueError):
        PrimeField.from_order(1)


def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if trial_division_is_prime(n)
    ]


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    # Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number whenever all
    # three factors are prime; the k below reach past 2^64.
    chernick = []
    for k in [*range(1, 400), *range(10**6, 10**6 + 3000)]:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(trial_division_is_prime(f) for f in factors):
            chernick.append(math.prod(factors))
    assert chernick[0] == 1729 and max(chernick) > 2**64
    assert not any(is_prime(n) for n in chernick)
    # Strong pseudoprimes to the first 4, 9 and 12 prime bases.
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)


def test_is_prime_refuses_beyond_its_proved_bound():
    # The smallest strong pseudoprime to all 13 bases 2..41.
    limit = 3317044064679887385961981
    with pytest.raises(ValueError, match=str(limit)):
        is_prime(limit)
    assert not is_prime(limit + 1)  # even: decided by a base


def test_from_order_on_large_prime_powers():
    assert PrimeField.from_order(2**61 - 1).p == 2**61 - 1
    assert PrimeField.from_order((2**61 - 1) ** 2).p == 2**61 - 1
    assert PrimeField.from_order(3**40).p == 3
    assert PrimeField.from_order(3**8000).p == 3
    for q in (6**20, 2**61 * 3, (2**61 - 1) * (2**13 - 1)):
        with pytest.raises(ValueError, match="not a prime power"):
            PrimeField.from_order(q)
    with pytest.raises(ValueError, match="deterministic primality"):
        PrimeField.from_order((2**61 - 1) * (2**31 - 1))


def test_from_order_decides_long_orders_quickly():
    # The first order has 14,278 bits: about 1,700 prime exponents to try, each
    # root a few Newton steps from a start just above it.
    start = time.process_time()
    with pytest.raises(ValueError, match="deterministic primality"):
        PrimeField.from_order(10**4298 + 7)  # 4,299 digits, coprime to every base
    with pytest.raises(ValueError, match="deterministic primality"):
        PrimeField.from_order(10**2000 + 1)
    assert PrimeField.from_order(3**8000).p == 3
    assert PrimeField.from_order((2**61 - 1) ** 70).p == 2**61 - 1
    assert time.process_time() - start < 1


def test_int_matrix_shape_checks():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_int_matrix_ops():
    m = mat([[1, 2], [3, 4], [5, 6]])
    assert to_lists(m.transpose()) == [[1, 3, 5], [2, 4, 6]]
    assert m.col(1) == (2, 4, 6)
    assert to_lists(m.submatrix([0, 2], [1])) == [[2], [6]]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_identity(p):
    assert rank_mod_p(mat(np.eye(5, dtype=int)), PrimeField(p)) == 5


def test_rank_of_printed_transpose_bound_matrix():
    m = mat(FIG3_TRANSPOSE_BOUND_MATRIX)
    assert rank_mod_p(m, PrimeField(3)) == 5


def test_rank_fano_bound_matrix_char2():
    m = bound_matrix(mat(FANO_MATRIX))
    assert rank_mod_p(m, PrimeField(2)) == 7
    assert rank_mod_p(m, PrimeField(3)) == 14


def test_rank_invariant_under_permutation():
    rng = random.Random(7)
    for _ in range(30):
        m = random_01_matrix(rng, 6, 6)
        p = rng.choice([2, 3, 5])
        base = rank_mod_p(m, PrimeField(p))
        rows = to_lists(m)
        rng.shuffle(rows)
        cols = list(range(m.cols))
        rng.shuffle(cols)
        shuffled = [[row[j] for j in cols] for row in rows]
        assert rank_mod_p(mat(shuffled), PrimeField(p)) == base


def test_rank_bounds_and_embedded_identity():
    rng = random.Random(11)
    for _ in range(20):
        m = random_01_matrix(rng, 6, 6)
        p = rng.choice([2, 3, 5])
        assert rank_mod_p(m, PrimeField(p)) <= min(m.rows, m.cols)
    # a matrix carrying I_3 in its leading rows/columns has rank >= 3
    m = mat([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]])
    assert rank_mod_p(m, PrimeField(2)) >= 3


def test_det_fano_bound_matrix():
    # Frozen via the Fraction-elimination oracle; even, consistent with the
    # GF(2) rank of 7 < 14.
    m = bound_matrix(mat(FANO_MATRIX))
    d = det_oracle(m)
    assert d == -128
    assert d % 2 == 0


def test_det_matches_oracle_and_rank_criterion():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = mat([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
        d = det_oracle(m)
        for p in (2, 3, 5):
            full = rank_mod_p(m, PrimeField(p)) == n
            assert full == (d % p != 0)
