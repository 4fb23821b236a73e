"""Exact rank and inertia against plain Fraction elimination."""

import random
from fractions import Fraction

import pytest

from realdim import exactlinalg
from realdim.exactlinalg import rational_inertia, rational_rank

# -- reference: Gaussian and symmetric elimination over Fractions ---------------------


def reference_rank(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        for r in range(row + 1, nrows):
            if a[r][col] != 0:
                factor = a[r][col] / a[row][col]
                for c in range(col, ncols):
                    a[r][c] -= factor * a[row][c]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def reference_inertia(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    active = list(range(n))
    n_plus = n_minus = 0
    while active:
        pivot = next((i for i in active if a[i][i] != 0), None)
        if pivot is None:
            pair = next(
                ((i, j) for i in active for j in active if i < j and a[i][j] != 0), None
            )
            if pair is None:
                break
            i, j = pair
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            continue
        d = a[pivot][pivot]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        active.remove(pivot)
        factors = {r: a[r][pivot] / d for r in active if a[r][pivot] != 0}
        for r, f in factors.items():
            for c in range(n):
                a[r][c] -= f * a[pivot][c]
        for r, f in factors.items():
            for c in range(n):
                a[c][r] -= f * a[c][pivot]
    return n_plus, n_minus, n - n_plus - n_minus


# -- random matrices ---------------------------------------------------------------

KINDS = ("small", "big", "fraction", "float", "mixed")


def entry(rng, kind):
    if kind == "mixed":
        kind = rng.choice(KINDS[:-1])
    if rng.random() < 0.3:
        return 0
    if kind == "small":
        return rng.randint(-3, 3)
    if kind == "big":
        return rng.randint(-(10**30), 10**30)
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return rng.randint(-64, 64) / 2 ** rng.randint(0, 6)  # exact dyadic float


def coefficient(rng):
    return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 7))])


def random_matrix(rng):
    """Rows of one kind, some of them combinations of the others."""
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    kind = rng.choice(KINDS)
    base = [[entry(rng, kind) for _ in range(ncols)] for _ in range(rng.randint(1, nrows))]
    rows = list(base)
    while len(rows) < nrows:
        picks = rng.sample(base, rng.randint(1, len(base)))
        cs = [coefficient(rng) for _ in picks]
        rows.append([sum(c * r[j] for c, r in zip(cs, picks)) for j in range(ncols)])
    rng.shuffle(rows)
    return rows


def random_symmetric(rng):
    """Symmetric, often singular (B^T diag(s) B), sometimes with a zero diagonal."""
    n = rng.randint(1, 12)
    kind = rng.choice(KINDS)
    shape = rng.choice(("dense", "congruence", "zero-diagonal"))
    k = rng.randint(1, n)
    b = [[entry(rng, kind) for _ in range(n)] for _ in range(k)]
    s = [coefficient(rng) for _ in range(k)]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if shape == "congruence":
                a[i][j] = a[j][i] = sum(s[t] * b[t][i] * b[t][j] for t in range(k))
            elif i != j or shape == "dense":
                a[i][j] = a[j][i] = entry(rng, kind)
    return a


@pytest.mark.parametrize("seed", range(5))
def test_rank_matches_fraction_elimination(seed):
    rng = random.Random(1000 + seed)
    for _ in range(120):
        rows = random_matrix(rng)
        assert rational_rank(rows) == reference_rank(rows), rows


@pytest.mark.parametrize("seed", range(5))
def test_inertia_matches_fraction_elimination(seed):
    rng = random.Random(2000 + seed)
    for _ in range(120):
        a = random_symmetric(rng)
        assert rational_inertia(a) == reference_inertia(a), a


def test_inertia_of_zero_diagonal_matrices():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 10)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = rng.choice([0, 0, 1, -1, 10**25, Fraction(-1, 3)])
        assert rational_inertia(a) == reference_inertia(a), a


@pytest.mark.parametrize("seed", range(2))
def test_rank_of_mapping_rows_matches_sequence_rows(seed):
    rng = random.Random(3000 + seed)
    for _ in range(120):
        rows = random_matrix(rng)
        sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
        assert rational_rank(sparse) == rational_rank(rows), rows


# -- exactness where floats fail ------------------------------------------------------


def test_rank_exact_for_huge_entries():
    big = 10**20
    assert rational_rank([[big, big + 1], [big + 1, big + 2]]) == 2
    assert rational_rank([[big, big + 1], [2 * big, 2 * big + 1]]) == 2
    assert rational_rank([[big, big + 1], [3 * big, 3 * big + 3]]) == 1


def test_inertia_exact_for_huge_entries():
    assert rational_inertia([[10**30, 1], [1, 0]]) == (1, 1, 0)
    big = 10**20
    assert rational_inertia([[big, big + 1], [big + 1, big + 2]]) == (1, 1, 0)
    assert rational_inertia([[big, big], [big, big]]) == (1, 0, 1)


def test_fraction_and_float_entries():
    third = Fraction(1, 3)
    assert rational_rank([[third, 0.5], [Fraction(2, 3), 1.0]]) == 1
    assert rational_rank([[0.1, 0.2], [0.2, 0.4]]) == 1
    assert rational_inertia([[1, 0.5], [Fraction(1, 2), third]]) == (2, 0, 0)
    assert rational_inertia([[0, 0.25], [0.25, 0]]) == (1, 1, 0)


def test_int_input_builds_no_fraction(monkeypatch):
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built for int input")

    monkeypatch.setattr(exactlinalg, "Fraction", NoFraction)
    assert rational_rank([[1, 2, 3], [2, 4, 6], [0, 10**30, 1]]) == 2
    assert rational_inertia([[0, 2, 1], [2, 0, 10**30], [1, 10**30, 0]]) == (1, 2, 0)


# -- edge cases ----------------------------------------------------------------------


def test_empty_and_zero_matrices():
    assert rational_rank([]) == 0
    assert rational_rank([[]]) == 0
    assert rational_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert rational_inertia([]) == (0, 0, 0)
    assert rational_inertia([[0] * 3 for _ in range(3)]) == (0, 0, 3)


def test_inertia_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        rational_inertia([[1, 2]])
    with pytest.raises(ValueError, match="square"):
        rational_inertia([[1, 0], [0]])


def test_inertia_rejects_non_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        rational_inertia([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="symmetric"):
        rational_inertia([[0, Fraction(1, 3)], [0.3333, 0]])
