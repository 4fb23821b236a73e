"""Exact rank and inertia over the rationals.

Entries may be ints, ``fractions.Fraction``s, floats (taken at their
exact binary value) or anything else ``Fraction`` accepts.  Denominators
are cleared once, up front; all elimination then runs fraction-free on
Python ints, so the answers are exact at any entry size.  Int entries are
used as they are, without building a ``Fraction``.

Growth is kept in check by dividing out gcds: every stored pivot row of
the rank elimination, and every Schur complement of the inertia
elimination, is made primitive.  For inertia this is at least as strong
as Bareiss (1968) elimination: the Schur complement times the absolute
determinant of the pivot block is an integer matrix of bordered minors,
so its primitive multiple never exceeds them and entries stay within the
Hadamard bound of the cleared matrix.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Integral
from operator import index


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    return index(x) if isinstance(x, Integral) else Fraction(x)


def _denominator(entries) -> int:
    return lcm(*(x.denominator for x in entries if type(x) is not int))


def _times(x, den: int) -> int:
    """den * x for an int or a Fraction x whose denominator divides den."""
    return x * den if type(x) is int else x.numerator * (den // x.denominator)


def rational_rank(rows) -> int:
    """Rank of a rectangular matrix whose rows are sequences, or mappings
    ``{column: entry}`` in which an absent column is zero.

    Each row is scaled to integers and kept sparse as ``{column: int}``,
    then reduced against the stored pivot rows, always at its lowest
    column, by ``p*row - f*pivot``.  What is left, if anything, becomes
    the pivot row of its lowest column.
    """
    pivots: dict = {}
    for row in rows:
        items = row.items() if isinstance(row, Mapping) else enumerate(row)
        vec = {c: x for c, x in items if x}
        if not all(type(x) is int for x in vec.values()):
            vec = {c: _exact(x) for c, x in vec.items()}
            den = _denominator(vec.values())
            vec = {c: _times(x, den) for c, x in vec.items()}
        while vec:
            col = min(vec)
            pivot = pivots.get(col)
            if pivot is None:
                g = gcd(*vec.values())
                pivots[col] = {c: x // g for c, x in vec.items()} if g > 1 else vec
                break
            p, f = pivot[col], vec[col]
            g = gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                vec = {c: p * x for c, x in vec.items()}
            for c, y in pivot.items():
                x = vec.get(c, 0) - f * y
                if x:
                    vec[c] = x
                else:
                    vec.pop(c, None)
    return len(pivots)


def rational_inertia(rows) -> tuple:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Denominators are cleared by the congruence D A D, D the positive
    diagonal matrix of row denominators.  Symmetric elimination follows:
    a nonzero diagonal pivot d contributes its sign, and the rest of the
    matrix becomes |d| times the Schur complement, entry by entry
    ``|d|*a_rc - sign(d)*a_rp*a_pc``, divided by its gcd.  When the whole
    diagonal is zero but some off-diagonal entry a_ij is not, the
    congruence row_i += row_j / col_i += col_j puts 2*a_ij on the
    diagonal.  Sylvester's law keeps the counts invariant under all of
    these moves, positive scalings included.
    """
    a = [[_exact(x) for x in row] for row in rows]
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    dens = [_denominator(row) for row in a]
    a = [[_times(x, di) * dj for x, dj in zip(row, dens)] for row, di in zip(a, dens)]
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix must be symmetric")

    n_plus = n_minus = 0
    while a:
        k = len(a)
        p = next((i for i in range(k) if a[i][i]), None)
        if p is None:
            pair = next(
                ((i, j) for i in range(k) for j in range(i + 1, k) if a[i][j]), None
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            continue
        d = a[p][p]
        if d > 0:
            n_plus += 1
            pivot = a[p][:p] + a[p][p + 1 :]
        else:
            n_minus += 1
            pivot = [-x for x in a[p][:p] + a[p][p + 1 :]]
        d = abs(d)
        block = []
        for r, row in enumerate(a):
            if r == p:
                continue
            f = row[p]
            rest = row[:p] + row[p + 1 :]
            if f:
                block.append([d * x - f * y for x, y in zip(rest, pivot)])
            else:
                block.append([d * x for x in rest] if d != 1 else rest)
        g = gcd(*chain.from_iterable(block))
        if g > 1:
            block = [[x // g for x in row] for row in block]
        a = block
    return n_plus, n_minus, n - n_plus - n_minus
