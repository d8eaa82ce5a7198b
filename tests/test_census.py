"""Every subspace of F_2^6, enumerated independently of the library.

The census lists each subspace once by its reduced row-echelon basis and
decides coverage by scanning the 64 words, with no code shared with any
engine.  It pins B_d(6, lam), the number of balancing subspaces of each
dimension d, and checks q_exact's uncovered count on every subspace.
"""

from __future__ import annotations

import itertools

import pytest

from balset import BalanceSpec, LinearCode, q_exact

N = 6
# B_0 .. B_6 at n = 6: how many subspaces of each dimension balance
BALANCING = {
    0: [0, 0, 0, 1120, 620, 62, 1],
    1: [0, 20, 630, 1395, 651, 63, 1],
    2: [0, 62, 651, 1395, 651, 63, 1],
}
# the Gaussian binomials [6 choose d]_2: all 2 825 subspaces
SUBSPACES = [1, 63, 651, 1395, 651, 63, 1]


def subspaces(n: int):
    """Each subspace of F_2^n once, as its reduced row-echelon basis: row i
    has top bit p_i, no row has another row's pivot bit, and the bits below
    p_i outside the pivots are free."""
    for d in range(n + 1):
        for pivots in itertools.combinations(range(n), d):
            free = [[b for b in range(p) if b not in pivots] for p in pivots]
            for fill in itertools.product(*(range(1 << len(f)) for f in free)):
                yield [
                    1 << p | sum(1 << b for i, b in enumerate(f) if x >> i & 1)
                    for p, f, x in zip(pivots, free, fill)
                ]


def uncovered_counts(n: int, lam: int) -> list[tuple[list[int], int]]:
    """(basis, uncovered count) per subspace: the words within distance
    n/2 +- lam of a codeword c are the band translated by c, a 2^n-bit mask
    built by scanning all words once per c."""
    band = [x for x in range(1 << n) if abs(x.bit_count() - n // 2) <= lam]
    near = [sum(1 << (x ^ c) for x in band) for c in range(1 << n)]
    out = []
    for rows in subspaces(n):
        span = [0]
        for r in rows:
            span += [s ^ r for s in span]
        covered = 0
        for c in span:
            covered |= near[c]
        out.append((rows, (1 << n) - covered.bit_count()))
    return out


@pytest.fixture(scope="module", params=sorted(BALANCING))
def census(request):
    return request.param, uncovered_counts(N, request.param)


def test_census_counts_every_subspace(census) -> None:
    _, table = census
    by_dim = [0] * (N + 1)
    for rows, _ in table:
        by_dim[len(rows)] += 1
    assert by_dim == SUBSPACES
    assert len({tuple(rows) for rows, _ in table}) == sum(SUBSPACES)


def test_balancing_subspaces_by_dimension(census) -> None:
    lam, table = census
    by_dim = [0] * (N + 1)
    for rows, unc in table:
        by_dim[len(rows)] += unc == 0
    assert by_dim == BALANCING[lam]


def test_q_exact_matches_census_on_every_subspace(census) -> None:
    lam, table = census
    spec = BalanceSpec(N, lam)
    wrong = [
        (rows, unc)
        for rows, unc in table
        if q_exact(LinearCode.from_ints(N, rows), spec).uncovered_count != unc
    ]
    assert not wrong
