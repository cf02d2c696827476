"""Fundamental groups of mapping tori, and their abelianization.

A presentation of the mapping torus of Z acting on the fibre's Z^2 by an
integer matrix, and its abelian invariants by Smith normal form, in integer
arithmetic.  No command imports this module yet: it waits for the torus
quotients computed from a lattice action, whose fundamental groups it
presents.
"""

from __future__ import annotations

import math
from collections import namedtuple


# relators are words in signed 1-based generator indices
GroupPresentation = namedtuple("GroupPresentation", "generators relators")
# each torsion coefficient divides the next
AbelianInvariants = namedtuple("AbelianInvariants", "free_rank torsion")


def mapping_torus_pi1(action) -> GroupPresentation:
    """Presentation of Z acting on Z^2 by an integer matrix A:
    <t, a, b | [a,b], t a t^-1 = a^A00 b^A10, t b t^-1 = a^A01 b^A11>."""
    a = [[int(action[i][j]) for j in range(2)] for i in range(2)]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if det not in (1, -1):
        raise ValueError("action matrix must be invertible over the integers")
    T, A, B = 1, 2, 3

    def power(gen: int, e: int) -> list[int]:
        return [gen] * e if e >= 0 else [-gen] * (-e)

    commutator = [A, B, -A, -B]
    rel_a = [T, A, -T] + power(A, -a[0][0]) + power(B, -a[1][0])
    rel_b = [T, B, -T] + power(A, -a[0][1]) + power(B, -a[1][1])
    return GroupPresentation(3, [commutator, rel_a, rel_b])


def smith_normal_form(mat: list[list[int]]) -> list[list[int]]:
    """Smith normal form of an integer matrix (diagonal, d_i | d_{i+1})."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        done = False
        while not done:
            done = True
            for i in range(t + 1, rows):
                if m[i][t]:
                    f = m[i][t] // m[t][t]
                    m[i] = [x - f * y for x, y in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        done = False
            for j in range(t + 1, cols):
                if m[t][j]:
                    f = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= f * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        done = False
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        t += 1
    # enforce divisibility d_i | d_{i+1}
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = m[i][i], m[i + 1][i + 1]
            if b % a != 0:
                g = math.gcd(a, b)
                m[i][i], m[i + 1][i + 1] = g, a * b // g
                changed = True
    return m


def abelianize(p: GroupPresentation) -> AbelianInvariants:
    rel = []
    for word in p.relators:
        row = [0] * p.generators
        for s in word:
            row[abs(s) - 1] += 1 if s > 0 else -1
        rel.append(row)
    if not rel:
        return AbelianInvariants(p.generators, [])
    snf = smith_normal_form(rel)
    diag = [snf[i][i] for i in range(min(len(snf), len(snf[0])))]
    rank = sum(1 for d in diag if d != 0)
    torsion = [d for d in diag if d > 1]
    return AbelianInvariants(p.generators - rank, torsion)
