"""Finite subgroups of U(2) with exact cyclotomic entries.

Closure from generators, the complex-reflection / free-acting trichotomy of
elements, the reflection-generated normal subgroup, the quotient group, and
the cyclic action data (m, q) induced on the invariant coordinates.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from itertools import islice

from . import is_int
from .cyclotomic import CyclotomicScalar, SelfCheckFailed, root_of_unity_log, roots_of_unity
from .unitary import UMat2


class NotFiniteWithinBound(ValueError):
    pass


class Unsupported(Exception):
    """A computation the artifact deliberately refuses to guess."""

    def __init__(self, reason: str, **info):
        self.reason = reason
        self.info = info
        super().__init__(reason)


# kind is "identity" | "reflection" | "free"; fixed_line keys a reflection's
# fixed line in the group's field (`_normalize_line`)
ElementClass = namedtuple("ElementClass", "kind fixed_line", defaults=(None,))
CyclicActionData = namedtuple("CyclicActionData", "m q")


class CosetGroup:
    """A finite group given by its multiplication table.

    Element 0 is the identity; table[i][j] is the index of the product of
    elements i and j.  Every derived fact is read off the table by integer
    lookups.
    """

    def __init__(self, table: list[list[int]]):
        self.table = table

    @property
    def order(self) -> int:
        return len(self.table)

    def is_abelian(self) -> bool:
        """Whether generators commute pairwise: the generating set is taken
        greedily in index order, each element not yet in the subgroup the
        earlier ones generate joining it, so it has at most log2 |G| members."""
        gens, span = [], {0}
        for i in range(self.order):
            if i not in span:
                gens.append(i)
                span = self.subgroup_generated(gens)
        t = self.table
        return all(t[g][h] == t[h][g] for k, g in enumerate(gens) for h in gens[:k])

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = self.table[x][i]
            k += 1
        return k

    def inverse(self, i: int) -> int:
        return self.table[i].index(0)

    def subgroup_generated(self, gens: list[int]) -> set[int]:
        got = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in got:
                    got.add(y)
                    frontier.append(y)
        return got

    def conjugacy_classes(self) -> list[set[int]]:
        """The conjugacy classes, ordered by their smallest element."""
        t = self.table
        inverses = [self.inverse(g) for g in range(self.order)]
        classes: list[set[int]] = []
        seen: set[int] = set()
        for x in range(self.order):
            if x not in seen:
                cls = {t[t[g][x]][g_inv] for g, g_inv in enumerate(inverses)}
                classes.append(cls)
                seen |= cls
        return classes

    def quotient_by(self, subgroup: set[int]) -> "CosetGroup":
        """Table of the quotient by a normal subgroup; coset k is the k-th
        coset met in index order, so the identity coset is 0."""
        coset_of: dict[int, int] = {}
        reps: list[int] = []
        for i in range(self.order):
            if i not in coset_of:
                for h in subgroup:
                    coset_of[self.table[i][h]] = len(reps)
                reps.append(i)
        return CosetGroup([[coset_of[self.table[a][b]] for b in reps] for a in reps])

    def abelian_invariants(self) -> list[int]:
        """Invariant factors d1 | d2 | ... (each > 1) of an abelian group."""
        if not self.is_abelian():
            raise ValueError("group is not abelian")
        if self.order == 1:
            return []
        orders = [self.element_order(i) for i in range(self.order)]
        e = max(orders)  # in a finite abelian group some element realizes the exponent
        g = orders.index(e)
        sub = self.subgroup_generated([g])
        rest = self.quotient_by(sub).abelian_invariants()
        return rest + [e]


class UnitaryGroup(CosetGroup):
    """A finite subgroup of U(2): a multiplication table whose index i stands
    for the exact matrix matrices[i].  Indices follow the order in which the
    closure discovered the elements, and iteration yields the matrices in it.

    classes[i] is the ElementClass of element i.  gamma_star is the set of
    indices of the subgroup generated by the complex reflections, normal
    because conjugation maps reflections to reflections; gamma_prime is the
    table of the quotient by it.
    """

    def __init__(self, conductor: int, table: list[list[int]], matrices: list[UMat2],
                 generators: list[int]):
        super().__init__(table)
        self.conductor = conductor
        self.matrices = matrices
        self.generators = [matrices[i] for i in generators]
        self.classes = [classify_element(m) for m in matrices]
        reflections = [i for i, c in enumerate(self.classes) if c.kind == "reflection"]
        self.reflections = [matrices[i] for i in reflections]
        self.gamma_star = frozenset(self.subgroup_generated(reflections))
        self.gamma_prime = self.quotient_by(self.gamma_star)

    def __iter__(self):
        return iter(self.matrices)


# the closure bound of a group that sets none: a group file or a spec's
# group without max_order, a built-in group and a product's corner groups
DEFAULT_MAX_ORDER = 512


def generate_group(gens: list[UMat2], max_order: int = DEFAULT_MAX_ORDER) -> UnitaryGroup:
    """Worklist closure of the subgroup generated by unitary matrices.

    The closure multiplies each element once by each generator, recording
    the Schreier graph: right[k][x] is the index of x * gens[k], and each
    element other than the identity remembers the (parent, k) it was first
    found as.  The Cayley table then follows by integer lookups alone:
    x * y = (x * parent(y)) * gens[k].
    """
    conductor = math.lcm(*(x.conductor for g in gens for row in g.entries for x in row))
    gens_n = [g.to_conductor(conductor) for g in gens]
    ident = UMat2.identity(conductor)

    matrices = [ident]
    index = {ident.canonical_key(): 0}
    parent = [(0, 0)]

    def add(m: UMat2, key, x: int, k: int) -> int:
        index[key] = len(matrices)
        matrices.append(m)
        parent.append((x, k))
        return index[key]

    gen_indices = []
    for k, g in enumerate(gens_n):
        key = g.canonical_key()
        if key not in index:
            add(g, key, 0, k)
        gen_indices.append(index[key])
    right: list[dict[int, int]] = [{} for _ in gens_n]
    frontier = list(range(len(matrices)))
    while frontier:
        x = frontier.pop()
        for k, g in enumerate(gens_n):
            y = matrices[x] @ g
            key = y.canonical_key()
            if key not in index:
                if len(matrices) >= max_order:
                    raise NotFiniteWithinBound(f"closure exceeds max_order={max_order}")
                frontier.append(add(y, key, x, k))
            right[k][x] = index[key]

    # column y of the table, filled in discovery order so parent(y) comes first
    columns = [list(range(len(matrices)))]
    for x, k in parent[1:]:
        columns.append([right[k][z] for z in columns[x]])
    table = [list(row) for row in zip(*columns)]
    return UnitaryGroup(conductor, table, matrices, gen_indices)


def classify_element(m: UMat2) -> ElementClass:
    """Identity / complex reflection (eigenvalue 1 of multiplicity 1) / free."""
    e = m.entries
    one = CyclotomicScalar.one()
    a = e[0][0] - one
    b = e[0][1]
    c = e[1][0]
    d = e[1][1] - one
    if a.is_zero() and b.is_zero() and c.is_zero() and d.is_zero():
        return ElementClass("identity")
    det = a * d - b * c
    if not det.is_zero():
        return ElementClass("free")
    # the fixed line is the kernel of the rank-1 matrix g - I
    return ElementClass("reflection", fixed_line=_normalize_line(_null_vector(a, b, c, d)))


def _null_vector(a, b, c, d) -> tuple:
    """A nonzero vector of the kernel of the rank-1 matrix [[a, b], [c, d]],
    read off its first nonzero row: (-b, a), or (-d, c) when a = b = 0."""
    if a.is_zero() and b.is_zero():
        return -d, c
    return -b, a


def _normalize_line(v) -> tuple:
    """Key of the projective line (v0 : v1) in the field of its coordinates,
    as canonical_key keys a matrix: (1, num, den) of v1 / v0, or (0,) for
    the line (0 : 1)."""
    v0, v1 = v
    if v0.is_zero():
        return (0,)
    x = v1 / v0
    return (1, x.num, x.den)


def stratum_class(G: UnitaryGroup) -> str:
    """Which stratum a point with isotropy G belongs to."""
    if G.order == 1:
        return "Manifold"
    lines = {c.fixed_line for c in G.classes if c.kind == "reflection"}
    if not lines:
        return "Sigma0"
    if len(lines) == 1:
        return "SigmaStar"
    return "Sigma1"


def _eigen_split(m: UMat2, conductor: int):
    """Eigenvalues/eigenvectors of a non-scalar diagonalizable matrix: the
    first two roots of the characteristic polynomial in the order of
    `roots_of_unity(N)`.  None if they fall outside the declared field."""
    tr = m.trace()
    det = m.det()
    roots = list(islice((lam for _, _, lam in roots_of_unity(conductor)
                         if (lam * lam - tr * lam + det).is_zero()), 2))
    if len(roots) < 2:
        return None
    (a, b), (c, d) = m.entries
    return roots, [_null_vector(a - lam, b, c, d - lam) for lam in roots]


def _diagonalize(G: UnitaryGroup):
    """Simultaneous diagonal entries (alpha, beta) for every element of an
    abelian G, over the declared field only.  Raises Unsupported otherwise."""
    els = G.matrices

    def diag_of(m: UMat2):
        if m.entries[0][1].is_zero() and m.entries[1][0].is_zero():
            return (m.entries[0][0], m.entries[1][1])
        return None

    if all(diag_of(g) is not None for g in els):
        return [diag_of(g) for g in els]

    pivot = next((g for g in els if diag_of(g) is None), None)
    split = _eigen_split(pivot, G.conductor)
    if split is None:
        raise Unsupported("eigenvalues fall outside the declared cyclotomic field")
    _, (v1, v2) = split
    # change of basis P = [v1 v2]; conjugate everything by P^-1
    det = v1[0] * v2[1] - v2[0] * v1[1]
    if det.is_zero():
        raise Unsupported("eigenvectors are not independent over the declared field")
    inv = det.inverse()
    # P and P^-1 need not be unitary, hence check=False
    p = UMat2([[v1[0], v2[0]], [v1[1], v2[1]]], check=False)
    pinv = UMat2([[v2[1] * inv, (-1) * v2[0] * inv], [(-1) * v1[1] * inv, v1[0] * inv]],
                 check=False)
    out = []
    for g in els:
        res = (pinv @ g @ p).entries
        if not (res[0][1].is_zero() and res[1][0].is_zero()):
            raise Unsupported("group is not simultaneously diagonalizable in the eigenbasis")
        out.append((res[0][0], res[1][1]))
    return out


def induced_cyclic_data(G: UnitaryGroup) -> CyclicActionData:
    """Normal form (m, q) of the action induced by G/Gamma* on the invariant
    coordinates (z^a, w^b) of the reflection subgroup."""
    if not G.is_abelian():
        raise Unsupported("non-abelian isotropy group", order=G.order, abelian=False)
    diag_all = _diagonalize(G)

    # torsion exponent bookkeeping in zeta_M with M the field's full torsion
    def log(u: CyclotomicScalar) -> tuple[int, int]:
        return root_of_unity_log(u.to_conductor(G.conductor))

    modulus = None
    exps = []
    for alpha, beta in diag_all:
        (m1, e1), (m2, e2) = log(alpha), log(beta)
        if m1 != m2:  # root_of_unity_log fixes M by the field, identical across calls
            raise SelfCheckFailed("torsion orders of the two diagonal entries differ")
        modulus = m1
        exps.append((e1, e2))
    star_exps = [exps[i] for i in G.gamma_star]

    a = len({e1 % modulus for (e1, e2) in star_exps if e2 % modulus == 0})
    b = len({e2 % modulus for (e1, e2) in star_exps if e1 % modulus == 0})

    # induced action on (z^a, w^b): exponent pairs mod the torsion order.  They
    # are the image of the homomorphism g -> (a e1, b e2), hence a subgroup.
    pairs = sorted({((e1 * a) % modulus, (e2 * b) % modulus) for (e1, e2) in exps})
    m = len(pairs)
    if m != G.gamma_prime.order:
        raise Unsupported("induced action is not faithful on the invariant coordinates")
    if m == 1:
        return CyclicActionData(1, 0)  # manifold point sentinel

    gen = next((p for p in pairs if modulus // math.gcd(modulus, *p) == m), None)
    if gen is None:
        raise Unsupported("induced quotient action is not cyclic, hence not free off 0")
    # gen acts as (zeta_M^g1, zeta_M^g2); rescale to order-m roots
    g1 = gen[0] * m // modulus if (gen[0] * m) % modulus == 0 else None
    g2 = gen[1] * m // modulus if (gen[1] * m) % modulus == 0 else None
    if g1 is None or g2 is None:  # orders divide m by construction
        raise SelfCheckFailed("induced generator order does not divide m")
    if math.gcd(g1, m) != 1:
        raise Unsupported("induced action fixes the first invariant axis: not free off 0")
    # normalize the generator so the first weight is 1
    s = pow(g1, -1, m)
    q = (g2 * s) % m
    if math.gcd(q, m) != 1:
        raise Unsupported("induced action fixes the second invariant axis: not free off 0")
    return CyclicActionData(m, q)


# the largest conductor a group file or a spec's group may name, for each
# scalar and for the lcm of all of them, the field its closure runs in.  In
# a 2-core container `group classify` on an order-2 group takes 0.1 s at
# conductor 256 and 5 s at 16,000, and on a cyclic group of order 256 at
# conductor 256 0.2 s.  An odd conductor N doubles the roots of unity to the
# 2N of +-zeta_N^k: on Z_255 with weights (1, 7), of order 255 at conductor
# 255, it takes 0.4 s.  The benchmark's groups read conductor 24 or less
MAX_CONDUCTOR = 256

# the largest max_order a group file or a spec's group may set.  The
# multiplication table grows as the square of the order: `group classify`
# closes C48 x C48 (order 2304) in 1.9 s and 106 MB, and `group invariants`
# on C128 x C16 (order 2048) takes 24 s.  The default is DEFAULT_MAX_ORDER
MAX_ORDER = 2304


def _bounded(value, bound: int, what: str) -> int:
    """value, an integer in [1, bound]; anything else, a JSON true, 4.5, "4"
    or null included, is a ValueError naming it."""
    if not (is_int(value) and 1 <= value <= bound):
        raise ValueError(f"{what} {json.dumps(value)} is not an integer in [1, {bound}]")
    return value


def group_from_json(obj: dict) -> UnitaryGroup:
    """The group of a JSON object {"generators": [...], "max_order": n}, the
    format of group files and of spec groups.  Each generator is 2x2, each
    scalar's conductor and their lcm lie in [1, MAX_CONDUCTOR], and
    max_order in [1, MAX_ORDER]: checked before any scalar is built."""
    generators = obj["generators"]
    max_order = _bounded(obj.get("max_order", DEFAULT_MAX_ORDER), MAX_ORDER, "max_order")
    field = 1
    for g in generators:
        if not (isinstance(g, list) and len(g) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in g)):
            raise ValueError("each generator must be a 2x2 array of scalars")
        for entry in g[0] + g[1]:
            field = math.lcm(field, _bounded(entry["conductor"], MAX_CONDUCTOR, "conductor"))
    if field > MAX_CONDUCTOR:
        raise ValueError(f"the generators' conductors have lcm {field}, "
                         f"above {MAX_CONDUCTOR}")
    return generate_group([UMat2.from_json(g) for g in generators], max_order=max_order)


# named built-in groups for specs and the CLI
def builtin_group(name: str) -> UnitaryGroup:
    minus_one = CyclotomicScalar(2, [-1])
    one = CyclotomicScalar.one()
    if name == "minus_identity":
        return generate_group([UMat2.diagonal(minus_one, minus_one)])
    if name == "klein_four":
        return generate_group([UMat2.diagonal(minus_one, one), UMat2.diagonal(one, minus_one)])
    raise ValueError(f"unknown built-in group {name!r}")
