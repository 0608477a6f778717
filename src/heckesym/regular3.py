"""The three-generator quadratic family, its regularity predicates, and the
Hessian group of the cubic pencil.

The family has generators x_1, x_2, x_3 and relations

    t_i = a x_(i+1) x_(i-1) + b x_(i-1) x_(i+1) + c x_i^2,   indices mod 3.

Regularity holds when at least two parameters are nonzero and a^3, b^3, c^3
are not all equal; elliptic type A additionally needs abc != 0 and
(a^3+b^3+c^3)^3 != 27 a^3 b^3 c^3.  The degree-3 tensor t = sum x_i t_i
= sum t_i x_i spans the intersection of the two shifts of the relation
space, and its symmetric image is 3(a+b) x1 x2 x3 + c (x1^3+x2^3+x3^3).

The Hessian group is generated over Q(zeta_3) by five explicit projective
transformations.  It acts faithfully on the nine inflection points of the
pencil, as ASL(2,3) on the affine plane over F_3 (Artebani-Dolgachev, "The
Hesse pencil of plane cubic curves", 2009), so the closure, element orders,
subgroups and conjugacy classes are computed on permutations of the nine
points; 3x3 matrices are multiplied only for the elements that are returned
or printed.  The closure order 216 and the subgroup and conjugacy facts are
asserted at runtime rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .exactnum import FieldSpec, Scalar, cyclotomic_field, primitive_root
from .exprio import format_scalar
from .frobenius import restrict_to_subspace
from .linalg import MatrixF, first_minor, vec_pivot, vec_scale
from .multipoly import MultiPoly, PolyRing
from .report import CheckReport
from .symmetry import apply_power, tensor_index

__all__ = [
    "SklParameters",
    "ProjectiveElement",
    "cyclic_slots",
    "symbolic_parameters",
    "skl_relations",
    "skl_tensor",
    "skl_symmetric_image",
    "is_regular",
    "is_type_A",
    "j_invariant",
    "hessian_field",
    "hessian_generators",
    "hessian_group",
    "translation_subgroup",
    "center_extension",
    "conjugacy_classes",
    "conjugacy_report",
    "action_on_parameters",
    "preserves_relations",
    "inflection_points",
    "transform_point",
    "generators_permute_inflections",
    "cube_difference_factorization",
]


@dataclass(frozen=True)
class SklParameters:
    """The triple (a, b, c), over any common coefficient domain."""

    a: object
    b: object
    c: object
    domain: object  # FieldSpec or PolyRing

    def __post_init__(self):
        if all(_entry_is_zero(v) for v in (self.a, self.b, self.c)):
            raise ValueError("(a, b, c) must not be identically zero")

    @staticmethod
    def numeric(a, b, c, field: Optional[FieldSpec] = None) -> "SklParameters":
        field = field or FieldSpec("rational")
        return SklParameters(field.scalar(a), field.scalar(b), field.scalar(c), field)


def _entry_is_zero(v) -> bool:
    return v.is_zero() if hasattr(v, "is_zero") else v == 0


def symbolic_parameters(order: int = 1, extra: Sequence[str] = ()) -> Tuple[SklParameters, PolyRing]:
    """Parameters a, b, c as polynomial variables (plus optional unknowns)."""
    ring = PolyRing(("a", "b", "c") + tuple(extra), order)
    return SklParameters(ring.var("a"), ring.var("b"), ring.var("c"), ring), ring


def _mod3(i: int) -> int:
    return (i - 1) % 3 + 1


def skl_relations(p: SklParameters) -> List[tuple]:
    """The degree-2 relation tensors t_1, t_2, t_3 as 9-vectors."""
    zero = p.domain.zero()
    out = []
    for i in (1, 2, 3):
        up, dn = _mod3(i + 1), _mod3(i - 1)
        vec = [zero] * 9
        for word, coeff in (((up, dn), p.a), ((dn, up), p.b), ((i, i), p.c)):
            vec[tensor_index(word, 3)] = vec[tensor_index(word, 3)] + coeff
        out.append(tuple(vec))
    return out


def skl_tensor(p: SklParameters) -> tuple:
    """t = sum_i (a x_(i-1) x_i x_(i+1) + b x_(i+1) x_i x_(i-1) + c x_i^3)."""
    zero = p.domain.zero()
    vec = [zero] * 27
    for i in (1, 2, 3):
        up, dn = _mod3(i + 1), _mod3(i - 1)
        for word, coeff in (((dn, i, up), p.a), ((up, i, dn), p.b), ((i, i, i), p.c)):
            vec[tensor_index(word, 3)] = vec[tensor_index(word, 3)] + coeff
    return tuple(vec)


def skl_symmetric_image(p: SklParameters, ring: PolyRing) -> MultiPoly:
    """3(a+b) x1 x2 x3 + c (x1^3 + x2^3 + x3^3) in the given ring."""
    x1, x2, x3 = ring.var("x1"), ring.var("x2"), ring.var("x3")
    a, b, c = (_into_ring(v, ring) for v in (p.a, p.b, p.c))
    return 3 * (a + b) * x1 * x2 * x3 + c * (x1 ** 3 + x2 ** 3 + x3 ** 3)


def _into_ring(v, ring: PolyRing) -> MultiPoly:
    if isinstance(v, MultiPoly):
        if v.ring is ring or v.ring == ring:
            return v
        # re-express on the bigger variable set
        return v.coefficients_in((), ring).get((), ring.zero())
    return ring.const(v)


# ---------------------------------------------------------------------------
# predicates


def is_regular(p: SklParameters) -> bool:
    """At least two parameters nonzero, and not a^3 = b^3 = c^3."""
    a, b, c = p.a, p.b, p.c
    nonzero = sum(0 if _entry_is_zero(v) else 1 for v in (a, b, c))
    if nonzero < 2:
        return False
    a3, b3, c3 = a ** 3, b ** 3, c ** 3
    return not (a3 == b3 and b3 == c3)


def is_type_A(p: SklParameters) -> bool:
    """Regular with smooth elliptic point scheme."""
    if not is_regular(p):
        return False
    a, b, c = p.a, p.b, p.c
    if any(_entry_is_zero(v) for v in (a, b, c)):
        return False
    lhs = (a ** 3 + b ** 3 + c ** 3) ** 3
    rhs = 27 * a ** 3 * b ** 3 * c ** 3
    return lhs != rhs


def j_invariant(kappa: Scalar) -> Scalar:
    """j of the cubic x1^3+x2^3+x3^3+6 kappa x1x2x3 = 0."""
    field = kappa.field
    denom = (8 * kappa ** 3 + 1) ** 3
    if denom.is_zero():
        from .exactnum import PoleError

        raise PoleError("j-invariant has a pole at 8 kappa^3 = -1")
    return field.scalar(-(2 ** 12) * 27) * (kappa ** 3 - 1) ** 3 * kappa ** 3 / denom


def cube_difference_factorization(order: int = 3) -> bool:
    """(a^3+b^3+c^3)^3 - 27a^3b^3c^3 = prod_(i,j) (eps^i a + eps^j b + c)."""
    ring = PolyRing(("a", "b", "c"), order)
    a, b, c = ring.vars()
    eps = primitive_root(3, cyclotomic_field(order))
    prod = ring.one()
    for i in range(1, 4):
        for j in range(1, 4):
            prod = prod * (eps ** i * a + eps ** j * b + c)
    return prod == (a ** 3 + b ** 3 + c ** 3) ** 3 - 27 * (a * b * c) ** 3


# ---------------------------------------------------------------------------
# the Hessian group


def hessian_field() -> FieldSpec:
    return cyclotomic_field(3)


class ProjectiveElement:
    """A 3x3 invertible matrix modulo scalars, stored scalar-normalized."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: MatrixF, normalized: bool = False):
        if matrix.rows != 3 or matrix.cols != 3:
            raise ValueError("projective elements act on 3 coordinates")
        if not normalized:
            matrix = _normalize(matrix)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *args):
        raise AttributeError("ProjectiveElement is immutable")

    def __mul__(self, other: "ProjectiveElement") -> "ProjectiveElement":
        return ProjectiveElement(self.matrix * other.matrix)

    def inverse(self) -> "ProjectiveElement":
        return ProjectiveElement(self.matrix.inverse())

    def is_identity(self) -> bool:
        return self.matrix == MatrixF.identity(3, self.matrix.domain)

    def order(self) -> int:
        acc = self
        k = 1
        while not acc.is_identity():
            acc = acc * self
            k += 1
            if k > 432:
                raise RuntimeError("order computation runaway")
        return k

    def __eq__(self, other):
        return isinstance(other, ProjectiveElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "ProjectiveElement(%s)" % self.to_rows()

    def to_rows(self) -> list:
        return [[format_scalar(self.matrix[i, j]) for j in range(3)] for i in range(3)]


def _normalize(M: MatrixF) -> MatrixF:
    """M scaled so that its first nonzero entry is 1."""
    if M.rank() < 3:
        raise ValueError("projective element must be invertible")
    return MatrixF(3, 3, _normalize_point(M.entries), M.domain)


def _matrix(field: FieldSpec, rows) -> MatrixF:
    return MatrixF.from_rows(
        [[v if isinstance(v, Scalar) else field.scalar(v) for v in row] for row in rows], field
    )


def hessian_generators(field: Optional[FieldSpec] = None) -> Dict[str, ProjectiveElement]:
    """The five generating transformations (columns are images of x_j)."""
    field = field or hessian_field()
    eps = primitive_root(3, field)
    one, zero = field.one(), field.zero()
    gens = {
        # x1 -> x2 -> x3 -> x1
        "cycle": _matrix(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        # x1 -> eps x1, x2 -> eps^2 x2, x3 -> x3
        "diag": _matrix(field, [[eps, zero, zero], [zero, eps * eps, zero], [zero, zero, one]]),
        # x1 -> eps x1
        "scale1": _matrix(field, [[eps, zero, zero], [zero, one, zero], [zero, zero, one]]),
        # x1 <-> x2
        "swap": _matrix(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        # x_j -> sum_i eps^(i j) x_i
        "fourier": _matrix(field, [[eps ** (i * j) for j in (1, 2, 3)] for i in (1, 2, 3)]),
    }
    return {name: ProjectiveElement(M) for name, M in gens.items()}


# -- the action on the nine inflection points
#
# The nine points contain four in general position, e.g. (0:1:-1), (1:0:-1),
# (0:1:-eps) and (1:0:-eps^2), and the only projective transformation fixing
# four points in general position is the identity.  So an element of the
# group is determined by the permutation it induces on the nine points, and
# g * h acts as g after h.  Closure, orders, subgroups and classes run on
# these permutations, in the same discovery order as on the matrices; a
# matrix is built only for an element that is returned or printed.

_Perm9 = Tuple[int, ...]
_IDENTITY9: _Perm9 = tuple(range(9))


def _compose(g: _Perm9, h: _Perm9) -> _Perm9:
    """g * h, acting as g after h."""
    return tuple([g[k] for k in h])


def _perm_inverse(g: _Perm9) -> _Perm9:
    out = [0] * len(g)
    for j, k in enumerate(g):
        out[k] = j
    return tuple(out)


def _perm_order(g: _Perm9) -> int:
    acc, k = g, 1
    while acc != _IDENTITY9:
        acc, k = _compose(acc, g), k + 1
    return k


class _PointAction:
    """Generators over one field, as matrices and as permutations of the nine points."""

    def __init__(self, field: FieldSpec):
        self.points = inflection_points(field)
        self.where = {p: j for j, p in enumerate(self.points)}
        self.generators = hessian_generators(field)
        self.columns = MatrixF.from_rows(self.points, field).transpose()
        self.perms = {name: self.perm(g) for name, g in self.generators.items()}

    def perm(self, g: ProjectiveElement) -> Optional[_Perm9]:
        """Image indices of the points under g, all nine from one product; None if g does not permute them."""
        images = g.matrix * self.columns
        out = tuple(self.where.get(_normalize_point(images.col(j))) for j in range(9))
        return None if None in out else out

    def permuted(self) -> bool:
        return all(p is not None for p in self.perms.values())

    def closure(self, names: Sequence[str], bound: int) -> "_Closure":
        if not self.permuted():
            raise RuntimeError("a generator does not permute the nine inflection points")
        return _Closure([self.perms[n] for n in names], [self.generators[n].matrix for n in names], bound)


class _Closure:
    """Breadth-first closure of permutations under right multiplication by the generators.

    parent[e] is (index of g, generator index h) for e found as g * h, (-1, h)
    for the generator h itself and None for the identity.
    """

    def __init__(self, gens: List[_Perm9], matrices: List[MatrixF], bound: int):
        self.matrices = matrices
        self.index: Dict[_Perm9, int] = {}
        self.parent: List[Optional[Tuple[int, int]]] = []
        for h, g in enumerate(gens):
            self._add(g, (-1, h))
        if gens:
            self._add(_IDENTITY9, None)
        frontier = list(self.index)
        while frontier:
            new = []
            for g in frontier:
                gi = self.index[g]
                for h, hp in enumerate(gens):
                    prod = _compose(g, hp)
                    if self._add(prod, (gi, h)):
                        new.append(prod)
            frontier = new
            if len(self.index) > bound:
                raise RuntimeError("closure exceeded the expected bound %d" % bound)
        self.elements = list(self.index)
        self._unnormalized: Dict[int, MatrixF] = {}

    def _add(self, g: _Perm9, parent) -> bool:
        if g in self.index:
            return False
        self.index[g] = len(self.parent)
        self.parent.append(parent)
        return True

    def _matrix(self, i: int) -> MatrixF:
        """Product of generator matrices along the parent pointers, not normalized."""
        got = self._unnormalized.get(i)
        if got is None:
            link = self.parent[i]
            if link is None:
                got = MatrixF.identity(3, self.matrices[0].domain)
            elif link[0] < 0:
                got = self.matrices[link[1]]
            else:
                got = self._matrix(link[0]) * self.matrices[link[1]]
            self._unnormalized[i] = got
        return got

    def projective(self, g: _Perm9) -> ProjectiveElement:
        return ProjectiveElement(self._matrix(self.index[g]))

    def projective_elements(self) -> List[ProjectiveElement]:
        return [self.projective(g) for g in self.elements]


_ALL_GENERATORS = ("cycle", "diag", "scale1", "swap", "fourier")


def _hessian_closure(action: _PointAction) -> _Closure:
    group = action.closure(_ALL_GENERATORS, 216)
    if len(group.elements) != 216:
        raise RuntimeError(
            "generator closure has order %d, not 216; the generating set "
            "assumption is violated (fallback: add a transformation permuting "
            "the nine inflection points found by search)" % len(group.elements)
        )
    return group


def hessian_group(field: Optional[FieldSpec] = None) -> List[ProjectiveElement]:
    """Closure of the five generators; fails loudly unless the order is 216."""
    return _hessian_closure(_PointAction(field or hessian_field())).projective_elements()


def translation_subgroup(field: Optional[FieldSpec] = None) -> List[ProjectiveElement]:
    return _PointAction(field or hessian_field()).closure(("cycle", "diag"), 9).projective_elements()


def center_extension(field: Optional[FieldSpec] = None) -> List[ProjectiveElement]:
    return _PointAction(field or hessian_field()).closure(("cycle", "diag", "swap"), 18).projective_elements()


def _perm_classes(group: Sequence[_Perm9], generators: Sequence[_Perm9]) -> List[List[_Perm9]]:
    """Orbits under generator conjugation, sorted by (element order, size)."""
    gen_pairs = [(h, _perm_inverse(h)) for h in generators]
    unassigned = dict.fromkeys(group)
    classes = []
    while unassigned:
        seed = next(iter(unassigned))
        orbit = {seed: None}
        stack = [seed]
        while stack:
            g = stack.pop()
            for h, hinv in gen_pairs:
                cand = _compose(_compose(h, g), hinv)
                if cand not in orbit:
                    orbit[cand] = None
                    stack.append(cand)
        for g in orbit:
            unassigned.pop(g, None)
        classes.append(list(orbit))
    classes.sort(key=lambda cls: (_perm_order(cls[0]), len(cls)))
    return classes


def conjugacy_classes(group: List[ProjectiveElement], generators: Optional[Sequence[ProjectiveElement]] = None) -> List[List[ProjectiveElement]]:
    """Partition into conjugacy classes (orbits under generator conjugation).

    The group and the generators must permute the nine inflection points,
    and the group must be closed under conjugation by the generators.
    """
    action = _PointAction(group[0].matrix.domain if group else hessian_field())
    if generators is None:
        generators = list(action.generators.values())
    members = [action.perm(g) for g in group]
    gen_perms = [action.perm(h) for h in generators]
    if None in members or None in gen_perms:
        raise ValueError("every element must permute the nine inflection points")
    by_perm: Dict[_Perm9, ProjectiveElement] = {}
    for p, g in zip(members, group):
        by_perm.setdefault(p, g)
    classes = _perm_classes(members, gen_perms)
    if sum(len(cls) for cls in classes) != len(by_perm):
        raise ValueError("the group is not closed under conjugation by the generators")
    return [[by_perm[p] for p in cls] for cls in classes]


def conjugacy_report(field: Optional[FieldSpec] = None) -> Tuple[CheckReport, dict]:
    """Class structure of the Hessian group, with the facts asserted."""
    field = field or hessian_field()
    report = CheckReport("hessian-group")
    action = _PointAction(field)
    closure = _hessian_closure(action)
    group = closure.elements
    T = action.closure(("cycle", "diag"), 9).elements
    Z = action.closure(("cycle", "diag", "swap"), 18).elements
    report.record("order", "|G| = 216", len(group) == 216, "got %d" % len(group))
    report.record("translations", "|T| = 9", len(T) == 9, "got %d" % len(T))
    report.record("center-extension", "|Z| = 18", len(Z) == 18, "got %d" % len(Z))
    report.record("quotient", "|G/Z| = 12", len(group) // len(Z) == 12 and len(group) % len(Z) == 0)
    gens = list(action.perms.values())
    t_set = set(T)
    normal = all(_compose(_compose(g, t), _perm_inverse(g)) in t_set for g in gens for t in T)
    report.record("translations-normal", "T normal in G, |G/T| = 24", normal and len(group) // len(T) == 24)

    classes = _perm_classes(group, gens)
    orders = {g: _perm_order(g) for g in group}
    census: Dict[int, int] = {}
    for o in orders.values():
        census[o] = census.get(o, 0) + 1

    def classes_of_order(k):
        return [cls for cls in classes if orders[cls[0]] == k]

    two_classes = classes_of_order(2)
    four_classes = classes_of_order(4)
    report.record(
        "order2-single-class",
        "all order-2 elements are conjugate",
        len(two_classes) == 1 and len(two_classes[0]) == census.get(2, 0),
        "classes: %s" % [len(c) for c in two_classes],
    )
    report.record(
        "order4-single-class",
        "all order-4 elements are conjugate",
        len(four_classes) == 1 and len(four_classes[0]) == census.get(4, 0),
        "classes: %s" % [len(c) for c in four_classes],
    )
    nonident_T = [t for t in T if t != _IDENTITY9]
    in_one = None
    for cls in classes:
        if nonident_T[0] in set(cls):
            in_one = set(cls)
            break
    report.record(
        "translations-conjugate",
        "the 8 nonidentity translations are conjugate in G",
        in_one is not None and all(t in in_one for t in nonident_T),
    )
    allowed = {1, 2, 3, 4, 6, 9, 12} & {d for d in range(1, 217) if 216 % d == 0}
    report.record(
        "order-census-support",
        "element orders lie in {1,2,3,4,6,9,12} and divide 216",
        all(o in allowed for o in census),
        "census %s" % census,
    )
    report.record(
        "inflections-permuted",
        "each generator permutes the nine base points of the pencil",
        action.permuted(),
    )
    data = {
        "group_order": len(group),
        "translation_order": len(T),
        "center_extension_order": len(Z),
        "quotient_order": len(group) // len(Z),
        "order_census": {str(k): v for k, v in sorted(census.items())},
        "classes": [
            {
                "size": len(cls),
                "element_order": orders[cls[0]],
                "representative": closure.projective(cls[0]).to_rows(),
            }
            for cls in classes
        ],
    }
    return report, data


# ---------------------------------------------------------------------------
# the action on parameters and the invariant data


def cyclic_slots() -> List[List[int]]:
    """Slots of the ascending x_(i-1) x_i x_(i+1), descending x_(i+1) x_i x_(i-1)
    and cubic x_i^3 monomials, one list each."""
    w1 = [tensor_index((_mod3(i - 1), i, _mod3(i + 1)), 3) for i in (1, 2, 3)]
    w2 = [tensor_index((_mod3(i + 1), i, _mod3(i - 1)), 3) for i in (1, 2, 3)]
    w3 = [tensor_index((i, i, i), 3) for i in (1, 2, 3)]
    return [w1, w2, w3]


def action_on_parameters(tau: ProjectiveElement) -> MatrixF:
    """Matrix of tau^(x)3 on the invariant 3-space spanned by
    w1 = sum x_(i-1) x_i x_(i+1), w2 = sum x_(i+1) x_i x_(i-1), w3 = sum x_i^3.

    The parameter triple transforms by this matrix: (a:b:c) -> M (a,b,c).
    The w have disjoint supports, so a coordinate of an image is its entry
    at any slot of that w; the matrix is one action on the family of the
    three (`frobenius.restrict_to_subspace`), which raises ValueError when the
    span is not stable.
    """
    field = tau.matrix.domain
    zero, one = field.zero(), field.one()
    slots = cyclic_slots()
    basis = [tuple(one if k in w_slots else zero for k in range(27)) for w_slots in slots]
    return restrict_to_subspace(tau.matrix, 3, basis, [w_slots[0] for w_slots in slots])


def preserves_relations(theta: MatrixF, p: SklParameters) -> Tuple[bool, Optional[bool]]:
    """Whether theta^(x)3 fixes the line spanned by the degree-3 tensor.

    Returns (line_stable, det_twisted) where det_twisted reports, when
    a != b, whether theta maps the symmetric cubic to det(theta) times
    itself (the condition that actually extends theta to an automorphism);
    it is None when a = b.
    """
    t = skl_tensor(p)
    img = apply_power(theta, 3, t, p.domain.zero())
    line_stable = first_minor(img, t) is None
    det_twisted: Optional[bool] = None
    if p.a != p.b:
        if isinstance(p.domain, PolyRing):
            ring = PolyRing(p.domain.variables + ("x1", "x2", "x3"), p.domain.order)
        else:
            ring = PolyRing(("x1", "x2", "x3"), p.domain.order)
        ts = skl_symmetric_image(p, ring)
        sub = {}
        for j, name in enumerate(("x1", "x2", "x3")):
            acc = ring.zero()
            for i, iname in enumerate(("x1", "x2", "x3")):
                c = theta[i, j]
                if not c.is_zero():
                    acc = acc + c * ring.var(iname)
            sub[name] = acc
        det_twisted = ts.substitute(sub) == ring.const(theta.det()) * ts
    return line_stable, det_twisted


def inflection_points(field: Optional[FieldSpec] = None) -> List[tuple]:
    """The nine common points of the cubic pencil, scalar-normalized."""
    field = field or hessian_field()
    eps = primitive_root(3, field)
    one, zero = field.one(), field.zero()
    pts = []
    for r in (one, eps, eps * eps):
        pts.append((zero, one, -r))
        pts.append((-r, zero, one))
        pts.append((one, -r, zero))
    return [_normalize_point(p) for p in pts]


def _normalize_point(p: tuple) -> tuple:
    """p scaled so that its first nonzero coordinate is 1; p itself when that is already 1."""
    try:
        pivot = vec_pivot(p)
    except ValueError:
        raise ValueError("zero point") from None
    inv = p[pivot].inverse()
    return tuple(p) if inv.is_one() else vec_scale(inv, p)


def transform_point(g: ProjectiveElement, p: tuple) -> tuple:
    return _normalize_point(tuple(g.matrix.apply(p)))


def generators_permute_inflections(field: Optional[FieldSpec] = None) -> bool:
    return _PointAction(field or hessian_field()).permuted()
