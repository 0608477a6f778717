"""Frobenius structure of the graded algebra built on the upsilon spaces.

When some upsilon(n) is one-dimensional with upsilon(n+1) = 0, the graded
algebra with product a * b = y_(k+l/k,l)(ab) is Frobenius.  Fixing the
canonical spanning tensor t of the top component, this module computes

  - the multiplication pairings beta_k(u, w) t = y_(n/k,n-k)(u (x) w),
  - the braiding operators theta, theta_bar with
        T_((n+1)~1)(v t) = t theta(v),  T_(1~(n+1))(t v) = theta_bar(v) t,
        theta_bar theta = q^(n+1) Id,
  - psi, the twist moving a front factor of t to the back:
        t = sum x_i t_i  implies  t = sum t_i psi(x_i),
  - phi, the degree-1 part of the Nakayama automorphism, from
        beta_(n-1)(b, a) = beta_1(phi(a), b),
  - the functional f with y_n u = [n-1]!_q f(u) t (when [n-1]!_q is nonzero),

verifies the full operator identity suite (commutations, the relation
psi = q^(-n-1) phi theta^2, tensor-square commutation with R, the pairing
twist, the braiding through the top and its mirror, twisted cyclicity of f,
trace formulas with q-binomial values), and reconstructs R from f and the
degree-2 relations via the projection P with R = q Id - (1+q) P.

Every operator identity is stated as one matrix equality lhs = rhs and
recorded by `_record_equal`, row by row up to the first difference, or as
one action whose result must vanish; a failing one names the first nonzero
entry of lhs - rhs as "entry (i,j) = ...".  A family of vectors is acted
on at once, stacked (`linalg._stack`) or placed from two factors
(`linalg.Placed`), with no Kronecker product formed: each restriction to a
subspace is one action, and psi is one solve with N right-hand sides.  The
braidings through t are two actions each (`_top_sides`): the braiding on
the units beside t, and the operator on the other such family.  theta and
theta_bar are read off N^2 values of the first, braid-top reuses the pair
for theta^(x)k, k = 1, 2, and mirror-top acts on t beside the basis of
upsilon(k).  square-commutes acts with A on R's two row slots, and with R
on the columns of A (x) A, placed from A's (`_square_sides`).  The sides,
and the vanishing, are decided on the packed ints (`exactnum.Packed`'s ==
and `vanishes`).  The pairings and f are read off one row of rep(h)
(`_row`): row p is h with its words reversed acting on e_p under R^t.
beta_k reads the row of y_(n/k,n-k) at t's pivot; f the row of y_n =
y_(n/n-1,1) ... y_(2/1,1) (`_y_row`), n(n+1)/2 - 1 words where y_n has n!.
Away from q = -1 the images lie on the line of t by the coset argument in
`pairing`; at q = -1 each beta_k, 0 < k < n, keeps one action on the family
of all u (x) w, placed from the two bases.  `functional.kernel` compares f
with the row at t's last nonzero coordinate (`linalg.first_minor`).  A
pairing is nonsingular when its rank is full.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .exactnum import FieldSpec, Packed, Scalar, qbinom, qfact, qint
from .exprio import format_scalar
from .heckealg import coset_y, partial_y, shift_element, unit
from .linalg import MatrixF, Placed, Subspace, _stack, first_minor, vec_is_zero, vec_pivot, vec_scale
from .permgroup import Composition, longest_rho
from .report import CheckReport
from .symmetry import HeckeSymmetry, _format_entry, _packed_act, _packed_vanishes, _vanishes, apply_power, column_table

__all__ = [
    "FrobeniusProfile",
    "NoTopComponent",
    "DegeneratePairing",
    "QFactorialVanishes",
    "top_component",
    "pairing",
    "theta_pair",
    "psi_op",
    "phi_op",
    "f_functional",
    "analyze",
    "trace_table",
    "verify_operator_identities",
    "front_pairing",
    "projection_from_dual",
    "reconstruct_from_f",
    "profile_json_dict",
]


class NoTopComponent(ValueError):
    """No one-dimensional top component found up to the requested degree."""


class DegeneratePairing(ValueError):
    """A multiplication pairing is not square invertible (invalid input)."""


class QFactorialVanishes(ValueError):
    """[n-1]!_q = 0, so the normalized functional f is unavailable."""


# ---------------------------------------------------------------------------
# building blocks


def top_component(sym: HeckeSymmetry, n_max: Optional[int] = None) -> Tuple[int, tuple]:
    """Smallest n >= 1 with dim upsilon(n) = 1 and upsilon(n+1) = 0.

    Returns (n, t) where t is the canonical basis vector (first nonzero
    coordinate scaled to 1 by row reduction).
    """
    if n_max is None:
        n_max = 2 * sym.N + 1
    for n in range(1, n_max + 1):
        U = sym.upsilon(n)
        if U.dim == 1 and sym.upsilon(n + 1).dim == 0:
            return n, U.basis[0]
    raise NoTopComponent(
        "no degree n <= %d has a 1-dimensional top component with vanishing successor" % n_max
    )


def _top_pivot(sym: HeckeSymmetry, n: int, t: Sequence) -> int:
    """The first nonzero coordinate of t, refused unless t spans upsilon(n)."""
    U = sym.upsilon(n)
    if U.dim != 1 or not U.contains(t):
        raise DegeneratePairing("t does not span upsilon(%d)" % n)
    return vec_pivot(t)


def _row(sym: HeckeSymmetry, factors: Sequence, n: int, k: int) -> tuple:
    """Row k of rep(h_1 ... h_m) on V^(x)n (the empty product is the unit), given the reverses h_i* (T_sigma ->
    T_(sigma^-1)) of the factors: rep(h)^t is rep(h_m* ... h_1*) under R^t, so h_1* acts on e_k first."""
    dual, row = sym._transpose(), Placed(range(k, k + 1), dim=sym.N ** n)
    for h in factors or [unit(n, sym.field)]:
        row = dual.apply_hecke(h, n, row)
    return row


def pairing(sym: HeckeSymmetry, k: int, n: int, t: Sequence) -> MatrixF:
    """Matrix of beta_k on the canonical bases U, W of upsilon(k) x upsilon(n-k), t spanning upsilon(n).

    beta_k(u, w) t[piv] is coordinate piv of y_(n/k,n-k)(u (x) w): u (x) w against row piv of rep(y_(n/k,n-k))
    (`_row`; reversed, coset_y(n, k, n-k) sums over the right coset representatives with the same coefficients).
    As the N^k x N^(n-k) matrix M_k, beta_k = U M_k W^t / t[piv], M_k W^t the front pairing of the row with W.

    That z = y_(n/k,n-k)(u (x) w) lies on the line of t needs no check away from q = -1.  z = sum c_d T_d(u (x) w)
    over the minimal left coset representatives d of S_(k,n-k), with c_(s_i d) = -c_d / q.  Deodhar's lemma pairs d
    with s_i d, and T_i z sums to -z over each pair; where s_i d = d s_j instead, T_j(u (x) w) = -(u (x) w).  So
    T_i z = -z identically in q.  For q != -1, T_i is diagonalizable, ker(T_i + 1) = Im(T_i - q), and z lies in
    upsilon(n) = span(t).  At q = -1, for 0 < k < n, one action on the family of all u (x) w checks that its
    images are t (x) beta_k.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    field, piv = sym.field, _top_pivot(sym, n, t)
    left, right = sym.upsilon(k).basis, sym.upsilon(n - k).basis
    reverse = [partial_y(n, Composition((k, n - k)), "right", field)] if 0 < k < n else []
    B = (MatrixF.from_rows(left, field) * front_pairing(_row(sym, reverse, n, piv), right, field)).scale(t[piv].inverse())
    if reverse and (sym.q + 1).is_zero():
        m = B.rows * B.cols
        images = sym._packed(sym._hecke_terms(coset_y(n, k, n - k, field), n), n, Placed(left, right), m).values()
        if MatrixF(len(t), m, images, field) != MatrixF(len(t), 1, t, field) * MatrixF(1, m, B.entries, field):
            raise DegeneratePairing("beta_%d does not pair into the line of t" % k)
    if B.rows != B.cols or B.rank() != B.rows:
        raise DegeneratePairing("beta_%d is singular" % k)
    return B


def _top_sides(sym: HeckeSymmetry, k: int, n: int, t: Sequence, bar: bool = False) -> tuple:
    """The packed sides of T_rho(u t) = t theta^(x)k(u), rho = longest_rho(k, n), over the units u of V^(x)k, or
    with bar of T_(rho^-1)(t u) = theta_bar^(x)k(u) t: the left side, and the right side as a function of the
    operator, on the other family placed from t (linalg.Placed), packed at least at the left side's digit width
    (T_rho's bound is the larger one on every input tried), so that Packed.__eq__ compares ints."""
    m, rho = sym.N ** k, longest_rho(k, n)
    families = (Placed(range(m), [t]), Placed([t], range(m)))
    lhs = sym._packed([((rho.inverse() if bar else rho).reduced_word(), None)], k + n, families[bar], m)
    slots, bits = (range(1, k + 1) if bar else range(n + 1, n + k + 1)), lhs.bits
    return lhs, lambda op: _packed_act(column_table(op), sym.N, [(slots, None)], families[not bar], sym.field.zero(), m, bits)


def _square_sides(sym: HeckeSymmetry, op: MatrixF) -> Tuple[Packed, Packed]:
    """(op (x) op) R and R (op (x) op), packed with the columns as lanes: op on R's two row slots, and R on slot 1 of
    the columns op e_a (x) op e_b of op (x) op (lane a N + b), placed from op's, at the first's width as in _top_sides."""
    R, cols = sym.R, [op.col(j) for j in range(op.cols)]
    lhs = _packed_act(column_table(op), sym.N, [((1, 2), None)], R.entries, sym.field.zero(), R.cols)
    return lhs, _packed_act(column_table(R), sym.N, [((1,), None)], Placed(cols, cols), sym.field.zero(), R.cols, lhs.bits)


def theta_pair(sym: HeckeSymmetry, n: int, t: Sequence) -> Tuple[MatrixF, MatrixF]:
    """The operators theta and theta_bar, with theta_bar theta = q^(n+1) Id, each read off N^2 values of a braiding
    through t (`_top_sides`, k = 1): the images of the e_j t are t (x) theta(e_j), so theta is their coordinates
    piv N + c, piv t's pivot; those of the t e_j are theta_bar(e_j) (x) t, read at a N^n + piv.  Each braiding must
    equal the action of the operator read off it, compared on the packed ints as in braid-top."""
    N, piv, ops = sym.N, vec_pivot(t), []
    for bar, at in ((False, range(piv * N, (piv + 1) * N)), (True, range(piv, N ** (n + 1), N ** n))):
        lhs, rhs = _top_sides(sym, 1, n, t, bar)
        op = MatrixF(N, N, Packed(lhs.field, [[xs[i] for i in at] for xs in lhs.comps], lhs.den, lhs.bits, N).values(), sym.field)
        if lhs != rhs(op):
            raise DegeneratePairing("braiding does not send t (x) V into V (x) t" if bar else "braiding does not send V (x) t into t (x) V")
        ops.append(op)
    theta, theta_bar = ops
    if theta_bar * theta != MatrixF.identity(N, sym.field).scale(sym.q ** (n + 1)):
        raise DegeneratePairing("theta_bar theta != q^(n+1) Id")
    return theta, theta_bar


def psi_op(sym: HeckeSymmetry, n: int, t: Sequence) -> MatrixF:
    """The unique psi with t = sum t_i (x) psi(x_i) when t = sum x_i (x) t_i.

    With rows t_i in T and rows b_j in B, t = sum b_j (x) x_j, this reads
    B = psi T.  psi is unique iff the t_i are independent, that is iff one
    solve of T Y = Id succeeds, and then psi = B Y if any psi exists.
    """
    N, field, block = sym.N, sym.field, sym.N ** (n - 1)
    T = MatrixF(N, block, t, field)
    right = T.solve(MatrixF.identity(N, field))
    if right is None:
        raise DegeneratePairing("front slices of t do not have full rank")
    back = MatrixF(block, N, t, field).transpose()
    psi = back * right
    if psi * T != back:
        raise DegeneratePairing("no twist operator matches the top tensor")
    return psi


def phi_op(sym: HeckeSymmetry, n: int, beta1: MatrixF, beta_n1: MatrixF) -> MatrixF:
    """Degree-1 Nakayama component from beta_(n-1)(b, a) = beta_1(phi(a), b).

    beta_1 has rows indexed by V and columns by upsilon(n-1); beta_(n-1)
    the other way around, so the defining identity reads, entrywise,
    beta_n1 = beta_1^T phi.
    """
    return beta1.transpose().inverse() * beta_n1


def _y_row(sym: HeckeSymmetry, n: int, k: int) -> tuple:
    """Row k of rep(y_n) on V^(x)n (`_row`), from y_n = y_(n/n-1,1) ... y_(3/2,1) y_(2/1,1): n(n+1)/2 - 1 words,
    where antisymmetrizer(n) has n!."""
    return _row(sym, [partial_y(j, Composition((j - 1, 1)), "right", sym.field) for j in range(n, 1, -1)], n, k)


def f_functional(sym: HeckeSymmetry, n: int, t: Sequence) -> tuple:
    """The covector f with y_n u = [n-1]!_q f(u) t, t spanning upsilon(n); needs [n-1]!_q != 0.

    y_n acts with rank one onto the line of t: T_i y_n = -y_n puts Im y_n inside ker(T_i + 1) = Im(T_i - q) once
    q != -1 (as for `pairing`), and [n-1]!_q != 0 forces q != -1 for n >= 3 ([2]_q = 1 + q divides it);
    y_2 = q - T_1 has image upsilon(2) at every q.  So rep(y_n) = t g^T, and row piv of rep(y_n) (`_y_row`), piv
    the first nonzero coordinate of t, is t[piv] g.
    """
    norm = qfact(n - 1, sym.field)
    if norm.is_zero():
        raise QFactorialVanishes("[%d]!_q = 0 in this field" % (n - 1))
    piv = _top_pivot(sym, n, t)
    return vec_scale((norm * t[piv]).inverse(), _y_row(sym, n, piv))


# ---------------------------------------------------------------------------
# the assembled profile


@dataclass
class FrobeniusProfile:
    """Everything the Frobenius structure determines, over one symmetry."""

    sym: HeckeSymmetry
    n: int
    t: tuple
    dims: List[int]
    lambda_dims: List[int]
    betas: List[MatrixF]
    theta: MatrixF
    theta_bar: MatrixF
    phi: MatrixF
    psi: MatrixF
    f: Optional[tuple]
    f_reason: str = ""
    # restricted()'s matrices by (operator, k)
    _restrictions: dict = _field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def field(self) -> FieldSpec:
        return self.sym.field

    @cached_property
    def psi_theta_bar(self) -> MatrixF:
        """psi theta_bar, formed once: the trace table's eta and the Nakayama braiding restrict the same operator."""
        return self.psi * self.theta_bar

    @cached_property
    def psi_inv_theta(self) -> MatrixF:
        """psi^-1 theta, formed once: the trace table's xi and the scalar-braiding gate's ratio."""
        return self.psi.inverse() * self.theta

    def restricted(self, op: MatrixF, k: int) -> MatrixF:
        """op^(x)k restricted to upsilon(k) (restrict_to_subspace), made once per operator and degree."""
        key = (op, k)
        C = self._restrictions.get(key)
        if C is None:
            U = self.sym.upsilon(k)
            C = self._restrictions[key] = restrict_to_subspace(op, k, U.basis, U.pivots())
        return C


def restrict_to_subspace(A: MatrixF, k: int, basis: Sequence, pivots: Sequence[int]) -> MatrixF:
    """Matrix C of A^(x)k on the span of the basis rows B (a subspace's canonical basis and its pivots), one action on them.

    Each row is one at its pivot, where the others vanish, so C reads the images
    at the pivots; the span is stable iff B^t C rebuilds them, else ValueError.
    """
    domain = A.domain
    if not basis:
        return MatrixF(0, 0, (), domain)
    images = MatrixF(len(basis[0]), len(basis), apply_power(A, k, _stack(basis, len(basis), domain.zero()), domain.zero(), len(basis)), domain)
    C = MatrixF.from_rows([images.row(p) for p in pivots], domain)
    if MatrixF.from_rows(basis, domain).transpose() * C != images:
        raise ValueError("subspace is not stable under the operator")
    return C


def analyze(sym: HeckeSymmetry, n_max: Optional[int] = None) -> FrobeniusProfile:
    """Build the full profile; raises NoTopComponent if there is none."""
    n, t = top_component(sym, n_max)
    dims = [sym.upsilon(k).dim for k in range(n + 2)]
    lambda_dims = [sym.lambda_dim(k) for k in range(n + 2)]
    betas = [pairing(sym, k, n, t) for k in range(n + 1)]
    theta, theta_bar = theta_pair(sym, n, t)
    psi = psi_op(sym, n, t)
    phi = phi_op(sym, n, betas[1], betas[n - 1])
    try:
        f = f_functional(sym, n, t)
        f_reason = ""
    except QFactorialVanishes as exc:
        f = None
        f_reason = str(exc)
    return FrobeniusProfile(sym, n, t, dims, lambda_dims, betas, theta, theta_bar, phi, psi, f, f_reason)


# ---------------------------------------------------------------------------
# verification suites


def trace_table(profile: FrobeniusProfile) -> Tuple[CheckReport, List[dict]]:
    """Traces of the twisted braiding powers against the q-binomial formula."""
    n, q, field = profile.n, profile.sym.q, profile.field
    report = CheckReport("trace-identities")
    table = []
    xi_traces = {}
    for k in range(1, n + 1):
        tr_xi, tr_eta = [profile.restricted(A, k).trace() for A in (profile.psi_inv_theta, profile.psi_theta_bar)]
        sign = -1 if (k * n - k) % 2 else 1
        expected = field.scalar(sign) * q ** (k * (k + 1) // 2) * qbinom(n, k, field)
        xi_traces[k] = tr_xi
        ok = tr_xi == expected and tr_eta == expected
        report.record(
            "trace.k%d" % k,
            "tr xi_k = tr eta_k = (-1)^(kn-k) q^(k(k+1)/2) qbinom(n,k)",
            ok,
            "" if ok else "xi %s, eta %s, expected %s" % (format_scalar(tr_xi), format_scalar(tr_eta), format_scalar(expected)),
        )
        table.append(
            {
                "k": k,
                "trace_xi": format_scalar(tr_xi),
                "trace_eta": format_scalar(tr_eta),
                "expected": format_scalar(expected),
                "match": ok,
            }
        )
    for k in range(1, n):
        lhs = xi_traces[n - k]
        rhs = q ** ((n - 2 * k) * (n + 1) // 2) * xi_traces[k]
        ok = lhs == rhs
        report.record(
            "trace-ratio.k%d" % k,
            "tr xi_(n-k) = q^((n-2k)(n+1)/2) tr xi_k",
            ok,
            "" if ok else "lhs %s rhs %s" % (format_scalar(lhs), format_scalar(rhs)),
        )
    return report, table


def _record_equal(report: CheckReport, name: str, rule: str, lhs, rhs, detail: str = "") -> None:
    """Records lhs == rhs with detail; a failure names the first nonzero entry (i,j) of lhs - rhs instead.
    lhs and rhs are matrices, or iterables of row tuples compared one at a time up to the first difference;
    rows or row lengths that do not match raise ValueError, as shapes do."""
    if isinstance(lhs, MatrixF):
        lhs._check(rhs, True)
        lhs, rhs = lhs.row_list(), rhs.row_list()
    for i, (row, want) in enumerate(zip(lhs, rhs, strict=True)):
        if row != want:
            j = next(j for j, (x, y) in enumerate(zip(row, want, strict=True)) if x != y)
            report.record(name, rule, False, "entry (%d,%d) = %s" % (i, j, _format_entry(row[j] - want[j])))
            return
    report.record(name, rule, True, detail)


def _record_restricted(report: CheckReport, name: str, rule: str, sides) -> None:
    """Records lhs == rhs for (lhs, rhs) = sides(), or the failure of a restriction that sides() makes."""
    try:
        lhs, rhs = sides()
    except ValueError as exc:
        return report.record(name, "subspace stability", False, str(exc))
    _record_equal(report, name, rule, lhs, rhs)


def verify_operator_identities(profile: FrobeniusProfile) -> CheckReport:
    """The operator identity suite for theta, theta_bar, phi, psi and f."""
    sym = profile.sym
    n = profile.n
    N = sym.N
    q = sym.q
    field = sym.field
    report = CheckReport("operator-identities")
    theta, theta_bar, phi, psi = profile.theta, profile.theta_bar, profile.phi, profile.psi

    _record_equal(report, "commute.theta-phi", "theta phi = phi theta", theta * phi, phi * theta)
    _record_equal(report, "commute.theta-psi", "theta psi = psi theta", theta * psi, psi * theta)
    _record_equal(report, "commute.phi-psi", "phi psi = psi phi", phi * psi, psi * phi)
    twisted = (phi * theta * theta).scale(q ** (-(n + 1)))
    _record_equal(report, "twist-relation", "psi = q^(-n-1) phi theta^2", psi, twisted)
    inverse = theta.inverse().scale(q ** (n + 1))
    _record_equal(report, "theta-bar-inverse", "theta_bar = q^(n+1) theta^(-1)", theta_bar, inverse)
    # (op (x) op) R against R (op (x) op) on the packed ints (_square_sides), unpacked only for a failure's witness
    for name, op in (("theta", theta), ("phi", phi), ("psi", psi)):
        lhs, rhs = _square_sides(sym, op)
        ok, witness = (True, "") if lhs == rhs else _vanishes(MatrixF(N * N, N * N, lhs.values(), field) - MatrixF(N * N, N * N, rhs.values(), field))
        report.record("square-commutes.%s" % name, "%s (x) %s commutes with R" % (name, name), ok, witness)
    t = profile.t
    _record_equal(report, "top-scaling", "theta^((x)n)(t) = q^(n(n+1)/2) t", [apply_power(theta, n, t)], [vec_scale(q ** (n * (n + 1) // 2), t)])

    # the Nakayama map in each degree matches the twisted braiding
    theta_phi = theta * phi
    for k in range(1, n + 1):
        rule = "theta^((x)k) nu = (psi theta_bar)^((x)k) on upsilon(k)"
        _record_restricted(report, "nakayama-braiding.k%d" % k, rule, lambda: (profile.restricted(theta_phi, k), profile.restricted(profile.psi_theta_bar, k)))

    # pairing twist: beta_(n-k)(b, a) = beta_k(nu(a), b), that is beta_(n-k) = beta_k^T nu_k, nu_k the Nakayama map
    # phi^(x)k restricted to upsilon(k)
    for k in range(n + 1):
        rule = "beta_(n-k)(b,a) = beta_k(nu(a), b)"
        _record_restricted(report, "pairing-twist.k%d" % k, rule, lambda: (profile.betas[n - k], profile.betas[k].transpose() * profile.restricted(phi, k)))

    # braiding through the top component, degree up to 2 (_top_sides); row u of each side is the image of the
    # unit u of V^(x)k, compared on the packed ints and unpacked row by row only for the witness of a failure
    for k in range(1, min(2, n) + 1):
        rho, m = longest_rho(k, n), N ** k
        lhs, side = _top_sides(sym, k, n, t)
        rhs = side(theta)
        name, rule = "braid-top.k%d" % k, "T_rho(u t) = t theta^((x)k)(u)"
        if lhs == rhs:
            report.record(name, rule, True)
        else:
            lhs, rhs = lhs.values(), rhs.values()
            _record_equal(report, name, rule, (lhs[u::m] for u in range(m)), (rhs[u::m] for u in range(m)))
        del lhs, rhs  # the images go before the mirror's action
        # the mirror: shifted partial antisymmetrizer on upsilon(n) (x) upsilon(k), as one action of
        # y_shift - coeff T_(rho^-1) on the family t v, placed from t and upsilon(k)'s basis, whose rows must vanish
        coeff = field.scalar(-1 if (k * n - k) % 2 else 1) * q ** (-(k * (k + 1) // 2))
        terms = sym._hecke_terms(shift_element(coset_y(n, n - k, k, field), k), k + n) + [(rho.inverse().reduced_word(), -coeff)]
        basis = sym.upsilon(k).basis
        defect = sym._packed(terms, k + n, Placed([t], basis), len(basis))
        rule = "shifted y_(n/n-k,k) u = (-1)^(kn-k) q^(-k(k+1)/2) T_(rho^-1) u"
        matrix = lambda: MatrixF(N ** (k + n), len(basis), defect.values(), field).transpose()
        report.record("mirror-top.k%d" % k, rule, *_packed_vanishes([defect], matrix))

    # scalar-braiding degree gate (odd top degree, theta a multiple of psi)
    if n % 2 == 1 and n >= 3:
        ratio = profile.psi_inv_theta
        lam = ratio[0, 0]
        if ratio == MatrixF.identity(N, field).scale(lam):
            report.record(
                "scalar-braiding-gate",
                "theta = lam psi forces lam = q^(m+1), n = 2m+1",
                lam == q ** ((n + 1) // 2),
                "lam = %s" % format_scalar(lam),
            )
        else:
            report.skip("scalar-braiding-gate", "theta = lam psi forces lam = q^(m+1)", "theta is not a scalar multiple of psi")
    else:
        report.skip("scalar-braiding-gate", "theta = lam psi forces lam = q^(m+1)", "top degree is even or 1")

    # functional identities
    if profile.f is None:
        report.skip("functional", "y_n u = [n-1]!_q f(u) t", profile.f_reason)
    else:
        f = profile.f
        _record_equal(report, "functional.top-value", "f(t) = [n]_q", front_pairing(f, [t], field), MatrixF(1, 1, [qint(n, field)], field))
        # twisted cyclicity f(w v) = f(phi(v) w): entry (w, j) is f(w (x) e_j) on the left
        # and sum_i f(e_i (x) w) phi[i, j] on the right
        block = N ** (n - 1)
        _record_equal(
            report,
            "functional.twisted-cyclicity",
            "f(w v) = f(phi(v) w)",
            MatrixF(block, N, f, field),
            MatrixF(N, block, f, field).transpose() * phi,
        )
        # theta reproduced from f, psi and the slices t_i of t = sum e_i (x) t_i: column v is
        # (-1)^(n-1) q sum_i f(v (x) t_i) psi(x_i)
        sign = -1 if (n - 1) % 2 else 1
        values = front_pairing(f, MatrixF(N, block, t, field).row_list(), field)
        _record_equal(
            report,
            "functional.braiding-formula",
            "theta(v) = (-1)^(n-1) q sum f(v t_i) psi(x_i)",
            (psi * values.transpose()).scale(field.scalar(sign) * q),
            theta,
        )
        # rep(y_n) has rank one: ker f = ker g for its row g at the last nonzero coordinate of t iff
        # f = c g with c != 0; the witness is f[j] g[p] - f[p] g[j] at the pivot p of g, g if f[p] = 0,
        # f if g = 0
        g = _y_row(sym, n, max(j for j, x in enumerate(t) if not x.is_zero()))
        if vec_is_zero(g):
            witness = _vanishes(MatrixF.from_rows([f], field))[1]
        elif f[vec_pivot(g)].is_zero():
            witness = _vanishes(MatrixF.from_rows([g], field))[1]
        else:
            minor = first_minor(f, g)
            witness = "" if minor is None else "entry (0,%d) = %s" % (minor[0], format_scalar(minor[1]))
        report.record("functional.kernel", "ker f = ker rep(y_n)", not witness, witness)
    return report


# ---------------------------------------------------------------------------
# reconstruction


def front_pairing(f: Sequence, vectors: Sequence, domain) -> MatrixF:
    """The matrix with entry (j, i) = f(x_j (x) t_i), for the vectors t_i: F T^t.

    x_j runs over the standard basis of V; f is a covector on V (x) W, read as
    the matrix F with F[j, w] = f(x_j (x) e_w), and each t_i, a row of T, lies
    in W.  The entries lie in domain, a field or a PolyRing.
    """
    T = MatrixF.from_rows(vectors, domain)
    return MatrixF(len(f) // T.cols, T.cols, f, domain) * T.transpose()


def projection_from_dual(f: Sequence, relations: Sequence, C: MatrixF) -> MatrixF:
    """P(w) = sum_j f(x~_j (x) w) t_j, where x~_j = sum_i C[j, i] x_i: T^t C F.

    relations holds the vectors t_j of V (x) V, the rows of T, and f is a
    covector on V^(x)(1+2), read as F as in front_pairing; when the rows of C
    give the basis of V dual to the t_j under (v, t) -> f(v (x) t), P is the
    projection onto the span of the t_j.  The entries lie in C.domain, a
    field or a PolyRing.
    """
    T = MatrixF.from_rows(relations, C.domain)
    return T.transpose() * C * MatrixF(C.cols, T.cols, f, C.domain)


def reconstruct_from_f(
    f: Sequence, relations: Subspace, q: Scalar
) -> Tuple[MatrixF, MatrixF]:
    """Projection P(w) = sum f(x~_i w) t_i and R = q Id - (1+q) P.

    relations is a subspace of V (x) V whose basis plays the role of the
    degree-2 relations t_i; f is a covector on V^(x)(1+2) pairing V with
    the relations perfectly.
    """
    field = q.field
    if (q + 1).is_zero():
        raise ValueError("q = -1 cannot be split into eigenspaces")
    d = relations.dim
    N2 = relations.ambient
    if d * d != N2:
        raise ValueError("need N relations inside V (x) V")
    t_rows = relations.basis
    try:
        C = front_pairing(f, t_rows, field).inverse()
    except ZeroDivisionError:
        raise ValueError("the pairing of V with the relations via f is degenerate") from None
    # row j of C holds the coordinates of the dual vector x~_j
    P = projection_from_dual(f, t_rows, C)
    if P * P != P:
        raise ValueError("reconstructed projection is not idempotent")
    if P.image() != Subspace.from_vectors(t_rows, N2, field):
        raise ValueError("reconstructed projection has the wrong image")
    R = MatrixF.identity(N2, field).scale(q) - P.scale(q + 1)
    return P, R


# ---------------------------------------------------------------------------
# serialization


def profile_json_dict(profile: FrobeniusProfile, checks: CheckReport) -> dict:
    def fmt_matrix(M: MatrixF) -> list:
        return [[format_scalar(M[i, j]) for j in range(M.cols)] for i in range(M.rows)]

    return {
        "dim": profile.sym.N,
        "field": {"kind": profile.field.kind, "order": profile.field.order},
        "n": profile.n,
        "t": [format_scalar(x) for x in profile.t],
        "dims": profile.dims,
        "lambda_dims": profile.lambda_dims,
        "theta": fmt_matrix(profile.theta),
        "theta_bar": fmt_matrix(profile.theta_bar),
        "phi": fmt_matrix(profile.phi),
        "psi": fmt_matrix(profile.psi),
        "f": None if profile.f is None else [format_scalar(x) for x in profile.f],
        "f_unavailable": profile.f_reason,
        "checks": [c.to_dict() for c in checks.checks],
    }
