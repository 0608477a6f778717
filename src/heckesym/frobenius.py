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
recorded by `_record_equal`; a failing one names the first nonzero entry of
lhs - rhs as "entry (i,j) = ...".  The rank-one action y_n u = [n-1]!_q f(u) t
is the matrix equality rep(y_n) = [n-1]!_q t f^T, and f itself is read off
the row of rep(y_n) at the first nonzero coordinate of t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .exactnum import FieldSpec, Scalar, qbinom, qfact, qint
from .exprio import format_scalar
from .heckealg import antisymmetrizer, coset_y, shift_element
from .linalg import MatrixF, Subspace, vec_combination, vec_is_zero, vec_scale, vec_sub
from .permgroup import cycle, longest_rho
from .report import CheckReport
from .symmetry import HeckeSymmetry, _vanishes, apply_power, kron_vec

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
    "covector_value",
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


def _scalar_multiple_of_t(sym: HeckeSymmetry, v: Sequence, t: Sequence, pivot: int) -> Scalar:
    """The scalar c with v = c t; raises if v is not proportional to t."""
    c = v[pivot]
    if not vec_is_zero(vec_sub(v, vec_scale(c, t))):
        raise DegeneratePairing("vector is not a multiple of the top tensor")
    return c


def _pivot(t: Sequence) -> int:
    for i, x in enumerate(t):
        if not x.is_zero():
            return i
    raise ValueError("zero top tensor")


def pairing(sym: HeckeSymmetry, k: int, n: int, t: Sequence) -> MatrixF:
    """Matrix of beta_k on the canonical bases of upsilon(k) x upsilon(n-k)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    left = sym.upsilon(k).basis
    right = sym.upsilon(n - k).basis
    if len(left) != len(right):
        raise DegeneratePairing(
            "dim upsilon(%d) = %d != %d = dim upsilon(%d)" % (k, len(left), len(right), n - k)
        )
    piv = _pivot(t)
    y = coset_y(n, k, n - k, sym.field)
    rows = []
    for u in left:
        row = []
        for w in right:
            prod = sym.apply_hecke(y, n, kron_vec(u, w, sym.field)) if k not in (0, n) else kron_vec(u, w, sym.field)
            row.append(_scalar_multiple_of_t(sym, prod, t, piv))
        rows.append(row)
    B = MatrixF.from_rows(rows, sym.field)
    if B.det().is_zero():
        raise DegeneratePairing("beta_%d is singular" % k)
    return B


def theta_pair(sym: HeckeSymmetry, n: int, t: Sequence) -> Tuple[MatrixF, MatrixF]:
    """The operators theta and theta_bar, with theta_bar theta = q^(n+1) Id."""
    N = sym.N
    field = sym.field
    piv = _pivot(t)
    fwd_word = cycle(n + 1, 1, n + 1).reduced_word()
    bwd_word = cycle(1, n + 1, n + 1).reduced_word()
    theta_cols = []
    bar_cols = []
    basis = MatrixF.identity(N, field).row_list()
    for j, e in enumerate(basis):
        img = sym.apply_perm_word(fwd_word, n + 1, kron_vec(e, t, field))
        col = tuple(img[piv * N + b] for b in range(N))
        if not vec_is_zero(vec_sub(img, kron_vec(t, col, field))):
            raise DegeneratePairing("braiding does not send V (x) t into t (x) V")
        theta_cols.append(col)
        img = sym.apply_perm_word(bwd_word, n + 1, kron_vec(t, e, field))
        colb = tuple(img[a * (N ** n) + piv] for a in range(N))
        if not vec_is_zero(vec_sub(img, kron_vec(colb, t, field))):
            raise DegeneratePairing("braiding does not send t (x) V into V (x) t")
        bar_cols.append(colb)
    theta = MatrixF.from_rows(theta_cols, field).transpose()
    theta_bar = MatrixF.from_rows(bar_cols, field).transpose()
    expected = MatrixF.identity(N, field).scale(sym.q ** (n + 1))
    if theta_bar * theta != expected:
        raise DegeneratePairing("theta_bar theta != q^(n+1) Id")
    return theta, theta_bar


def _front_slices(t: Sequence, N: int, n: int) -> List[tuple]:
    """t_i with t = sum e_i (x) t_i."""
    block = N ** (n - 1)
    return [tuple(t[i * block : (i + 1) * block]) for i in range(N)]


def psi_op(sym: HeckeSymmetry, n: int, t: Sequence) -> MatrixF:
    """The unique psi with t = sum t_i (x) psi(x_i) when t = sum x_i (x) t_i."""
    N = sym.N
    field = sym.field
    slices = _front_slices(t, N, n)
    block = N ** (n - 1)
    S = MatrixF.from_rows(
        [[slices[i][w] for i in range(N)] for w in range(block)], field
    )
    if S.rank() != N:
        raise DegeneratePairing("front slices of t do not have full rank")
    rows = []
    for j in range(N):
        rhs = tuple(t[w * N + j] for w in range(block))
        sol = S.solve(rhs)
        if sol is None:
            raise DegeneratePairing("no twist operator matches the top tensor")
        rows.append(sol)
    return MatrixF.from_rows(rows, field)


def phi_op(sym: HeckeSymmetry, n: int, beta1: MatrixF, beta_n1: MatrixF) -> MatrixF:
    """Degree-1 Nakayama component from beta_(n-1)(b, a) = beta_1(phi(a), b).

    beta_1 has rows indexed by V and columns by upsilon(n-1); beta_(n-1)
    the other way around, so the defining identity reads, entrywise,
    beta_n1 = beta_1^T phi.
    """
    return beta1.transpose().inverse() * beta_n1


def f_functional(sym: HeckeSymmetry, n: int, t: Sequence) -> tuple:
    """Covector f with rep(y_n) u = [n-1]!_q f(u) t; needs [n-1]!_q != 0."""
    field = sym.field
    norm = qfact(n - 1, field)
    if norm.is_zero():
        raise QFactorialVanishes("[%d]!_q = 0 in this field" % (n - 1))
    Y = sym.rep_matrix(antisymmetrizer(n, field), n)
    f = vec_scale(norm.inverse(), Y.row(_pivot(t)))
    if Y != MatrixF(len(t), 1, t, field) * MatrixF(1, len(f), f, field).scale(norm):
        raise DegeneratePairing("y_n action is not rank one onto the top line")
    return f


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

    @property
    def field(self) -> FieldSpec:
        return self.sym.field

    def nu_restricted(self, k: int) -> MatrixF:
        """phi^(x)k restricted to upsilon(k) (the Nakayama map in degree k)."""
        return restrict_to_subspace(self.phi, self.sym.upsilon(k), k)


def restrict_to_subspace(A: MatrixF, U: Subspace, k: int) -> MatrixF:
    """Matrix of A^(x)k on U's canonical basis; raises if U is not stable."""
    cols = []
    for row in U.basis:
        img = apply_power(A, k, row)
        coords = U.coordinates(img)
        if coords is None:
            raise ValueError("subspace is not stable under the operator")
        cols.append(coords)
    if not cols:
        return MatrixF(0, 0, (), A.domain)
    return MatrixF.from_rows(cols, A.domain).transpose()


def analyze(sym: HeckeSymmetry, n_max: Optional[int] = None) -> FrobeniusProfile:
    """Build the full profile; raises NoTopComponent if there is none."""
    n, t = top_component(sym, n_max)
    dims = [sym.upsilon(k).dim for k in range(n + 2)]
    lambda_dims = [sym.lambda_dim(k) for k in range(n + 2)]
    betas = [pairing(sym, k, n, t) for k in range(n + 1)]
    theta, theta_bar = theta_pair(sym, n, t)
    psi = psi_op(sym, n, t)
    phi = phi_op(sym, n, betas[1], betas[n - 1]) if n >= 1 else MatrixF.identity(sym.N, sym.field)
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
    sym = profile.sym
    n = profile.n
    q = sym.q
    field = sym.field
    report = CheckReport("trace-identities")
    xi_base = profile.psi.inverse() * profile.theta
    eta_base = profile.psi * profile.theta_bar
    table = []
    xi_traces = {}
    for k in range(1, n + 1):
        U = sym.upsilon(k)
        xi = restrict_to_subspace(xi_base, U, k)
        eta = restrict_to_subspace(eta_base, U, k)
        tr_xi = xi.trace()
        tr_eta = eta.trace()
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


def _record_equal(report: CheckReport, name: str, rule: str, lhs: MatrixF, rhs: MatrixF) -> None:
    """Records lhs == rhs; a failure names the first nonzero entry of lhs - rhs."""
    ok = lhs == rhs
    report.record(name, rule, ok, "" if ok else _vanishes(lhs - rhs)[1])


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
    for name, op in (("theta", theta), ("phi", phi), ("psi", psi)):
        square = op.kronecker(op)
        rule = "%s (x) %s commutes with R" % (name, name)
        _record_equal(report, "square-commutes.%s" % name, rule, square * sym.R, sym.R * square)
    _record_equal(
        report,
        "top-scaling",
        "theta^((x)n)(t) = q^(n(n+1)/2) t",
        MatrixF.from_rows([apply_power(theta, n, profile.t)], field),
        MatrixF.from_rows([vec_scale(q ** (n * (n + 1) // 2), profile.t)], field),
    )

    # the Nakayama map in each degree matches the twisted braiding
    for k in range(1, n + 1):
        U = sym.upsilon(k)
        try:
            lhs = restrict_to_subspace(theta * phi, U, k)
            rhs = restrict_to_subspace(psi * theta_bar, U, k)
            rule = "theta^((x)k) nu = (psi theta_bar)^((x)k) on upsilon(k)"
            _record_equal(report, "nakayama-braiding.k%d" % k, rule, lhs, rhs)
        except ValueError as exc:
            report.record("nakayama-braiding.k%d" % k, "subspace stability", False, str(exc))

    # pairing twist: beta_(n-k)(b, a) = beta_k(nu(a), b), that is beta_(n-k) = beta_k^T nu_k
    for k in range(0, n + 1):
        try:
            nu_k = profile.nu_restricted(k)
        except ValueError as exc:
            report.record("pairing-twist.k%d" % k, "subspace stability", False, str(exc))
            continue
        bk, bnk = profile.betas[k], profile.betas[n - k]
        _record_equal(report, "pairing-twist.k%d" % k, "beta_(n-k)(b,a) = beta_k(nu(a), b)", bnk, bk.transpose() * nu_k)

    # braiding through the top component, degree up to 2; one row per basis vector
    for k in range(1, min(2, n) + 1):
        rho = longest_rho(k, n)
        word = rho.reduced_word()
        units = MatrixF.identity(N ** k, field).row_list()
        _record_equal(
            report,
            "braid-top.k%d" % k,
            "T_rho(u t) = t theta^((x)k)(u)",
            MatrixF.from_rows([sym.apply_perm_word(word, k + n, kron_vec(u, profile.t, field)) for u in units], field),
            MatrixF.from_rows([kron_vec(profile.t, apply_power(theta, k, u), field) for u in units], field),
        )
        # the mirror: shifted partial antisymmetrizer on upsilon(n) (x) upsilon(k)
        y_shift = shift_element(coset_y(n, n - k, k, field), k)
        sign = -1 if (k * n - k) % 2 else 1
        coeff = field.scalar(sign) * q ** (-(k * (k + 1) // 2))
        rho_inv_word = rho.inverse().reduced_word()
        tensors = [kron_vec(profile.t, v, field) for v in sym.upsilon(k).basis]
        _record_equal(
            report,
            "mirror-top.k%d" % k,
            "shifted y_(n/n-k,k) u = (-1)^(kn-k) q^(-k(k+1)/2) T_(rho^-1) u",
            MatrixF.from_rows([sym.apply_hecke(y_shift, k + n, u) for u in tensors], field),
            MatrixF.from_rows([sym.apply_perm_word(rho_inv_word, k + n, u) for u in tensors], field).scale(coeff),
        )

    # scalar-braiding degree gate (odd top degree, theta a multiple of psi)
    if n % 2 == 1 and n >= 3:
        ratio = psi.inverse() * theta
        lam = ratio[0, 0]
        scalar = ratio == MatrixF.identity(N, field).scale(lam)
        if scalar:
            m = (n - 1) // 2
            report.record(
                "scalar-braiding-gate",
                "theta = lam psi forces lam = q^(m+1), n = 2m+1",
                lam == q ** (m + 1),
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
        t = profile.t
        top_value, expected = (MatrixF(1, 1, [x], field) for x in (covector_value(f, t, field.zero()), qint(n, field)))
        _record_equal(report, "functional.top-value", "f(t) = [n]_q", top_value, expected)
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
        # theta reproduced from f, psi and the slices of t: column v is
        # (-1)^(n-1) q sum_i f(v (x) t_i) psi(x_i)
        sign = -1 if (n - 1) % 2 else 1
        values = front_pairing(f, _front_slices(t, N, n), field)
        _record_equal(
            report,
            "functional.braiding-formula",
            "theta(v) = (-1)^(n-1) q sum f(v t_i) psi(x_i)",
            (psi * values.transpose()).scale(field.scalar(sign) * q),
            theta,
        )
        # kernel of f is the kernel of the antisymmetrizer action
        ker_f = MatrixF.from_rows([f], field).kernel()
        ker_y = sym.rep_matrix(antisymmetrizer(n, field), n).kernel()
        ok = ker_f == ker_y
        if ok or ker_f.dim != ker_y.dim:
            witness = "" if ok else "dimensions %d vs %d" % (ker_f.dim, ker_y.dim)
        else:
            witness = _vanishes(MatrixF.from_rows(ker_f.basis, field) - MatrixF.from_rows(ker_y.basis, field))[1]
        report.record("functional.kernel", "ker f = ker rep(y_n)", ok, witness)
    return report


# ---------------------------------------------------------------------------
# reconstruction


def covector_value(f: Sequence, v: Sequence, zero):
    """f(v) = sum_w f[w] v[w], skipping the zero coordinates of v."""
    out = zero
    for c, x in zip(f, v):
        if not x.is_zero():
            out = out + c * x
    return out


def front_pairing(f: Sequence, vectors: Sequence, domain) -> MatrixF:
    """The matrix with entry (j, i) = f(x_j (x) t_i), for the vectors t_i.

    x_j runs over the standard basis of V; f is a covector on V (x) W and
    each t_i lies in W.  The entries lie in domain, a field or a PolyRing.
    """
    block = len(vectors[0])
    zero = domain.zero()
    return MatrixF.from_rows(
        [[covector_value(f[j * block : (j + 1) * block], t, zero) for t in vectors] for j in range(len(f) // block)],
        domain,
    )


def projection_from_dual(f: Sequence, relations: Sequence, C: MatrixF) -> MatrixF:
    """P(w) = sum_j f(x~_j (x) w) t_j, where x~_j = sum_i C[j, i] x_i.

    relations holds the vectors t_j of V (x) V and f is a covector on
    V^(x)(1+2); when the rows of C give the basis of V dual to the t_j under
    (v, t) -> f(v (x) t), P is the projection onto the span of the t_j.  The
    entries lie in C.domain, a field or a PolyRing.
    """
    block = len(relations[0])
    zero = C.domain.zero()
    cols = [
        vec_combination(C.apply([f[i * block + w] for i in range(C.cols)]), relations, zero)
        for w in range(block)
    ]
    return MatrixF.from_rows(cols, C.domain).transpose()


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
