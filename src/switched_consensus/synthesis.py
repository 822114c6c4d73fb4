"""Controller synthesis for consensus under switching directed topologies.

Builds the full certificate chain: a per-topology matrix inequality solved
through a shifted Lyapunov equation, a gain matrix obtained from an algebraic
Riccati reduction of the design inequality, the coupling-strength threshold,
the dwell-time threshold, and a per-switch margin check for an explicit
schedule.

Both matrix inequalities are solved constructively rather than through a
general-purpose SDP solver:

* For each topology, ``Lh^T Q + Q Lh > 2 c Q`` is satisfied by the unique
  solution of ``(Lh - c I)^T Q + Q (Lh - c I) = I``, which is positive
  definite because ``Lh - c I`` is antistable whenever c is below the
  antistability margin.  Its inequality margin is 1 by construction.
* ``A P + P A^T - B B^T + beta P < 0`` is satisfied by ``P = inv(X)`` where
  X solves the Riccati equation ``Abar^T X + X Abar - X B B^T X + I = 0``
  with ``Abar = A + (beta/2) I``; substituting back gives the left side
  exactly ``-P^2``, which is negative definite.  The gain is then
  ``K = (1/2) B^T inv(P) = (1/2) B^T X``.

Each design check is defined once, in the ``*_checks`` functions: synthesis
raises on the first failed check and the CLI's ``verify`` reports them all.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, schema, topology

DEFAULT_C_FRACTION = 0.9
DEFAULT_ALPHA_MARGIN = 1.05
DEFAULT_KAPPA0 = 1e-3
# Relative tolerance of a stored value (K, an inequality margin) vs its recomputation.
CHECK_RTOL = 1e-6

__all__ = [
    "GainDesign",
    "InfeasibleError",
    "ScheduleCheck",
    "ScheduleReport",
    "TopologyCertificate",
    "certificate_checks",
    "check_schedule",
    "choose_c",
    "coupling_threshold",
    "design_checks",
    "design_from_dict",
    "design_to_dict",
    "dwell_threshold",
    "gain_checks",
    "max_feasible_beta",
    "pair_lambdas",
    "solve_gain_lmi",
    "solve_topology_lmi",
    "synthesize",
]


class InfeasibleError(RuntimeError):
    """Design problem has no solution for the requested parameters."""


@dataclass
class TopologyCertificate:
    """Solution of the per-topology inequality for one communication graph.

    `lmi_margin` is the smallest eigenvalue of ``Lh^T Q + Q Lh - 2 c Q``,
    recomputed from Q after the solve; strict positivity certifies the
    inequality.
    """

    index: int
    c: float
    q: np.ndarray
    lmi_margin: float


@dataclass
class GainDesign:
    """Complete synthesized design with its feasibility certificates.

    Satisfies ``k == 0.5 * b.T @ inv(p)``, ``alpha > alpha_min``, and
    ``dwell_threshold == ln(lambda_max) / beta`` whenever ``lambda_max > 1``
    (0 otherwise).  `alpha_min` is derived from the certificates.
    `beta_bound` is the supremum of the admissible beta for the gain
    inequality (infinite for controllable pairs).
    """

    beta: float
    p: np.ndarray
    k: np.ndarray
    alpha: float
    certificates: list = field(default_factory=list)
    lambda_max: float = 1.0
    dwell_threshold: float = 0.0
    beta_bound: float = math.inf

    @property
    def alpha_min(self):
        return coupling_threshold(self.certificates)


@dataclass
class ScheduleCheck:
    """Margin of the per-switch condition for one interval of a signal."""

    t_start: float
    t_end: float
    from_index: int
    to_index: int
    lambda_max: float
    margin: float
    passed: bool


@dataclass
class ScheduleReport:
    kappa0: float
    checks: list
    passed: bool


def choose_c(margin, fraction=DEFAULT_C_FRACTION):
    """Pick the per-topology scalar c strictly below the antistability margin."""
    if margin <= 0:
        raise InfeasibleError(
            f"antistability margin {margin:.6g} is not positive: the graph has "
            "no directed spanning tree, so no admissible c exists"
        )
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    return fraction * margin


def _require(checks):
    """Raise InfeasibleError naming the first failed ``(name, passed, detail)``."""
    for name, passed, detail in checks:
        if not passed:
            raise InfeasibleError(f"{name} failed [{detail}]")


def certificate_checks(reduced, c, q):
    """``(checks, lmi_margin)`` for one topology's certificate Q.

    `checks` holds ``(name, passed, detail)`` for c below the antistability
    margin and for ``Q > 0`` (a non-symmetric Q fails it); `lmi_margin` is
    the smallest eigenvalue of ``Lh^T Q + Q Lh - 2 c Q``, positive iff the
    inequality holds.
    """
    index = reduced.source_index
    margin = topology.antistability_margin(reduced)
    try:
        spd, smallest = linalg.is_positive_definite(q)
        spd_detail = f"smallest eigenvalue {smallest:.3e}"
    except ValueError as exc:
        spd, spd_detail = False, str(exc)
    gram = reduced.matrix.T @ q + q @ reduced.matrix - 2.0 * c * q
    lmi_margin = float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[0])
    checks = [
        (f"certificate {index}: c below antistability margin", c < margin,
         f"c={c:.6g}, margin={margin:.6g}"),
        (f"certificate {index}: Q positive definite", spd, spd_detail),
    ]
    return checks, lmi_margin


def solve_topology_lmi(reduced, c):
    """Certificate Q for one topology: ``Lh^T Q + Q Lh > 2 c Q``.

    Q is the canonical solution of ``(Lh - c I)^T Q + Q (Lh - c I) = I``,
    positive definite by antistable Lyapunov theory.  The solved Q must pass
    :func:`certificate_checks` with a strictly positive inequality margin
    (it equals 1 up to solver residual).
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    # At or above the margin the shifted equation can be singular.
    margin = topology.antistability_margin(reduced)
    if c >= margin:
        raise InfeasibleError(
            f"c={c:.6g} is not below the antistability margin {margin:.6g} of "
            f"topology {reduced.source_index}; the shifted matrix is not antistable"
        )
    n = reduced.matrix.shape[0]
    q = linalg.solve_lyapunov(reduced.matrix - c * np.eye(n), np.eye(n))
    checks, lmi_margin = certificate_checks(reduced, c, q)
    _require(checks + [(f"certificate {reduced.source_index}: inequality margin",
                        lmi_margin > 0, f"margin {lmi_margin:.3e}")])
    return TopologyCertificate(reduced.source_index, float(c), q, lmi_margin)


def max_feasible_beta(a, b):
    """Supremum of the beta for which the gain inequality is feasible.

    PBH test: eigenvalues m of `a` where ``[m I - a, b]`` loses rank are
    uncontrollable.  On a left eigenvector w of such an m (``w^* b = 0``)
    the inequality reads ``(2 Re m + beta) w^* P w < 0``, and the Riccati
    shift ``A + (beta/2) I`` keeps ``m + beta/2`` stable only below the same
    bound.  Returns ``2 min(-Re m)`` over those modes, ``inf`` for
    controllable pairs (any beta > 0 is feasible).
    """
    modes = linalg.uncontrollable_modes(a, b)
    if not modes:
        return math.inf
    return 2.0 * min(-m.real for m in modes)


def solve_gain_lmi(a, b, beta, bound=None):
    """Solve ``A P + P A^T - B B^T + beta P < 0`` for P > 0 and the gain K.

    Riccati reduction: with ``Abar = A + (beta/2) I``, the stabilizing
    solution X of ``Abar^T X + X Abar - X B B^T X + I = 0`` gives
    ``P = inv(X)`` and ``K = (1/2) B^T X``; the inequality's left side then
    equals ``-P^2``.  `bound` is :func:`max_feasible_beta` of the pair,
    computed here unless the caller has it; beta must lie below it.
    :func:`gain_checks` verifies the result.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if bound is None:
        bound = max_feasible_beta(a, b)
    if beta >= bound:
        raise InfeasibleError(
            f"beta={beta:.6g} is infeasible: an uncontrollable mode with real "
            f"part {-bound / 2.0:.6g} limits beta to values below {bound:.6g}"
        )
    n = a.shape[0]
    abar = a + (beta / 2.0) * np.eye(n)
    x = linalg.solve_care(abar, b, np.eye(n))
    p = np.linalg.inv(x)
    p = (p + p.T) / 2.0
    k = 0.5 * b.T @ x
    return p, k


def gain_checks(design, a, b):
    """``(name, passed, detail)`` checks of ``K = (1/2) B^T inv(P)``, the gain
    inequality ``A P + P A^T - B B^T + beta P < 0`` and ``alpha > 2/c0``.
    """
    p = design.p
    k_expected = 0.5 * b.T @ np.linalg.inv(p)
    k_err = np.abs(design.k - k_expected).max()
    expr = a @ p + p @ a.T - b @ b.T + design.beta * p
    top = float(np.linalg.eigvalsh((expr + expr.T) / 2.0)[-1])
    alpha_min = coupling_threshold(design.certificates)
    return [
        ("gain identity K = (1/2) B^T inv(P)",
         k_err <= CHECK_RTOL * (1 + np.abs(k_expected).max()),
         f"max deviation {k_err:.3e}"),
        ("gain inequality A P + P A^T - B B^T + beta P < 0", top < 0,
         f"largest eigenvalue {top:.3e}"),
        ("coupling strength alpha > 2/c0", design.alpha > alpha_min,
         f"alpha={design.alpha:.6g}, threshold={alpha_min:.6g}"),
    ]


def _matches(stored, recomputed):
    return stored == recomputed or (
        abs(recomputed - stored) <= CHECK_RTOL * (1 + abs(stored)))


def _stored(report, key):
    """A number of a checked report as a float, null as inf."""
    return math.inf if report[key] is None else float(report[key])


def design_checks(design, a, b, reduced, report=None, lambdas=None):
    """Every ``(name, passed, detail)`` check of a design against raw data.

    Per certificate, :func:`certificate_checks` on its topology in `reduced`
    and the stored `lmi_margin` matching the recomputed, positive one; then
    :func:`gain_checks`; then the summary numbers of `report` (default: the
    design's own document; else one :func:`design_from_dict` accepts)
    re-derived, `lambda_max` over every ordered
    certificate pair.  `lambdas` (``{(i, j): lambda_ij}``) holds pairs
    already solved, which are not solved again.  A certificate of no known
    topology fails one check.
    """
    by_index = {r.source_index: r for r in reduced}
    checks = []
    for cert in design.certificates:
        red = by_index.get(cert.index)
        if red is None:
            checks.append((f"certificate {cert.index}: topology exists", False,
                           "index not in config"))
            continue
        cert_checks, recomputed = certificate_checks(red, cert.c, cert.q)
        stored = cert.lmi_margin
        checks += cert_checks
        checks.append(
            (f"certificate {cert.index}: inequality margin",
             recomputed > 0 and _matches(stored, recomputed),
             f"recomputed {recomputed:.6g}, stored {stored:.6g}")
        )
    report = design_to_dict(design) if report is None else report
    try:
        lam = _lambda_max(design.certificates, lambdas)
    except ValueError:  # a Q that is not positive definite fails its own row
        lam = math.nan
    derived = {**_derived_numbers(design), "beta_bound": max_feasible_beta(a, b),
               "dwell_threshold": _tau_star(_stored(report, "lambda_max"),
                                            design.beta),
               "lambda_max": lam}
    summary = [
        (f"report {key} = {formula}", _matches(_stored(report, key), derived[key]),
         f"stored {_stored(report, key):.6g}, derived {derived[key]:.6g}")
        for key, formula in (("c0", "min c_i"), ("alpha_min", "2/c0"),
                             ("beta_bound", "sup feasible beta"),
                             ("dwell_threshold", "ln(lambda_max)/beta"),
                             ("lambda_max", "max lambda_ij over ordered pairs"))
    ]
    return checks + gain_checks(design, a, b) + summary


def coupling_threshold(certificates):
    """Lower bound 2 / c0, ``c0 = min(c_i)``, the coupling strength must exceed."""
    if not certificates:
        raise ValueError("need at least one topology certificate")
    return 2.0 / min(cert.c for cert in certificates)


def pair_lambdas(certificates, pairs):
    """``{(i, j): lambda_ij}`` for the ordered topology pairs in `pairs`.

    ``lambda_ij``, the largest generalized eigenvalue of ``(Q_i, Q_j)``,
    bounds the energy jump ``V_j / V_i`` at a switch from topology i to j.
    Each distinct pair is solved once, however often it occurs.
    """
    q = {cert.index: cert.q for cert in certificates}
    return {
        (i, j): linalg.max_generalized_eigenvalue(q[i], q[j])
        for i, j in dict.fromkeys(pairs)
    }


def dwell_threshold(certificates, beta):
    """Dwell-time threshold from the worst certificate-pair eigenvalue ratio.

    Returns ``(lambda_max, tau_star)`` where lambda_max is the largest
    generalized eigenvalue of ``(Q_i, Q_j)`` over ordered pairs i != j and
    ``tau_star = ln(lambda_max) / beta``.  A single topology (or
    lambda_max <= 1) needs no dwell bound and returns tau_star = 0.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not certificates:
        raise ValueError("need at least one topology certificate")
    lam = _lambda_max(certificates)
    return float(lam), _tau_star(lam, beta)


def _lambda_max(certificates, solved=None):
    """Largest ``lambda_ij`` over ordered pairs i != j; 1.0 with one topology.

    Pairs in `solved` (``{(i, j): lambda_ij}``) are not solved again.
    """
    pairs = list(itertools.permutations([cert.index for cert in certificates], 2))
    table = dict(solved or {})
    table.update(pair_lambdas(certificates, [p for p in pairs if p not in table]))
    return max((table[p] for p in pairs), default=1.0)


def _tau_star(lam, beta):
    # Identical certificates give lam = 1 up to round-off; no dwell bound.
    return float(math.log(lam) / beta) if lam > 1.0 + 1e-12 else 0.0


def check_schedule(signal, certificates, beta, kappa0=DEFAULT_KAPPA0):
    """Per-interval margins of the switching condition for an explicit signal.

    For every breakpoint with a successor, the margin is
    ``beta * (t_{k+1} - t_k) - ln(lambda_max_k)`` with lambda_max_k the
    largest generalized eigenvalue of the outgoing/incoming certificate pair.
    The report passes iff every margin strictly exceeds kappa0.
    """
    known = {cert.index for cert in certificates}
    for idx in np.unique(signal.indices):
        if int(idx) not in known:
            raise ValueError(f"no certificate for topology index {int(idx)}")
    pairs = list(zip(signal.indices[:-1].tolist(), signal.indices[1:].tolist()))
    table = pair_lambdas(certificates, pairs)
    checks = []
    t = signal.breakpoints
    for k, (i_from, i_to) in enumerate(pairs):
        lam = table[i_from, i_to]
        margin = beta * (t[k + 1] - t[k]) - math.log(lam)
        checks.append(
            ScheduleCheck(
                t_start=float(t[k]),
                t_end=float(t[k + 1]),
                from_index=i_from,
                to_index=i_to,
                lambda_max=float(lam),
                margin=float(margin),
                passed=margin > kappa0,
            )
        )
    return ScheduleReport(kappa0, checks, all(c.passed for c in checks))


def synthesize(
    a,
    b,
    reduced_laplacians,
    beta,
    c_values=None,
    c_fraction=DEFAULT_C_FRACTION,
    alpha=None,
    alpha_margin=DEFAULT_ALPHA_MARGIN,
):
    """Run the full synthesis chain and assemble a :class:`GainDesign`.

    `c_values` overrides the per-topology scalars (one per graph, or a single
    value applied to all); otherwise each is `c_fraction` of that topology's
    antistability margin.  `alpha` overrides the coupling strength; otherwise
    it is `alpha_margin` times the threshold ``2/c0``.  The first failed
    certificate or gain check raises InfeasibleError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    reduced = list(reduced_laplacians)
    if not reduced:
        raise ValueError("need at least one reduced Laplacian")
    if c_values is None:
        cs = [choose_c(topology.antistability_margin(r), c_fraction)
              for r in reduced]
    else:
        cs = [float(c) for c in np.broadcast_to(c_values, (len(reduced),))]
    certificates = [solve_topology_lmi(r, c) for r, c in zip(reduced, cs)]
    if alpha is None:
        alpha = alpha_margin * coupling_threshold(certificates)
    bound = max_feasible_beta(a, b)
    p, k = solve_gain_lmi(a, b, beta, bound)
    design = GainDesign(
        beta=float(beta),
        p=p,
        k=k,
        alpha=float(alpha),
        certificates=certificates,
        beta_bound=bound,
    )
    _require(gain_checks(design, a, b))
    design.lambda_max, design.dwell_threshold = dwell_threshold(certificates, beta)
    return design


def _derived_numbers(design):
    """The report's numbers read off the certificates: `alpha_min` and `c0`."""
    return {"alpha_min": design.alpha_min,
            "c0": min(cert.c for cert in design.certificates)}


def design_to_dict(design, config_digest=None, reference=None):
    """Serialize a design to the synthesis-report document (plain JSON types).

    Matrices are nested row-major lists at full double precision.  An
    unbounded beta (controllable pair) serializes as null.  `reference`
    attaches externally published comparison values without mixing them into
    the computed fields.
    """
    doc = {
        "schema_version": 1,
        "beta": design.beta,
        "alpha": design.alpha,
        **_derived_numbers(design),
        "beta_bound": None if math.isinf(design.beta_bound) else design.beta_bound,
        "gain": {"k": design.k.tolist(), "p": design.p.tolist()},
        "certificates": [
            {
                "index": cert.index,
                "c": cert.c,
                "q": cert.q.tolist(),
                "lmi_margin": cert.lmi_margin,
            }
            for cert in design.certificates
        ],
        "lambda_max": design.lambda_max,
        "dwell_threshold": design.dwell_threshold,
    }
    if config_digest is not None:
        doc["config_digest"] = config_digest
    if reference is not None:
        doc["reference"] = reference
    return doc


def design_from_dict(doc):
    """Rebuild a :class:`GainDesign` from a synthesis-report document.

    The document is checked against the ``report`` fields of `schema.FIELDS`;
    the first field that breaks them is named.
    """
    doc = schema.fields(doc, "report")
    certs = doc["certificates"]
    bound = doc["beta_bound"]
    return GainDesign(
        beta=doc["beta"],
        p=doc["gain"]["p"],
        k=doc["gain"]["k"],
        alpha=doc["alpha"],
        certificates=[
            TopologyCertificate(index=index, c=c, q=q, lmi_margin=margin)
            for index, c, q, margin in zip(certs["index"], certs["c"], certs["q"],
                                           certs["lmi_margin"])
        ],
        lambda_max=doc["lambda_max"],
        dwell_threshold=doc["dwell_threshold"],
        beta_bound=math.inf if bound is None else bound,
    )
