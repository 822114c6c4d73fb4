"""Controller synthesis for consensus under switching directed topologies.

Builds the full certificate chain: a per-topology matrix inequality solved
through a shifted Lyapunov equation, a gain matrix obtained from an algebraic
Riccati reduction of the design inequality, the coupling-strength threshold,
the dwell-time threshold, and a per-switch margin check for an explicit
schedule.  Every jump bound is an entry of the one :class:`PairTable`
`pair_lambdas` solves, lambda_ij for each ordered pair of topologies.

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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
    "PairTable",
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

    Satisfies ``k == 0.5 * b.T @ inv(p)``, ``c0 == min c_i``, ``alpha >
    alpha_min == 2 / c0``, and ``dwell_threshold == ln(lambda_max) / beta``
    whenever ``lambda_max > 1`` (0 otherwise).  `beta_bound` is the supremum
    of the admissible beta for the gain inequality (infinite for controllable
    pairs).  A design read from a report holds the numbers the report stores;
    :func:`design_checks` compares them with their derivations.
    """

    beta: float
    p: np.ndarray
    k: np.ndarray
    alpha: float
    certificates: list
    c0: float
    alpha_min: float
    lambda_max: float = 1.0
    dwell_threshold: float = 0.0
    beta_bound: float = math.inf


@dataclass
class ScheduleReport:
    """The per-switch condition of a signal, as columns with one entry per switch.

    Entry k is the interval ``[t_start[k], t_end[k])`` and the switch from
    topology ``from_index[k]`` to ``to_index[k]`` that ends it, with its jump
    bound `lambda_max` and ``margin = beta (t_end - t_start) - ln lambda_max``.
    `checks` flags margins above `kappa0`; `passed` holds iff all are.
    """

    kappa0: float
    t_start: np.ndarray
    t_end: np.ndarray
    from_index: np.ndarray
    to_index: np.ndarray
    lambda_max: np.ndarray
    margin: np.ndarray
    checks: np.ndarray
    passed: bool


class PairTable(NamedTuple("PairTable", [("indices", list), ("lam", np.ndarray)])):
    """The table of :func:`pair_lambdas`, with its one topology -> row lookup."""

    def rows(self, topologies):
        """Table rows of `topologies` (any shape); one with no row raises ValueError."""
        t = np.asarray(topologies, dtype=np.int64)
        rows = self._lookup.take(t, mode="clip")
        if rows.min(initial=0) < 0:  # no certificate, or one past the lookup
            known = np.isin(t, self.indices)
            if not known.all():
                raise ValueError(f"no certificate for topology index {t[~known][0]}")
            rows = np.searchsorted(self.indices, t)
        return rows

    @cached_property
    def _lookup(self):
        """Topology i's row at ``[i]`` for ``0 < i <= len(indices)``, else -1."""
        lookup = np.full(len(self.indices) + 2, -1)  # -1 at the ends `take` clips to
        near = [i for i in self.indices if 0 < i <= len(self.indices)]
        lookup[near] = np.searchsorted(self.indices, near)
        return lookup

    @property
    def lambda_max(self):
        """Largest off-diagonal entry; 1.0 with one topology."""
        off = self.lam[~np.eye(len(self.lam), dtype=bool)]
        return float(off.max()) if off.size else 1.0


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

    `lmi_margin` is the smallest eigenvalue of ``G = Lh^T Q + Q Lh - 2 c Q``,
    positive iff the inequality holds.  `checks` holds ``(name, passed,
    detail)`` for c below the antistability margin and for ``Q > 0`` (a
    non-symmetric Q fails it).

    The pair (Q, G) certifies the margin without solving the spectrum of Lh
    (Lyapunov's theorem).  For an eigenpair ``Lh v = lambda v`` (v complex,
    Lh real, so ``v^* Lh^T = conj(lambda) v^*``),

        v^* G v = (conj(lambda) + lambda - 2 c) v^* Q v
                = 2 (Re lambda - c) v^* Q v,

    and with ``Q > 0`` and ``G > 0``, ``v^* G v >= lambda_min(G) |v|^2`` and
    ``0 < v^* Q v <= lambda_max(Q) |v|^2`` give, for every eigenvalue,

        Re lambda >= c + lambda_min(G) / (2 lambda_max(Q)) > c.

    So the row passes iff ``Q > 0`` and ``lambda_min(G) > 0``, and prints that
    certified lower bound on the margin; the extreme eigenvalues of Q come
    from the one symmetric solve that tests ``Q > 0``.
    """
    index = reduced.source_index
    spd, spd_detail, q_high = linalg.definite_check(q)
    gram = reduced.matrix.T @ q + q @ reduced.matrix - 2.0 * c * q
    lmi_margin = float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[0])
    certified = spd and lmi_margin > 0.0
    if certified:
        bound = f"margin >= {c + lmi_margin / (2.0 * q_high):.6g}"
    else:
        bound = "not certified: needs Q > 0 and a positive inequality margin"
    checks = [
        (f"certificate {index}: c below antistability margin", certified,
         f"c={c:.6g}, {bound}"),
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
    # checks[0], the certified margin, holds iff the two checks left do.
    _require(checks[1:] + [(f"certificate {reduced.source_index}: inequality margin",
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
    """``(name, passed, detail)`` checks of ``P > 0`` (by `linalg.definite_check`),
    ``K = (1/2) B^T inv(P)`` (failed, with no inverse taken, unless P > 0), the
    gain inequality ``A P + P A^T - B B^T + beta P < 0`` and ``alpha > 2/c0``.
    """
    p = design.p
    spd, spd_detail, _ = linalg.definite_check(p)
    k_expected = 0.5 * b.T @ np.linalg.inv(p) if spd else math.nan
    k_err = np.abs(design.k - k_expected).max()
    expr = a @ p + p @ a.T - b @ b.T + design.beta * p
    top = float(np.linalg.eigvalsh((expr + expr.T) / 2.0)[-1])
    alpha_min = coupling_threshold(design.certificates)
    return [
        ("P positive definite", spd, spd_detail),
        ("gain identity K = (1/2) B^T inv(P)",
         k_err <= CHECK_RTOL * (1 + np.abs(k_expected).max()),
         f"max deviation {k_err:.3e}" if spd else "P is not positive definite"),
        ("gain inequality A P + P A^T - B B^T + beta P < 0", top < 0,
         f"largest eigenvalue {top:.3e}"),
        ("coupling strength alpha > 2/c0", design.alpha > alpha_min,
         f"alpha={design.alpha:.6g}, threshold={alpha_min:.6g}"),
    ]


def _matches(stored, recomputed):
    return stored == recomputed or (
        abs(recomputed - stored) <= CHECK_RTOL * (1 + abs(stored)))


def design_checks(design, a, b, reduced, signal, kappa0):
    """Every ``(name, passed, detail)`` row ``verify`` prints for a design.

    Per certificate, :func:`certificate_checks` on its topology in `reduced`
    and its stored `lmi_margin` against the recomputed one; a failed row per
    topology of `reduced` without exactly one certificate; :func:`gain_checks`;
    the design's stored numbers re-derived, `lambda_max` from the one
    :class:`PairTable` that :func:`check_schedule` reads for `signal`;
    then one row per switch whose margin is not above `kappa0` and one summary
    row that passes iff none is, naming the number of switches and the
    smallest margin with its interval and pair (no row for a schedule without
    a switch); or, when the schedule cannot be checked, one failed
    ``switching condition`` row.  So the rows grow with the failing switches,
    not with the schedule; the margin of every switch is in the
    :class:`ScheduleReport` of :func:`check_schedule`.
    """
    table = None
    try:
        table = pair_lambdas(design.certificates)
        switches = _switch_rows(check_schedule(signal, design.certificates,
                                               design.beta, kappa0, table))
    except ValueError as exc:  # unpairable certificates or a topology without one
        switches = [("switching condition", False, str(exc))]
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
    found = [cert.index for cert in design.certificates]
    checks += [(f"certificate {i}: one per topology", False, f"{found.count(i)} found")
               for i in by_index if found.count(i) != 1]
    # A Q that is not positive definite leaves no table; it fails its own row.
    lam = math.nan if table is None else table.lambda_max
    derived = {"alpha_min": coupling_threshold(design.certificates),
               "c0": min(cert.c for cert in design.certificates),
               "beta_bound": max_feasible_beta(a, b),
               "dwell_threshold": _tau_star(design.lambda_max, design.beta),
               "lambda_max": lam}
    summary = [
        (f"report {key} = {formula}", _matches(getattr(design, key), derived[key]),
         f"stored {getattr(design, key):.6g}, derived {derived[key]:.6g}")
        for key, formula in (("c0", "min c_i"), ("alpha_min", "2/c0"),
                             ("beta_bound", "sup feasible beta"),
                             ("dwell_threshold", "ln(lambda_max)/beta"),
                             ("lambda_max", "max lambda_ij over ordered pairs"))
    ]
    return checks + gain_checks(design, a, b) + summary + switches


def _switch_rows(s):
    """The rows of :func:`design_checks` for the :class:`ScheduleReport` `s`:
    one per failing switch, then the summary row; none without a switch."""
    if not s.margin.size:
        return []
    # Every failing switch, then the one with the smallest margin.
    picked = np.append(np.flatnonzero(~s.checks), np.argmin(s.margin))
    *failed, (where, low) = [
        (f"on [{t0:g}, {t1:g}) ({i}->{j})", f"{margin:.6g}")
        for t0, t1, i, j, margin in zip(*(column[picked].tolist() for column in (
            s.t_start, s.t_end, s.from_index, s.to_index, s.margin)))]
    vs = f"vs kappa0 {s.kappa0:g}"
    count = f"{s.margin.size} switch{'es' if s.margin.size > 1 else ''}"
    return [(f"switch margin {w}", False, f"margin {m} {vs}") for w, m in failed] + [
        ("switch margins > kappa0", s.passed,
         f"{count}, smallest margin {low} {where} {vs}")]


def coupling_threshold(certificates):
    """Lower bound 2 / c0, ``c0 = min(c_i)``, the coupling strength must exceed."""
    if not certificates:
        raise ValueError("need at least one topology certificate")
    return 2.0 / min(cert.c for cert in certificates)


def pair_lambdas(certificates):
    """The jump bound of every ordered topology pair, as a :class:`PairTable`.

    `indices` are the certificates' topology indices, sorted; of a repeated
    index, the last certificate counts.  ``lam[a, b]`` is ``lambda_ij``, the
    largest generalized eigenvalue of ``(Q_i, Q_j)`` for ``i = indices[a]``,
    ``j = indices[b]``; it bounds the energy jump ``V_j / V_i`` at a switch
    from i to j.  Each pair is solved once.  ``lambda_ii`` is 1.0 exactly,
    with no solve (no switch of energy), so round-off on an ill-conditioned
    ``Q_i`` cannot move it.  A pair that cannot be solved raises ValueError
    naming it.  `rows` maps topology indices to rows of ``lam``.
    """
    q = {cert.index: cert.q for cert in certificates}
    indices = sorted(q)
    lam = np.ones((len(indices), len(indices)))
    for a, b in np.argwhere(~np.eye(len(indices), dtype=bool)).tolist():
        i, j = indices[a], indices[b]
        try:
            lam[a, b] = linalg.max_generalized_eigenvalue(q[i], q[j])
        except ValueError as exc:
            raise ValueError(f"topologies {i} -> {j}: {exc}") from None
    return PairTable(indices, lam)


def dwell_threshold(certificates, beta):
    """Dwell-time threshold from the worst certificate-pair eigenvalue ratio.

    Returns ``(lambda_max, tau_star)``: the :func:`pair_lambdas` table's
    `lambda_max` and ``tau_star = ln(lambda_max) / beta``.  A single
    topology (or lambda_max <= 1) needs no dwell bound: tau_star = 0.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not certificates:
        raise ValueError("need at least one topology certificate")
    lam = pair_lambdas(certificates).lambda_max
    return lam, _tau_star(lam, beta)


def _tau_star(lam, beta):
    # Identical certificates give lam = 1 up to round-off; no dwell bound.
    return float(math.log(lam) / beta) if lam > 1.0 + 1e-12 else 0.0


def check_schedule(signal, certificates, beta, kappa0=DEFAULT_KAPPA0, table=None):
    """The per-switch condition of an explicit signal, as a :class:`ScheduleReport`.

    Switch k at breakpoint k + 1 has margin ``beta * (t_{k+1} - t_k) -
    ln lambda_k``, with ``lambda_k`` and its log (one ``math.log`` per entry)
    read from `table`, the :class:`PairTable` of `certificates`, solved here
    by :func:`pair_lambdas` when not given; its `rows` name a topology with no
    certificate.  The report passes iff every margin strictly exceeds kappa0.
    """
    t = signal.breakpoints
    outgoing, incoming = signal.indices[:-1], signal.indices[1:]
    table = pair_lambdas(certificates) if table is None else table
    out, into = table.rows([outgoing, incoming])
    lam = table.lam
    log_lam = np.reshape([math.log(v) for v in lam.ravel().tolist()], lam.shape)
    margin = beta * np.diff(t) - log_lam[out, into]
    checks = margin > kappa0
    return ScheduleReport(kappa0, t[:-1], t[1:], outgoing, incoming, lam[out, into],
                          margin, checks, bool(checks.all()))


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
    alpha_min = coupling_threshold(certificates)
    if alpha is None:
        alpha = alpha_margin * alpha_min
    bound = max_feasible_beta(a, b)
    p, k = solve_gain_lmi(a, b, beta, bound)
    design = GainDesign(beta=float(beta), p=p, k=k, alpha=float(alpha),
                        certificates=certificates,
                        c0=min(cert.c for cert in certificates),
                        alpha_min=alpha_min, beta_bound=bound)
    _require(gain_checks(design, a, b))
    design.lambda_max, design.dwell_threshold = dwell_threshold(certificates, beta)
    return design


def design_to_dict(design, config_digest=None, reference=None):
    """Serialize a design to the synthesis-report document.

    Matrices are the design's own float64 arrays, to be encoded as their
    ``.tolist()``, nested row-major lists at full double precision (the
    CLI's report writer does so).  Every other value is a plain JSON type.
    An unbounded beta (controllable pair) serializes as null.  `reference`
    attaches externally published comparison values without mixing them into
    the computed fields.
    """
    doc = {
        "schema_version": 1,
        "beta": design.beta,
        "alpha": design.alpha,
        "alpha_min": design.alpha_min,
        "c0": design.c0,
        "beta_bound": None if math.isinf(design.beta_bound) else design.beta_bound,
        "gain": {"k": design.k, "p": design.p},
        "certificates": [
            {
                "index": cert.index,
                "c": cert.c,
                "q": cert.q,
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
        c0=doc["c0"],
        alpha_min=doc["alpha_min"],
        lambda_max=doc["lambda_max"],
        dwell_threshold=doc["dwell_threshold"],
        beta_bound=math.inf if bound is None else bound,
    )
