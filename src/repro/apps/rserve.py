"""Simulated Rserve connector and the demo's two-group analysis.

The FGCZ deployment runs R scripts on an Rserve server; there is no R
here, so :class:`RserveConnector` *simulates* Rserve: registered "R
scripts" are Python callables with the same contract (staged inputs +
parameters in, result files + a textual report out), and the connector
adds Rserve-flavoured behaviour — a session log, per-script timeouts,
and R-style report formatting.  The integration surface (registration,
staging, collection) is identical to the real thing; only the
interpreter differs (see DESIGN.md substitutions).

The built-in :func:`two_group_analysis` reproduces the demo's example
application: it derives an expression matrix from each input file
deterministically, splits samples by the ``reference group`` parameter
and reports per-gene Welch t-tests — real statistics over simulated
measurements, on the standard library alone.  Its t statistics and
p-values are those of ``scipy.stats.ttest_ind(..., equal_var=False)``
(``tests/test_apps.py`` pins them), so a serving process never loads
an array or statistics stack for a 200-gene demo.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from math import copysign, exp, fsum, inf, lgamma, log, nan, sqrt
from pathlib import Path
from typing import Sequence

from repro.apps.connectors import LocalPythonConnector, RunOutcome, RunRequest
from repro.errors import ApplicationError, ConnectorError

_GENES = 200

#: Lines of Rserve session log a connector keeps (two per run).
SESSION_LOG_LINES = 256


class RserveConnector(LocalPythonConnector):
    """Runs "R scripts" on a simulated Rserve session."""

    kind = "rserve"

    def __init__(self, *, host: str = "rserve.local", port: int = 6311):
        super().__init__()
        self.host = host
        self.port = port
        self._session_log: deque[str] = deque(maxlen=SESSION_LOG_LINES)

    @property
    def endpoint(self) -> str:
        return f"rserve:{self.host}:{self.port}"

    def _duplicate_message(self, name: str) -> str:
        return f"R script {name!r} already deployed"

    def _missing_message(self, name: str) -> str:
        return f"Rserve at {self.host}:{self.port} has no script {name!r}"

    @property
    def session_log(self) -> list[str]:
        """The last :data:`SESSION_LOG_LINES` lines of the session."""
        return list(self._session_log)

    def run(self, request: RunRequest) -> RunOutcome:
        script = self._script(request.executable)
        self._session_log.append(
            f"RS.connect({self.host}, {self.port}); "
            f"source('{request.executable}.R')"
        )
        try:
            outcome = script(request)
        except ApplicationError:
            self._session_log.append("status: error")
            raise
        except Exception as exc:
            self._session_log.append("status: error")
            raise ConnectorError(
                f"R script {request.executable!r} failed: {exc}"
            ) from exc
        self._session_log.append(
            f"status: ok ({len(outcome.files)} result file(s))"
        )
        return outcome


# -- Welch's t-test -------------------------------------------------------------

#: Lentz's floor for a vanishing continued-fraction term, and the
#: relative change of the fraction at which it has converged.
_TINY = 1e-300
_EPS = 1e-15
_MAX_TERMS = 1000


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of ``I_x(a, b)`` by Lentz's method; it
    converges fast for ``x < (a + 1) / (a + b + 2)``."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if d > _TINY or d < -_TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS + 1):
        m2 = 2 * m
        # The even term, then the odd one.
        term = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + term * d
        d = 1.0 / (d if d > _TINY or d < -_TINY else _TINY)
        c = 1.0 + term / c
        if -_TINY < c < _TINY:
            c = _TINY
        h *= d * c
        term = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + term * d
        d = 1.0 / (d if d > _TINY or d < -_TINY else _TINY)
        c = 1.0 + term / c
        if -_TINY < c < _TINY:
            c = _TINY
        step = d * c
        h *= step
        if -_EPS < step - 1.0 < _EPS:
            break
    return h


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta ``I_x(a, b)``; *y* is ``1 - x``,
    given separately so that neither end loses digits."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    log_front = (
        lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - exp(log_front) * _beta_fraction(b, a, y) / b


def _welch(
    treatment: Sequence[float], reference: Sequence[float]
) -> tuple[float, float]:
    """Welch's t of *treatment* against *reference* and its two-sided
    p-value, as ``scipy.stats.ttest_ind(..., equal_var=False)`` gives
    them: ``nan``/``nan`` for a group of one value or for two constant
    groups with one mean, ``±inf``/``0.0`` for constant groups apart.
    """
    n1, n2 = len(treatment), len(reference)
    if n1 < 2 or n2 < 2:
        return nan, nan
    mean1 = fsum(treatment) / n1
    mean2 = fsum(reference) / n2
    vn1 = fsum([(v - mean1) ** 2 for v in treatment]) / (n1 - 1) / n1
    vn2 = fsum([(v - mean2) ** 2 for v in reference]) / (n2 - 1) / n2
    spread = vn1 + vn2
    if spread == 0.0:
        if mean1 == mean2:
            return nan, nan
        return copysign(inf, mean1 - mean2), 0.0
    t = (mean1 - mean2) / sqrt(spread)
    # Welch–Satterthwaite degrees of freedom.
    df = spread * spread / (vn1 * vn1 / (n1 - 1) + vn2 * vn2 / (n2 - 1))
    # P(|T| >= |t|) for Student's t with df degrees of freedom.
    t2 = t * t
    return t, _betainc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


# -- the demo application -------------------------------------------------------


def _expression_vector(path: Path, genes: int = _GENES) -> list[float]:
    """Deterministic simulated expression values for one input file.

    The file bytes seed a generator, so the same imported resource
    always yields the same measurements — experiments are reproducible,
    which is the whole point of capturing processing parameters.
    """
    digest = hashlib.sha256(path.read_bytes()).digest()
    gauss = random.Random(int.from_bytes(digest[:8], "big")).gauss
    return [gauss(8.0, 2.0) for _ in range(genes)]


def two_group_analysis(request: RunRequest) -> RunOutcome:
    """The demo application: differential analysis between two groups.

    Parameters:

    * ``reference_group`` (required) — substring marking reference
      files; everything else is the treatment group.
    * ``alpha`` (default 0.05) — significance threshold for the report.

    Produces ``two_group_result.csv`` (per-gene statistics) and
    ``report.txt`` (an R-session-style summary).
    """
    reference_marker = request.parameters.get("reference_group")
    if not reference_marker:
        raise ApplicationError(
            "two group analysis requires the 'reference_group' parameter"
        )
    alpha = float(request.parameters.get("alpha", 0.05))
    if not request.input_files:
        raise ApplicationError("two group analysis received no input files")

    reference, treatment = [], []
    for path in request.input_files:
        vector = _expression_vector(path)
        if reference_marker.lower() in path.name.lower():
            reference.append(vector)
        else:
            treatment.append(vector)
    if not reference or not treatment:
        raise ApplicationError(
            f"grouping by {reference_marker!r} left one group empty "
            f"({len(reference)} reference / {len(treatment)} treatment files)"
        )

    genes = len(reference[0])
    significant = 0
    result_csv = request.workdir / "two_group_result.csv"
    with open(result_csv, "w", encoding="utf-8") as fh:
        fh.write("gene,log_fc,t_statistic,p_value\n")
        for gene, (trt, ref) in enumerate(zip(zip(*treatment), zip(*reference))):
            t_stat, p_value = _welch(trt, ref)
            log_fc = fsum(trt) / len(trt) - fsum(ref) / len(ref)
            significant += p_value < alpha
            fh.write(
                f"gene_{gene:04d},{log_fc:.4f},{t_stat:.4f},{p_value:.6f}\n"
            )

    report_lines = [
        "Two Group Analysis Report",
        "=========================",
        f"application: {request.application}",
        f"attributes: {json.dumps(request.attributes, sort_keys=True)}",
        f"reference group: {reference_marker!r} "
        f"({len(reference)} file(s))",
        f"treatment group: {len(treatment)} file(s)",
        f"genes tested: {genes}",
        f"significant at alpha={alpha}: {significant}",
    ]
    report_txt = request.workdir / "report.txt"
    report_txt.write_text("\n".join(report_lines) + "\n", encoding="utf-8")

    return RunOutcome(
        files=[result_csv, report_txt],
        report="\n".join(report_lines),
        metrics={
            "genes": genes,
            "significant": significant,
            "reference_files": len(reference),
            "treatment_files": len(treatment),
        },
    )
