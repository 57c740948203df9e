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
and reports per-gene Welch t-tests — real statistics (scipy) over
simulated measurements.  numpy and scipy are imported inside the
functions that use them, so loading the facade (every ``repro`` verb,
every ``repro serve`` start) does not pay for them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.apps.connectors import Connector, RunOutcome, RunRequest
from repro.errors import ApplicationError, ConnectorError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

_GENES = 200


class RserveConnector(Connector):
    """Runs "R scripts" on a simulated Rserve session."""

    kind = "rserve"

    def __init__(self, *, host: str = "rserve.local", port: int = 6311):
        self.host = host
        self.port = port
        self._scripts: dict[str, Callable[[RunRequest], RunOutcome]] = {}
        self._session_log: list[str] = []

    @property
    def endpoint(self) -> str:
        return f"rserve:{self.host}:{self.port}"

    def register_script(
        self, name: str, function: Callable[[RunRequest], RunOutcome]
    ) -> None:
        """Deploy a script on the Rserve side."""
        if name in self._scripts:
            raise ConnectorError(f"R script {name!r} already deployed")
        self._scripts[name] = function

    def script_names(self) -> list[str]:
        return sorted(self._scripts)

    @property
    def session_log(self) -> list[str]:
        return list(self._session_log)

    def run(self, request: RunRequest) -> RunOutcome:
        script = self._scripts.get(request.executable)
        if script is None:
            raise ConnectorError(
                f"Rserve at {self.host}:{self.port} has no script "
                f"{request.executable!r}"
            )
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


def _expression_vector(path: Path, genes: int = _GENES) -> np.ndarray:
    """Deterministic simulated expression values for one input file.

    The file bytes seed a generator, so the same imported resource
    always yields the same measurements — experiments are reproducible,
    which is the whole point of capturing processing parameters.
    """
    import numpy as np

    digest = hashlib.sha256(path.read_bytes()).digest()
    seed = int.from_bytes(digest[:8], "big")
    rng = np.random.default_rng(seed)
    return rng.normal(loc=8.0, scale=2.0, size=genes)


def two_group_analysis(request: RunRequest) -> RunOutcome:
    """The demo application: differential analysis between two groups.

    Parameters:

    * ``reference_group`` (required) — substring marking reference
      files; everything else is the treatment group.
    * ``alpha`` (default 0.05) — significance threshold for the report.

    Produces ``two_group_result.csv`` (per-gene statistics) and
    ``report.txt`` (an R-session-style summary).
    """
    # The analysis stack costs ~0.9 s to import; only a run pays it.
    import numpy as np
    from scipy import stats

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

    ref_matrix = np.vstack(reference)
    trt_matrix = np.vstack(treatment)
    t_stat, p_value = stats.ttest_ind(
        trt_matrix, ref_matrix, axis=0, equal_var=False
    )
    log_fc = trt_matrix.mean(axis=0) - ref_matrix.mean(axis=0)
    significant = int(np.sum(p_value < alpha))

    result_csv = request.workdir / "two_group_result.csv"
    with open(result_csv, "w", encoding="utf-8") as fh:
        fh.write("gene,log_fc,t_statistic,p_value\n")
        for gene in range(ref_matrix.shape[1]):
            fh.write(
                f"gene_{gene:04d},{log_fc[gene]:.4f},"
                f"{t_stat[gene]:.4f},{p_value[gene]:.6f}\n"
            )

    report_lines = [
        "Two Group Analysis Report",
        "=========================",
        f"application: {request.application}",
        f"attributes: {json.dumps(request.attributes, sort_keys=True)}",
        f"reference group: {reference_marker!r} "
        f"({len(reference)} file(s))",
        f"treatment group: {len(treatment)} file(s)",
        f"genes tested: {ref_matrix.shape[1]}",
        f"significant at alpha={alpha}: {significant}",
    ]
    report_txt = request.workdir / "report.txt"
    report_txt.write_text("\n".join(report_lines) + "\n", encoding="utf-8")

    return RunOutcome(
        files=[result_csv, report_txt],
        report="\n".join(report_lines),
        metrics={
            "genes": int(ref_matrix.shape[1]),
            "significant": significant,
            "reference_files": len(reference),
            "treatment_files": len(treatment),
        },
    )
