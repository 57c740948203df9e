"""The connector SPI.

A connector knows how to run one *type* of application.  It receives a
fully staged :class:`RunRequest` — local paths of the input resources,
the experiment attributes, the run parameters — and returns a
:class:`RunOutcome` of result files.  Everything B-Fabric-specific
(creating the result workunit, storing files, workflow bookkeeping)
stays in the executor; connectors stay small, which is what makes
"on-the-fly coupling" cheap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConnectorError


@dataclass
class RunRequest:
    """Everything an application run needs, already staged locally."""

    application: str
    executable: str
    input_files: list[Path]
    parameters: dict[str, Any]
    attributes: dict[str, Any]
    workdir: Path


@dataclass
class RunOutcome:
    """What a run produced."""

    files: list[Path]
    report: str = ""
    metrics: dict[str, Any] = field(default_factory=dict)


class Connector(ABC):
    """Runs applications of one kind."""

    #: Connector kind, referenced by Application.connector.
    kind: str = "abstract"

    @property
    def endpoint(self) -> str:
        """Identity of the backend this connector talks to.

        Circuit breakers are keyed by endpoint, so connectors that talk
        to a remote server (Rserve) should include its address — one
        broken server must not open the breaker of another.
        """
        return self.kind

    @abstractmethod
    def run(self, request: RunRequest) -> RunOutcome:
        """Execute the application; raise :class:`ConnectorError` on failure."""


class LocalPythonConnector(Connector):
    """Runs applications that are plain Python callables.

    The callable is registered under the application's ``executable``
    name and receives the :class:`RunRequest`; whatever files it writes
    into ``request.workdir`` and lists in its outcome become the result
    workunit's resources.  :class:`~repro.apps.rserve.RserveConnector`
    keeps its scripts in this same registry and words the two lookup
    errors its own way.
    """

    kind = "python"

    def __init__(self) -> None:
        self._scripts: dict[str, Callable[[RunRequest], RunOutcome]] = {}

    def register_script(
        self, name: str, function: Callable[[RunRequest], RunOutcome]
    ) -> None:
        if name in self._scripts:
            raise ConnectorError(self._duplicate_message(name))
        self._scripts[name] = function

    def script_names(self) -> list[str]:
        return sorted(self._scripts)

    def _duplicate_message(self, name: str) -> str:
        return f"script {name!r} already registered"

    def _missing_message(self, name: str) -> str:
        return f"connector {self.kind!r} has no script {name!r}"

    def _script(self, name: str) -> Callable[[RunRequest], RunOutcome]:
        """The script registered as *name*; :class:`ConnectorError`
        when there is none."""
        script = self._scripts.get(name)
        if script is None:
            raise ConnectorError(self._missing_message(name))
        return script

    def run(self, request: RunRequest) -> RunOutcome:
        script = self._script(request.executable)
        try:
            outcome = script(request)
        except ConnectorError:
            raise
        except Exception as exc:
            raise ConnectorError(
                f"application {request.application!r} crashed: {exc}"
            ) from exc
        for path in outcome.files:
            if not Path(path).is_file():
                raise ConnectorError(
                    f"application {request.application!r} reported a result "
                    f"file that does not exist: {path}"
                )
        return outcome
