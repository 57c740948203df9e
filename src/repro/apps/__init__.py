"""Application integration (paper Figures 12–16).

"Integration of external functionality into B-Fabric is done via
application registration.  First, a connector is written for a certain
type of application, e.g., for running R scripts on an Rserve system.
Then, a small interface is defined to describe how the application gets
its input.  Finally, the scientist writes the application in any
language."

Pieces:

* :mod:`repro.apps.connectors` — the connector SPI and staging model;
* :mod:`repro.apps.rserve` — a simulated Rserve connector with a real
  two-group analysis "script" (Welch t-tests on the standard library
  over synthesized expression matrices);
* :mod:`repro.apps.registry` — application registration with interface
  validation;
* :mod:`repro.apps.experiments` — experiment definitions and runs;
* :mod:`repro.apps.results` — result collection and zip export.
"""

from repro.apps.connectors import (
    Connector,
    LocalPythonConnector,
    RunRequest,
    RunOutcome,
)
from repro.apps.rserve import RserveConnector, two_group_analysis
from repro.apps.registry import ApplicationRegistry
from repro.apps.experiments import ExperimentService, EXPERIMENT_WORKFLOW
from repro.apps.results import ResultPackager

__all__ = [
    "Connector",
    "LocalPythonConnector",
    "RunRequest",
    "RunOutcome",
    "RserveConnector",
    "two_group_analysis",
    "ApplicationRegistry",
    "ExperimentService",
    "EXPERIMENT_WORKFLOW",
    "ResultPackager",
]
