"""Application integration: connectors, registry, experiments, results."""

import datetime as dt
import io
import math
import os
import random
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

from repro.apps.connectors import LocalPythonConnector, RunOutcome, RunRequest
from repro.apps.registry import check_parameters, validate_interface
from repro.apps.rserve import (
    SESSION_LOG_LINES,
    RserveConnector,
    _expression_vector,
    _welch,
    two_group_analysis,
)
from repro.dataimport import AffymetrixGeneChipProvider
from repro.errors import (
    ApplicationError,
    ConnectorError,
    EntityNotFound,
    StateError,
    ValidationError,
)
from repro.facade import BFabric
from repro.util.clock import ManualClock

TWO_GROUP_INTERFACE = {
    "inputs": ["resource"],
    "parameters": [
        {"name": "reference_group", "type": "text", "required": True},
        {"name": "alpha", "type": "float", "default": 0.05},
    ],
    "output": "per-gene statistics CSV + report",
}


@pytest.fixture
def system(tmp_path):
    return BFabric(tmp_path, clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))


@pytest.fixture
def scientist(system):
    admin = system.bootstrap()
    return system.add_user(admin, login="sci", full_name="Sci")


@pytest.fixture
def project(system, scientist):
    return system.projects.create(scientist, "Arabidopsis light response")


@pytest.fixture
def imported(system, scientist, project):
    """A completed import: workunit + 4 cel resources with extracts."""
    system.imports.register_provider(AffymetrixGeneChipProvider("gc", runs=2))
    sample = system.samples.register_sample(
        scientist, project.id, "col0", species="Arabidopsis Thaliana"
    )
    system.samples.batch_register_extracts(
        scientist, sample.id, ["scan01 a", "scan01 b", "scan02 a", "scan02 b"]
    )
    workunit, resources, _ = system.imports.import_files(
        scientist, project.id, "gc",
        ["scan01_a.cel", "scan01_b.cel", "scan02_a.cel", "scan02_b.cel"],
        workunit_name="chips",
    )
    system.imports.apply_assignments(scientist, workunit.id)
    return workunit, resources


@pytest.fixture
def two_group_app(system, scientist):
    return system.applications.register_application(
        scientist,
        name="two group analysis",
        connector="rserve",
        executable="two_group_analysis",
        interface=TWO_GROUP_INTERFACE,
    )


class TestInterfaceValidation:
    def test_valid(self):
        assert validate_interface(TWO_GROUP_INTERFACE) == {}

    def test_missing_inputs(self):
        assert "inputs" in validate_interface({"parameters": []})

    def test_unknown_input_kind(self):
        errors = validate_interface({"inputs": ["hologram"]})
        assert "hologram" in errors["inputs"]

    def test_parameter_without_name(self):
        errors = validate_interface(
            {"inputs": ["resource"], "parameters": [{"type": "text"}]}
        )
        assert "parameters[0]" in errors

    def test_duplicate_parameter(self):
        errors = validate_interface(
            {
                "inputs": ["resource"],
                "parameters": [{"name": "a"}, {"name": "a"}],
            }
        )
        assert "parameters[1]" in errors

    def test_choice_requires_choices(self):
        errors = validate_interface(
            {
                "inputs": ["resource"],
                "parameters": [{"name": "mode", "type": "choice"}],
            }
        )
        assert "parameters[0]" in errors


class TestParameterChecking:
    def test_defaults_applied(self):
        effective = check_parameters(
            TWO_GROUP_INTERFACE, {"reference_group": "_a"}
        )
        assert effective == {"reference_group": "_a", "alpha": 0.05}

    def test_required_missing(self):
        with pytest.raises(ValidationError) as excinfo:
            check_parameters(TWO_GROUP_INTERFACE, {})
        assert excinfo.value.field_errors == {"reference_group": "required"}

    def test_unknown_parameter(self):
        with pytest.raises(ValidationError):
            check_parameters(
                TWO_GROUP_INTERFACE, {"reference_group": "x", "bogus": 1}
            )

    def test_type_coercion(self):
        effective = check_parameters(
            TWO_GROUP_INTERFACE, {"reference_group": "x", "alpha": "0.01"}
        )
        assert effective["alpha"] == 0.01

    def test_bad_type(self):
        with pytest.raises(ValidationError):
            check_parameters(
                TWO_GROUP_INTERFACE,
                {"reference_group": "x", "alpha": "not a number"},
            )

    def test_choice_validated(self):
        interface = {
            "inputs": ["resource"],
            "parameters": [
                {"name": "mode", "type": "choice", "choices": ["fast", "slow"]}
            ],
        }
        assert check_parameters(interface, {"mode": "fast"}) == {"mode": "fast"}
        with pytest.raises(ValidationError):
            check_parameters(interface, {"mode": "warp"})


class TestConnectors:
    def make_request(self, tmp_path, executable="script"):
        return RunRequest(
            application="app",
            executable=executable,
            input_files=[],
            parameters={},
            attributes={},
            workdir=tmp_path,
        )

    def test_local_python_runs_script(self, tmp_path):
        connector = LocalPythonConnector()

        def script(request):
            out = request.workdir / "out.txt"
            out.write_text("hello")
            return RunOutcome(files=[out])

        connector.register_script("script", script)
        outcome = connector.run(self.make_request(tmp_path))
        assert outcome.files[0].read_text() == "hello"

    def test_unknown_script(self, tmp_path):
        connector = LocalPythonConnector()
        with pytest.raises(ConnectorError):
            connector.run(self.make_request(tmp_path))

    def test_crash_wrapped(self, tmp_path):
        connector = LocalPythonConnector()
        connector.register_script(
            "script", lambda request: 1 / 0
        )
        with pytest.raises(ConnectorError):
            connector.run(self.make_request(tmp_path))

    def test_phantom_result_file_rejected(self, tmp_path):
        connector = LocalPythonConnector()
        connector.register_script(
            "script",
            lambda request: RunOutcome(files=[request.workdir / "ghost.txt"]),
        )
        with pytest.raises(ConnectorError):
            connector.run(self.make_request(tmp_path))

    def test_duplicate_script(self):
        connector = LocalPythonConnector()
        connector.register_script("s", lambda r: RunOutcome(files=[]))
        with pytest.raises(ConnectorError):
            connector.register_script("s", lambda r: RunOutcome(files=[]))

    def test_rserve_session_log(self, tmp_path):
        connector = RserveConnector()
        connector.register_script(
            "ok", lambda request: RunOutcome(files=[])
        )
        connector.run(self.make_request(tmp_path, "ok"))
        assert any("RS.connect" in line for line in connector.session_log)
        assert any("status: ok" in line for line in connector.session_log)

    def test_rserve_shares_the_script_registry(self, tmp_path):
        connector = RserveConnector(host="r1", port=7000)
        connector.register_script("ok", lambda request: RunOutcome(files=[]))
        assert connector.script_names() == ["ok"]
        with pytest.raises(ConnectorError, match="R script 'ok' already deployed"):
            connector.register_script("ok", lambda request: RunOutcome(files=[]))
        with pytest.raises(ConnectorError, match="Rserve at r1:7000 has no script 'nope'"):
            connector.run(self.make_request(tmp_path, "nope"))
        assert connector.session_log == []

    def test_rserve_session_log_is_bounded(self, tmp_path):
        connector = RserveConnector()
        connector.register_script("ok", lambda request: RunOutcome(files=[]))
        for _ in range(SESSION_LOG_LINES):  # two lines a run: twice the bound
            connector.run(self.make_request(tmp_path, "ok"))
        log = connector.session_log
        assert isinstance(log, list) and len(log) == SESSION_LOG_LINES
        assert log[-2].startswith("RS.connect(") and log[-1].startswith("status: ok")

    def test_rserve_error_logged(self, tmp_path):
        connector = RserveConnector()

        def bad(request):
            raise ApplicationError("input empty")

        connector.register_script("bad", bad)
        with pytest.raises(ApplicationError):
            connector.run(self.make_request(tmp_path, "bad"))
        assert any("status: error" in line for line in connector.session_log)


class TestTwoGroupAnalysis:
    def make_inputs(self, tmp_path, names):
        paths = []
        for name in names:
            path = tmp_path / name
            path.write_bytes(name.encode() * 50)
            paths.append(path)
        return paths

    def run(self, tmp_path, names, parameters):
        workdir = tmp_path / "work"
        workdir.mkdir(exist_ok=True)
        return two_group_analysis(
            RunRequest(
                application="tga",
                executable="two_group_analysis",
                input_files=self.make_inputs(tmp_path, names),
                parameters=parameters,
                attributes={"species": "A. thaliana"},
                workdir=workdir,
            )
        )

    def test_produces_csv_and_report(self, tmp_path):
        outcome = self.run(
            tmp_path,
            ["ref_1.cel", "ref_2.cel", "trt_1.cel", "trt_2.cel"],
            {"reference_group": "ref"},
        )
        names = {Path(f).name for f in outcome.files}
        assert names == {"two_group_result.csv", "report.txt"}
        csv_lines = Path(outcome.files[0]).read_text().splitlines()
        assert csv_lines[0] == "gene,log_fc,t_statistic,p_value"
        assert len(csv_lines) == 1 + outcome.metrics["genes"]
        assert "reference group" in outcome.report

    def test_deterministic(self, tmp_path):
        first = self.run(
            tmp_path, ["r1.cel", "t1.cel", "t2.cel"], {"reference_group": "r"}
        )
        second = self.run(
            tmp_path, ["r1.cel", "t1.cel", "t2.cel"], {"reference_group": "r"}
        )
        assert (
            Path(first.files[0]).read_text() == Path(second.files[0]).read_text()
        )

    def test_missing_reference_group(self, tmp_path):
        with pytest.raises(ApplicationError):
            self.run(tmp_path, ["a.cel"], {})

    def test_empty_group(self, tmp_path):
        with pytest.raises(ApplicationError):
            self.run(
                tmp_path, ["trt_1.cel", "trt_2.cel"], {"reference_group": "ref"}
            )

    def test_no_inputs(self, tmp_path):
        workdir = tmp_path / "w"
        workdir.mkdir()
        with pytest.raises(ApplicationError):
            two_group_analysis(
                RunRequest("a", "t", [], {"reference_group": "r"}, {}, workdir)
            )

    def test_analysis_stack_imported_only_by_a_run(self, tmp_path):
        # Every `repro` verb and `repro serve` start imports the facade
        # and the portal, and a run imports the analysis; none of them
        # may pull in numpy or scipy (~77 MB of a serving process).
        src = Path(__file__).resolve().parents[1] / "src"
        inputs = self.make_inputs(tmp_path, ["ref_1.cel", "trt_1.cel", "trt_2.cel"])
        script = (
            "import sys, repro.facade, repro.portal.server\n"
            "from pathlib import Path\n"
            "from repro.apps import RunRequest, two_group_analysis\n"
            "files = [Path(name) for name in sys.argv[2:]]\n"
            "request = RunRequest('tga', 'two_group_analysis', files,\n"
            "                     {'reference_group': 'ref'}, {}, Path(sys.argv[1]))\n"
            "assert two_group_analysis(request).metrics['genes'] == 200\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), *map(str, inputs)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_csv_rows_are_the_welch_statistics(self, tmp_path):
        names = ["ref_1.cel", "ref_2.cel", "trt_1.cel", "trt_2.cel", "trt_3.cel"]
        self.run(tmp_path, names, {"reference_group": "ref"})
        vectors = {
            name: _expression_vector(tmp_path / name) for name in names
        }
        reference = [vectors[n] for n in names if n.startswith("ref")]
        treatment = [vectors[n] for n in names if n.startswith("trt")]
        lines = (tmp_path / "work" / "two_group_result.csv").read_text().splitlines()
        assert len(lines) == 201
        for gene, line in enumerate(lines[1:]):
            trt = [v[gene] for v in treatment]
            ref = [v[gene] for v in reference]
            t_stat, p_value = _welch(trt, ref)
            log_fc = math.fsum(trt) / 3 - math.fsum(ref) / 2
            assert line == (
                f"gene_{gene:04d},{log_fc:.4f},{t_stat:.4f},{p_value:.6f}"
            )

    def test_one_file_per_group_reports_nan(self, tmp_path):
        # The portal demo's own runs are one file against one.
        outcome = self.run(
            tmp_path, ["scan_a.cel", "scan_b.cel"], {"reference_group": "_a"}
        )
        assert outcome.metrics["significant"] == 0
        rows = (tmp_path / "work" / "two_group_result.csv").read_text().splitlines()
        assert all(row.endswith(",nan,nan") for row in rows[1:])


def _same(got: float, want: float) -> bool:
    """Equal to 1e-10 relative, with nan equal to nan and ±inf exact."""
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=1e-10, abs_tol=0.0)


#: ``(treatment, reference, t, p)`` from ``scipy.stats.ttest_ind(
#: treatment, reference, equal_var=False)`` in scipy 1.17.1, so that
#: the oracle check needs no scipy to run.
WELCH_REFERENCE = [
    ((8.1, 9.4), (7.2, 6.9), 2.5484077425859266, 0.21832384082724643),
    ((10.0, 11.5, 9.8), (7.1, 8.4, 6.6, 7.9, 8.8),
     3.9746828611026044, 0.014644690992455033),
    ((5.5, 6.1, 4.9, 5.2, 6.6, 5.8), (6.0, 9.1),
     -1.1886676744487263, 0.43745796799764364),
    ((8.0, 8.3, 7.7, 8.1), (8.2, 7.9, 8.4, 7.6), 0.0, 1.0),
    ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.0, 1.0),
    ((4.0, 4.0, 4.0), (1.0, 3.0, 2.0), 3.464101615137755, 0.07417990022744854),
    ((2.0, 2.5), (9.0, 9.25, 9.5), -24.248711305964285, 0.003845395263814187),
    # |t| > 30: the p-value lives in the fraction's small tail.
    ((100.0, 100.1, 100.2), (1.0, 1.1, 1.05),
     1534.4760017673611, 8.911064417664686e-10),
    ((20.1, 20.3, 19.9, 20.2, 20.0, 19.8), (10.2, 9.9, 10.1, 10.0, 9.8, 10.3),
     92.58200997725517, 5.290705657110998e-16),
    # A group of one file has no variance estimate.
    ((8.0,), (9.0,), math.nan, math.nan),
    ((8.0,), (1.0, 2.0, 3.0), math.nan, math.nan),
    # Both groups constant: apart gives ±inf / 0, together nan / nan.
    ((3.0, 3.0), (1.0, 1.0, 1.0), math.inf, 0.0),
    ((1.0, 1.0), (5.0, 5.0), -math.inf, 0.0),
    ((2.0, 2.0), (2.0, 2.0, 2.0), math.nan, math.nan),
]


class TestWelchOracle:
    @pytest.mark.parametrize(
        "treatment, reference, t_stat, p_value", WELCH_REFERENCE
    )
    def test_pinned_scipy_results(self, treatment, reference, t_stat, p_value):
        got_t, got_p = _welch(treatment, reference)
        assert _same(got_t, t_stat), (got_t, t_stat)
        assert _same(got_p, p_value), (got_p, p_value)

    def test_matches_scipy_on_random_genes(self):
        np = pytest.importorskip("numpy")
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(2010)
        for _ in range(2000):
            shift = rng.choice([0.0, 0.5, 3.0, 25.0])
            spread = rng.choice([0.01, 1.0, 2.0, 50.0])
            treatment = [
                rng.gauss(8.0 + shift, spread) for _ in range(rng.randint(2, 6))
            ]
            reference = [
                rng.gauss(8.0, spread * rng.choice([0.1, 1.0, 5.0]))
                for _ in range(rng.randint(2, 6))
            ]
            want = stats.ttest_ind(
                np.array(treatment), np.array(reference), equal_var=False
            )
            want_t, want_p = float(want.statistic), float(want.pvalue)
            t_stat, p_value = _welch(treatment, reference)
            assert _same(t_stat, want_t), (treatment, reference)
            assert _same(p_value, want_p), (treatment, reference)
            assert f"{t_stat:.4f},{p_value:.6f}" == f"{want_t:.4f},{want_p:.6f}"


class TestApplicationRegistry:
    def test_register_and_lookup(self, system, scientist, two_group_app):
        assert system.applications.by_name("two group analysis").id == two_group_app.id
        assert system.applications.count() == 1

    def test_unknown_connector_rejected(self, system, scientist):
        with pytest.raises(ValidationError):
            system.applications.register_application(
                scientist, name="x", connector="fortran",
                executable="x", interface=TWO_GROUP_INTERFACE,
            )

    def test_invalid_interface_rejected(self, system, scientist):
        with pytest.raises(ValidationError):
            system.applications.register_application(
                scientist, name="x", connector="rserve",
                executable="x", interface={"inputs": []},
            )

    def test_deactivate(self, system, scientist, two_group_app):
        system.applications.deactivate(scientist, two_group_app.id)
        assert system.applications.active_applications() == []

    def test_missing_application(self, system):
        with pytest.raises(EntityNotFound):
            system.applications.get(404)


class TestExperiments:
    def test_define_validates_selection(self, system, scientist, project,
                                         imported, two_group_app):
        workunit, resources = imported
        experiment = system.experiments.define(
            scientist, project.id, "light effect",
            application_id=two_group_app.id,
            resource_ids=[r.id for r in resources],
            attributes={"species": "Arabidopsis Thaliana", "treatment": "light"},
        )
        assert experiment.resource_ids == [r.id for r in resources]

    def test_define_requires_resources_when_interface_says_so(
        self, system, scientist, project, two_group_app
    ):
        with pytest.raises(ValidationError):
            system.experiments.define(
                scientist, project.id, "empty",
                application_id=two_group_app.id, resource_ids=[],
            )

    def test_define_rejects_foreign_resources(
        self, system, scientist, project, imported, two_group_app
    ):
        _, resources = imported
        other = system.projects.create(scientist, "Other")
        with pytest.raises(ValidationError):
            system.experiments.define(
                scientist, other.id, "cross",
                application_id=two_group_app.id,
                resource_ids=[resources[0].id],
            )

    def test_run_produces_available_workunit(
        self, system, scientist, project, imported, two_group_app
    ):
        _, resources = imported
        experiment = system.experiments.define(
            scientist, project.id, "light effect",
            application_id=two_group_app.id,
            resource_ids=[r.id for r in resources],
        )
        workunit = system.experiments.run(
            scientist, experiment.id, workunit_name="results",
            parameters={"reference_group": "_a"},
        )
        assert workunit.status == "available"
        outputs = system.workunits.resources_of(
            scientist, workunit.id, inputs=False
        )
        assert {r.name for r in outputs} == {
            "two_group_result.csv", "report.txt",
        }
        inputs = system.workunits.resources_of(
            scientist, workunit.id, inputs=True
        )
        assert len(inputs) == len(resources)
        # Inputs keep their extract associations.
        assert all(r.extract_id is not None for r in inputs)

    def test_run_validates_parameters(
        self, system, scientist, project, imported, two_group_app
    ):
        _, resources = imported
        experiment = system.experiments.define(
            scientist, project.id, "light effect",
            application_id=two_group_app.id,
            resource_ids=[r.id for r in resources],
        )
        with pytest.raises(ValidationError):
            system.experiments.run(
                scientist, experiment.id, workunit_name="x", parameters={}
            )

    def test_deferred_run_pending_then_ready(
        self, system, scientist, project, imported, two_group_app
    ):
        _, resources = imported
        experiment = system.experiments.define(
            scientist, project.id, "light effect",
            application_id=two_group_app.id,
            resource_ids=[r.id for r in resources],
        )
        workunit = system.experiments.run(
            scientist, experiment.id, workunit_name="deferred",
            parameters={"reference_group": "_a"}, defer=True,
        )
        assert workunit.status == "pending"
        assert workunit.id in {
            w.id for w in system.experiments.pending_runs(scientist)
        }
        workunit = system.experiments.execute_pending(scientist, workunit.id)
        assert workunit.status == "available"
        assert system.experiments.pending_runs(scientist) == []

    def test_failed_run_opens_admin_task(
        self, system, scientist, project, imported, two_group_app
    ):
        admin = system.bootstrap()
        _, resources = imported
        experiment = system.experiments.define(
            scientist, project.id, "bad grouping",
            application_id=two_group_app.id,
            resource_ids=[r.id for r in resources],
        )
        workunit = system.experiments.run(
            scientist, experiment.id, workunit_name="will fail",
            parameters={"reference_group": "no_such_marker"},
        )
        assert workunit.status == "failed"
        titles = [t.title for t in system.tasks.inbox(admin)]
        assert any("failed" in t for t in titles)
        instances = system.workflow.for_entity("workunit", workunit.id)
        assert instances[0].status == "failed"

    def test_execute_pending_without_workflow(self, system, scientist, project):
        workunit = system.workunits.create(scientist, project.id, "plain")
        with pytest.raises(StateError):
            system.experiments.execute_pending(scientist, workunit.id)


class TestResults:
    def make_available_run(self, system, scientist, project, imported, app):
        _, resources = imported
        experiment = system.experiments.define(
            scientist, project.id, "light effect",
            application_id=app.id, resource_ids=[r.id for r in resources],
        )
        return system.experiments.run(
            scientist, experiment.id, workunit_name="results",
            parameters={"reference_group": "_a"},
        )

    def test_zip_contains_results_and_report(
        self, system, scientist, project, imported, two_group_app
    ):
        workunit = self.make_available_run(
            system, scientist, project, imported, two_group_app
        )
        payload = system.results.as_zip_bytes(scientist, workunit.id)
        with zipfile.ZipFile(io.BytesIO(payload)) as archive:
            names = set(archive.namelist())
            assert "two_group_result.csv" in names
            assert "report.txt" in names
            assert "report/run_report.txt" in names
            content = archive.read("two_group_result.csv").decode()
            assert content.startswith("gene,")

    def test_zip_requires_available(self, system, scientist, project):
        workunit = system.workunits.create(scientist, project.id, "pending wu")
        with pytest.raises(StateError):
            system.results.as_zip_bytes(scientist, workunit.id)

    def test_write_zip(self, system, scientist, project, imported,
                       two_group_app, tmp_path):
        workunit = self.make_available_run(
            system, scientist, project, imported, two_group_app
        )
        target = system.results.write_zip(
            scientist, workunit.id, tmp_path / "out" / "results.zip"
        )
        assert target.is_file()
        assert zipfile.is_zipfile(target)

    def test_report_text(self, system, scientist, project, imported, two_group_app):
        workunit = self.make_available_run(
            system, scientist, project, imported, two_group_app
        )
        report = system.results.read_report(workunit.id)
        assert "Two Group Analysis Report" in report
