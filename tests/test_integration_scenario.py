"""The paper's §2 demonstration scenario, end to end.

"As example scenario, we use a scientist who is working on a plant named
Arabidopsis Thaliana with the goal to figure out the effect of certain
gene and the effect on light on it.  For this purpose, he registers his
samples and extracts with B-Fabric, loads his data into B-Fabric and
defines his experiment.  Afterwards, he runs his experiment and stores
the results in B-Fabric."

One test per demo station (Figures 2–16), sharing one system so state
flows through exactly as in the live demo.
"""

import datetime as dt
import io
import zipfile

import pytest

from repro.dataimport import AffymetrixGeneChipProvider
from repro.facade import BFabric
from repro.util.clock import ManualClock


@pytest.fixture(scope="class")
def demo(tmp_path_factory):
    """The shared demo state: system, actors, project."""
    tmp = tmp_path_factory.mktemp("demo")
    system = BFabric(tmp, clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))
    admin = system.bootstrap()
    scientist = system.add_user(
        admin, login="plant_scientist", full_name="Plant Scientist"
    )
    expert = system.add_user(
        admin, login="fgcz_employee", full_name="FGCZ Employee", role="employee"
    )
    other_scientist = system.add_user(
        admin, login="other_scientist", full_name="Other Scientist"
    )
    project = system.projects.create(
        scientist, "Arabidopsis light response",
        description="Effect of a certain gene and of light",
    )
    system.projects.add_member(scientist, project.id, other_scientist.user_id)
    system.imports.register_provider(
        AffymetrixGeneChipProvider("Affymetrix GeneChip", runs=2)
    )
    return {
        "system": system,
        "admin": admin,
        "scientist": scientist,
        "expert": expert,
        "other_scientist": other_scientist,
        "project": project,
        "state": {},
    }


@pytest.mark.usefixtures("demo")
class TestDemonstrationScenario:
    def test_01_register_samples_figure2(self, demo):
        system, scientist = demo["system"], demo["scientist"]
        project = demo["project"]
        sample = system.samples.register_sample(
            scientist, project.id, "col0 wildtype",
            species="Arabidopsis Thaliana",
            attributes={"ecotype": "Columbia-0"},
        )
        # Cloning and batch registration ease repetitive entry.
        system.samples.clone_sample(scientist, sample.id, "col0 mutant")
        demo["state"]["sample"] = sample
        assert system.db.count("sample") == 2

    def test_02_new_annotation_from_form_figure2(self, demo):
        system = demo["system"]
        scientist, expert = demo["scientist"], demo["expert"]
        attribute = system.annotations.define_attribute(expert, "Disease State")
        annotation, similar = system.annotations.create_annotation(
            scientist, attribute.id, "Hopeless"
        )
        system.annotations.annotate(
            scientist, annotation.id, "sample", demo["state"]["sample"].id
        )
        demo["state"]["attribute"] = attribute
        demo["state"]["hopeless"] = annotation
        assert annotation.status == "pending"
        assert similar == []

    def test_03_register_extracts_figure3(self, demo):
        system, scientist = demo["system"], demo["scientist"]
        sample = demo["state"]["sample"]
        extracts = system.samples.batch_register_extracts(
            scientist, sample.id,
            ["scan01 a", "scan01 b", "scan02 a", "scan02 b"],
            procedure="TRIzol RNA extraction",
        )
        demo["state"]["extracts"] = extracts
        assert len(extracts) == 4

    def test_04_expert_task_appears_figure8(self, demo):
        system, expert = demo["system"], demo["expert"]
        titles = [t.title for t in system.tasks.inbox(expert)]
        assert any("Hopeless" in t for t in titles)

    def test_05_release_annotation_figure4(self, demo):
        system, expert = demo["system"], demo["expert"]
        released = system.annotations.release(
            expert, demo["state"]["hopeless"].id
        )
        assert released.status == "released"
        assert system.tasks.inbox(expert) == []

    def test_06_misspelled_duplicate_detected_figure5(self, demo):
        system = demo["system"]
        other = demo["other_scientist"]
        attribute = demo["state"]["attribute"]
        misspelled, similar = system.annotations.create_annotation(
            other, attribute.id, "Hopeles"
        )
        demo["state"]["misspelled"] = misspelled
        assert [a.value for a, _ in similar] == ["Hopeless"]
        recommendations = system.annotations.merge_recommendations(attribute.id)
        assert len(recommendations) == 1
        assert recommendations[0].merge_value == "Hopeles"

    def test_07_merge_reassociates_figure6_7(self, demo):
        system = demo["system"]
        expert, other = demo["expert"], demo["other_scientist"]
        # The other scientist annotated his sample with the misspelling.
        project = demo["project"]
        sample = system.samples.register_sample(
            other, project.id, "other sample", species="Arabidopsis Thaliana"
        )
        system.annotations.annotate(
            other, demo["state"]["misspelled"].id, "sample", sample.id
        )
        system.annotations.merge(
            expert, demo["state"]["hopeless"].id, demo["state"]["misspelled"].id
        )
        values = [
            a.value for a in system.annotations.annotations_for("sample", sample.id)
        ]
        assert values == ["Hopeless"]

    def test_08_create_workunit_from_genechip_figure9(self, demo):
        system, scientist = demo["system"], demo["scientist"]
        project = demo["project"]
        files = system.imports.browse("Affymetrix GeneChip")
        cel_files = [f.name for f in files if f.kind == "cel"]
        workunit, resources, instance = system.imports.import_files(
            scientist, project.id, "Affymetrix GeneChip", cel_files,
            workunit_name="light experiment chips", mode="copy",
        )
        demo["state"]["import_workunit"] = workunit
        demo["state"]["resources"] = resources
        assert len(resources) == 4
        assert all(r.checksum for r in resources)

    def test_09_import_workflow_highlights_assign_step_figure10(self, demo):
        system = demo["system"]
        workunit = demo["state"]["import_workunit"]
        instances = system.workflow.for_entity("workunit", workunit.id)
        assert instances[0].current_step == "assign_extracts"
        from repro.workflow.render import render_ascii

        drawing = render_ascii(
            system.workflow.definition("data_import"),
            instances[0].current_step,
        )
        assert "▶[Assign extracts]" in drawing

    def test_10_best_match_assignment_figure11(self, demo):
        system, scientist = demo["system"], demo["scientist"]
        workunit = demo["state"]["import_workunit"]
        proposals = system.imports.proposals_for(scientist, workunit.id)
        assert len(proposals) == 4
        assert all(p.score == 1.0 for p in proposals)
        # "Typically he just needs to press the save button".
        workunit = system.imports.apply_assignments(scientist, workunit.id)
        assert workunit.status == "available"

    def test_11_register_application_figure12(self, demo):
        system, scientist = demo["system"], demo["scientist"]
        application = system.applications.register_application(
            scientist,
            name="two group analysis",
            connector="rserve",
            executable="two_group_analysis",
            interface={
                "inputs": ["resource"],
                "parameters": [
                    {"name": "reference_group", "type": "text", "required": True},
                    {"name": "alpha", "type": "float", "default": 0.05},
                ],
                "output": "R report",
            },
            description="Differential expression between two groups",
        )
        demo["state"]["application"] = application
        assert application.active

    def test_12_create_experiment_definition_figure13(self, demo):
        system, scientist = demo["system"], demo["scientist"]
        experiment = system.experiments.define(
            scientist, demo["project"].id, "gene and light effect",
            application_id=demo["state"]["application"].id,
            resource_ids=[r.id for r in demo["state"]["resources"]],
            sample_ids=[demo["state"]["sample"].id],
            extract_ids=[e.id for e in demo["state"]["extracts"]],
            attributes={"species": "Arabidopsis Thaliana", "treatment": "light"},
        )
        demo["state"]["experiment"] = experiment
        assert experiment.attributes["treatment"] == "light"

    def test_13_run_experiment_pending_figure15(self, demo):
        system, scientist = demo["system"], demo["scientist"]
        workunit = system.experiments.run(
            scientist, demo["state"]["experiment"].id,
            workunit_name="two group results",
            parameters={"reference_group": "_a"},
            defer=True,
        )
        demo["state"]["run_workunit"] = workunit
        assert workunit.status == "pending"
        instances = system.workflow.for_entity("workunit", workunit.id)
        assert instances[0].current_step == "pending"

    def test_14_results_ready_figure16(self, demo):
        system, scientist = demo["system"], demo["scientist"]
        workunit = system.experiments.execute_pending(
            scientist, demo["state"]["run_workunit"].id
        )
        assert workunit.status == "available"
        payload = system.results.as_zip_bytes(scientist, workunit.id)
        with zipfile.ZipFile(io.BytesIO(payload)) as archive:
            assert "two_group_result.csv" in archive.namelist()

    def test_15_fulltext_search_over_everything(self, demo):
        system, scientist = demo["system"], demo["scientist"]
        results = system.search.quick_search(scientist, "arabidopsis")
        types = {r.entity_type for r in results}
        assert "project" in types and "sample" in types
        system.saved_queries.save(scientist, "my chips", "type:data_resource cel")
        saved = system.saved_queries.get(scientist, "my chips")
        assert system.search.search(scientist, saved.query)

    def test_16_networked_browse_and_audit(self, demo):
        system, scientist = demo["system"], demo["scientist"]
        from repro.graphview.links import ObjectRef

        graph = system.links
        run_ref = ObjectRef("workunit", demo["state"]["run_workunit"].id)
        project_ref = ObjectRef("project", demo["project"].id)
        assert graph.connected(run_ref, project_ref)
        history = system.audit.for_user(scientist.user_id)
        assert history  # the scientist can remember what he did

    def test_17_deployment_statistics_consistent(self, demo):
        system = demo["system"]
        stats = system.deployment_statistics()
        assert stats["Samples"] == system.db.count("sample")
        assert stats["Workunits"] == 2  # import + experiment result
        assert stats["Data Resources"] == 4 + 2 + 4  # imports + outputs + inputs

    def test_18_durability_of_the_whole_demo(self, demo, tmp_path):
        system = demo["system"]
        counts_before = system.deployment_statistics()
        system.db.checkpoint()
        # A new facade over the same directory recovers everything.
        revived = BFabric(system.path, clock=system.clock)
        revived.recover()
        assert revived.deployment_statistics() == counts_before
