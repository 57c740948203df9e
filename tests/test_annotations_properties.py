"""Property-based tests for annotation-merge invariants.

Whatever sequence of creates, annotates, releases and merges happens,
the system must preserve:

* every annotated object resolves to live (non-merged) values only;
* merge redirects form a forest (resolving always terminates at a live
  annotation);
* no object carries duplicate links to the same annotation;
* the total number of linked objects never changes due to a merge
  (links move or collapse, never vanish into dangling state).
"""

import datetime as dt

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import BFabricError
from repro.facade import BFabric
from repro.util.clock import ManualClock

VALUES = ["hopeless", "hopeles", "hoopless", "healthy", "healty", "diabetic"]


class AnnotationMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.system = BFabric(clock=ManualClock(dt.datetime(2010, 1, 15)))
        admin = self.system.bootstrap()
        self.scientist = self.system.add_user(
            admin, login="sci", full_name="Sci"
        )
        self.expert = self.system.add_user(
            admin, login="exp", full_name="Exp", role="employee"
        )
        self.attribute = self.system.annotations.define_attribute(
            self.expert, "State"
        )
        project = self.system.projects.create(self.scientist, "P")
        self.samples = [
            self.system.samples.register_sample(
                self.scientist, project.id, f"s{i}"
            )
            for i in range(4)
        ]
        self.annotation_ids: list[int] = []

    @rule(value=st.sampled_from(VALUES))
    def create(self, value):
        try:
            annotation, _ = self.system.annotations.create_annotation(
                self.scientist, self.attribute.id, value
            )
            self.annotation_ids.append(annotation.id)
        except BFabricError:
            pass  # duplicate value

    @rule(data=st.data())
    def annotate(self, data):
        if not self.annotation_ids:
            return
        annotation_id = data.draw(st.sampled_from(self.annotation_ids))
        sample = data.draw(st.sampled_from(self.samples))
        try:
            self.system.annotations.annotate(
                self.scientist, annotation_id, "sample", sample.id
            )
        except BFabricError:
            pass  # merged/rejected target

    @rule(data=st.data())
    def release(self, data):
        if not self.annotation_ids:
            return
        annotation_id = data.draw(st.sampled_from(self.annotation_ids))
        try:
            self.system.annotations.release(self.expert, annotation_id)
        except BFabricError:
            pass

    @rule(data=st.data())
    def merge(self, data):
        if len(self.annotation_ids) < 2:
            return
        keep = data.draw(st.sampled_from(self.annotation_ids))
        merge = data.draw(st.sampled_from(self.annotation_ids))
        try:
            self.system.annotations.merge(self.expert, keep, merge)
        except BFabricError:
            pass  # self-merge, double merge, etc.

    # -- invariants ----------------------------------------------------------

    @invariant()
    def links_point_at_live_annotations(self):
        for row in self.system.db.rows("annotation_link"):
            annotation = self.system.db.get("annotation", row["annotation_id"])
            assert annotation["status"] in ("pending", "released"), (
                f"link {row['id']} points at {annotation['status']} annotation"
            )

    @invariant()
    def resolve_terminates_at_live(self):
        for annotation_id in self.annotation_ids:
            resolved = self.system.annotations.resolve(annotation_id)
            assert resolved.status in ("pending", "released", "rejected")

    @invariant()
    def no_duplicate_links(self):
        seen = set()
        for row in self.system.db.rows("annotation_link"):
            key = (row["annotation_id"], row["entity_type"], row["entity_id"])
            assert key not in seen
            seen.add(key)

    @invariant()
    def storage_integrity(self):
        assert self.system.db.verify_integrity() == []


AnnotationMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
TestAnnotationStateMachine = AnnotationMachine.TestCase


@given(
    values=st.lists(st.sampled_from(VALUES), min_size=2, max_size=6, unique=True)
)
@settings(max_examples=20, deadline=None)
def test_merging_everything_into_one_keeps_all_links(values):
    """Chain-merge N values into the first: every link lands there."""
    system = BFabric(clock=ManualClock(dt.datetime(2010, 1, 15)))
    admin = system.bootstrap()
    scientist = system.add_user(admin, login="sci", full_name="Sci")
    expert = system.add_user(admin, login="exp", full_name="Exp", role="employee")
    attribute = system.annotations.define_attribute(expert, "State")
    project = system.projects.create(scientist, "P")

    annotations = []
    for i, value in enumerate(values):
        annotation, _ = system.annotations.create_annotation(
            scientist, attribute.id, value
        )
        sample = system.samples.register_sample(scientist, project.id, f"s{i}")
        system.annotations.annotate(scientist, annotation.id, "sample", sample.id)
        annotations.append(annotation)

    survivor = annotations[0]
    for other in annotations[1:]:
        system.annotations.merge(expert, survivor.id, other.id)

    assert len(system.annotations.entities_for(survivor.id)) == len(values)
    for annotation in annotations[1:]:
        assert system.annotations.resolve(annotation.id).id == survivor.id
