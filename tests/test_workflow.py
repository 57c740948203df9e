"""Workflow engine: definition validation, stepping, autos, rendering."""

import datetime as dt

import pytest

from repro.errors import (
    InvalidActionError,
    StateError,
    WorkflowConditionFailed,
    WorkflowDefinitionError,
)
from repro.facade import BFabric
from repro.util.clock import ManualClock
from repro.workflow import (
    END,
    Action,
    Step,
    WorkflowDefinition,
    render_ascii,
    render_dot,
)


@pytest.fixture
def system():
    return BFabric(clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))


@pytest.fixture
def admin(system):
    return system.bootstrap()


def linear_definition(name="linear"):
    return WorkflowDefinition(
        name,
        steps=[
            Step("draft", actions=(Action("submit", target="review"),)),
            Step(
                "review",
                actions=(
                    Action("approve", target=END),
                    Action("return", target="draft"),
                ),
            ),
        ],
    )


class TestDefinitionValidation:
    def test_no_steps(self):
        with pytest.raises(WorkflowDefinitionError):
            WorkflowDefinition("empty", steps=[])

    def test_duplicate_steps(self):
        with pytest.raises(WorkflowDefinitionError):
            WorkflowDefinition(
                "dup",
                steps=[Step("a", actions=()), Step("a", actions=())],
            )

    def test_unknown_action_target(self):
        with pytest.raises(WorkflowDefinitionError):
            WorkflowDefinition(
                "bad",
                steps=[Step("a", actions=(Action("go", target="nowhere"),))],
            )

    def test_unreachable_step(self):
        with pytest.raises(WorkflowDefinitionError):
            WorkflowDefinition(
                "unreachable",
                steps=[
                    Step("a", actions=(Action("end", target=END),)),
                    Step("island", actions=()),
                ],
            )

    def test_never_completes(self):
        with pytest.raises(WorkflowDefinitionError):
            WorkflowDefinition(
                "spin",
                steps=[
                    Step("a", actions=(Action("go", target="b"),)),
                    Step("b", actions=(Action("back", target="a"),)),
                ],
            )

    def test_duplicate_actions_in_step(self):
        with pytest.raises(WorkflowDefinitionError):
            WorkflowDefinition(
                "dupact",
                steps=[
                    Step(
                        "a",
                        actions=(
                            Action("go", target=END),
                            Action("go", target=END),
                        ),
                    )
                ],
            )

    def test_step_may_not_be_named_end(self):
        with pytest.raises(WorkflowDefinitionError):
            WorkflowDefinition("bad", steps=[Step(END, actions=())])

    def test_valid_definition_introspection(self):
        definition = linear_definition()
        assert definition.initial_step == "draft"
        assert set(definition.step_names()) == {"draft", "review"}
        assert ("review", "approve", END) in definition.edges()


class TestEngineStepping:
    def test_start_and_fire_to_completion(self, system, admin):
        system.workflow.register_definition(linear_definition())
        instance = system.workflow.start(admin, "linear")
        assert instance.current_step == "draft"
        assert system.workflow.available_actions(instance.id) == ["submit"]
        instance = system.workflow.fire(admin, instance.id, "submit")
        assert instance.current_step == "review"
        instance = system.workflow.fire(admin, instance.id, "approve")
        assert instance.status == "completed"

    def test_loop_back(self, system, admin):
        system.workflow.register_definition(linear_definition())
        instance = system.workflow.start(admin, "linear")
        system.workflow.fire(admin, instance.id, "submit")
        instance = system.workflow.fire(admin, instance.id, "return")
        assert instance.current_step == "draft"
        assert instance.status == "active"

    def test_invalid_action(self, system, admin):
        system.workflow.register_definition(linear_definition())
        instance = system.workflow.start(admin, "linear")
        with pytest.raises(InvalidActionError) as excinfo:
            system.workflow.fire(admin, instance.id, "approve")
        assert "submit" in excinfo.value.available

    def test_fire_on_completed_instance(self, system, admin):
        system.workflow.register_definition(linear_definition())
        instance = system.workflow.start(admin, "linear")
        system.workflow.fire(admin, instance.id, "submit")
        system.workflow.fire(admin, instance.id, "approve")
        with pytest.raises(StateError):
            system.workflow.fire(admin, instance.id, "submit")

    def test_duplicate_definition_rejected(self, system):
        system.workflow.register_definition(linear_definition())
        with pytest.raises(WorkflowDefinitionError):
            system.workflow.register_definition(linear_definition())

    def test_unknown_definition(self, system, admin):
        with pytest.raises(WorkflowDefinitionError):
            system.workflow.start(admin, "ghost")

    def test_history_records_transitions(self, system, admin):
        system.workflow.register_definition(linear_definition())
        instance = system.workflow.start(admin, "linear")
        system.workflow.fire(admin, instance.id, "submit")
        system.workflow.fire(admin, instance.id, "approve")
        history = system.workflow.history(instance.id)
        assert [(e.action, e.from_step, e.to_step) for e in history] == [
            ("submit", "draft", "review"),
            ("approve", "review", END),
        ]

    def test_for_entity(self, system, admin):
        system.workflow.register_definition(linear_definition())
        system.workflow.start(admin, "linear", entity_type="thing", entity_id=5)
        system.workflow.start(admin, "linear", entity_type="thing", entity_id=5)
        assert len(system.workflow.for_entity("thing", 5)) == 2

    def test_cancel(self, system, admin):
        system.workflow.register_definition(linear_definition())
        instance = system.workflow.start(admin, "linear")
        cancelled = system.workflow.cancel(admin, instance.id)
        assert cancelled.status == "cancelled"
        assert system.workflow.available_actions(instance.id) == []

    def test_fail_records_reason(self, system, admin):
        system.workflow.register_definition(linear_definition())
        instance = system.workflow.start(admin, "linear")
        failed = system.workflow.fail(admin, instance.id, "connector crashed")
        assert failed.status == "failed"
        assert failed.context["failure_reason"] == "connector crashed"


class TestConditionsAndFunctions:
    def test_guard_blocks_until_context_satisfies(self, system, admin):
        definition = WorkflowDefinition(
            "guarded",
            steps=[
                Step(
                    "wait",
                    actions=(
                        Action(
                            "proceed",
                            target=END,
                            condition=lambda ctx: ctx.get("ready", False),
                        ),
                    ),
                ),
            ],
        )
        system.workflow.register_definition(definition)
        instance = system.workflow.start(admin, "guarded")
        assert system.workflow.available_actions(instance.id) == []
        with pytest.raises(WorkflowConditionFailed):
            system.workflow.fire(admin, instance.id, "proceed")
        # Context updates delivered with fire() are evaluated by the guard.
        instance = system.workflow.fire(admin, instance.id, "proceed", ready=True)
        assert instance.status == "completed"

    def test_pre_function_failure_fails_instance_after_retries(
        self, system, admin
    ):
        from repro.errors import WorkflowTransitionFailed

        calls = []
        broken = [True]

        def explode(ctx):
            calls.append(1)
            if broken[0]:
                raise RuntimeError("pre failed")

        definition = WorkflowDefinition(
            "prefail",
            steps=[
                Step(
                    "a",
                    actions=(
                        Action("go", target=END, pre_functions=(explode,)),
                    ),
                ),
            ],
        )
        system.workflow.register_definition(definition)
        instance = system.workflow.start(admin, "prefail")
        with pytest.raises(WorkflowTransitionFailed) as excinfo:
            system.workflow.fire(admin, instance.id, "go")
        # The engine retried (default policy: 3 attempts) before moving
        # the instance to the terminal failed state with the error chain.
        assert len(calls) == 3
        assert len(excinfo.value.attempts) == 3
        failed = system.workflow.get(instance.id)
        assert failed.status == "failed"
        assert failed.current_step == "a"
        assert failed.context["error_chain"] == excinfo.value.attempts
        assert "pre failed" in failed.context["failure_reason"]
        # The retries ran in the shared resilient() loop.
        metrics = system.obs.metrics
        site = {"site": "workflow.transition"}
        assert metrics.get("resilience_retries_total").labels(**site).value == 2
        assert metrics.get("resilience_gave_up_total").labels(**site).value == 1
        # An operator retry clears the error chain and resumes.
        broken[0] = False
        resumed = system.workflow.retry(admin, instance.id)
        assert resumed.status == "active"
        assert "error_chain" not in resumed.context
        assert "failure_reason" not in resumed.context

    def test_post_function_mutates_context(self, system, admin):
        def stamp(ctx):
            ctx["stamped"] = True

        definition = WorkflowDefinition(
            "post",
            steps=[
                Step(
                    "a",
                    actions=(
                        Action("go", target="b", post_functions=(stamp,)),
                    ),
                ),
                Step("b", actions=()),
            ],
        )
        system.workflow.register_definition(definition)
        instance = system.workflow.start(admin, "post")
        instance = system.workflow.fire(admin, instance.id, "go")
        assert instance.context["stamped"] is True
        assert instance.status == "completed"  # terminal step

    @pytest.mark.parametrize("post, writes", [
        ((), 1),
        ((lambda ctx: ctx.get("missing"),), 1),
        ((lambda ctx: ctx.update(n=True),), 2),  # 1 -> True is a change
    ])
    def test_context_is_rewritten_only_when_a_post_function_changed_it(
        self, system, admin, post, writes
    ):
        definition = WorkflowDefinition(
            "quiet",
            steps=[
                Step("a", actions=(Action("go", target="b", post_functions=post),)),
                Step("b", actions=(Action("finish", target=END),)),
            ],
        )
        system.workflow.register_definition(definition)
        instance = system.workflow.start(admin, "quiet", context={"n": 1})
        updates = []
        system.db.on_commit(lambda event: updates.extend(
            op for op in event.ops
            if op.table == "workflow_instance" and op.op == "update"
        ))
        fired = system.workflow.fire(admin, instance.id, "go")
        assert len(updates) == writes
        assert fired.context == system.workflow.get(instance.id).context
        assert fired.context["n"] is (True if writes == 2 else 1)

    def test_auto_actions_chain(self, system, admin):
        definition = WorkflowDefinition(
            "autos",
            steps=[
                Step("a", actions=(Action("go", target="b", auto=True),)),
                Step("b", actions=(Action("go", target="c", auto=True),)),
                Step("c", actions=(Action("manual", target=END),)),
            ],
        )
        system.workflow.register_definition(definition)
        instance = system.workflow.start(admin, "autos")
        assert instance.current_step == "c"

    def test_guarded_auto_waits(self, system, admin):
        definition = WorkflowDefinition(
            "guarded_auto",
            steps=[
                Step(
                    "a",
                    actions=(
                        Action(
                            "go",
                            target=END,
                            auto=True,
                            condition=lambda ctx: ctx.get("ok", False),
                        ),
                        Action("nudge", target="a"),
                    ),
                ),
            ],
        )
        system.workflow.register_definition(definition)
        instance = system.workflow.start(admin, "guarded_auto")
        assert instance.status == "active"
        instance = system.workflow.fire(admin, instance.id, "nudge", ok=True)
        assert instance.status == "completed"


class TestRendering:
    def test_ascii_highlights_current_step(self):
        definition = linear_definition()
        drawing = render_ascii(definition, "review")
        assert "▶[review]" in drawing
        assert "--approve--> END" in drawing

    def test_ascii_marks_guards_and_autos(self, system):
        definition = WorkflowDefinition(
            "marks",
            steps=[
                Step(
                    "a",
                    actions=(
                        Action(
                            "go", target=END, auto=True,
                            condition=lambda ctx: True,
                        ),
                    ),
                ),
            ],
        )
        drawing = render_ascii(definition)
        assert "(guarded)" in drawing
        assert "(auto)" in drawing

    def test_dot_output_shape(self):
        definition = linear_definition()
        dot = render_dot(definition, "draft")
        assert dot.startswith('digraph "linear"')
        assert '"draft" -> "review" [label="submit"]' in dot
        assert "fillcolor" in dot  # highlighting
        assert '"review" -> "__end__"' in dot
