import gc
import re

import pytest

from batchfront.fileio import emit_instance, load_instance, parse_instance, save_instance
from batchfront.generate import gen_random
from batchfront.model import Instance, InstanceError, Job, StepTable, Tardiness, WeightedCompletion

MINIMAL = """
{
  "setup": 2,
  "capacity": 2,
  "jobs": [
    {"id": 1, "p": 1, "cost": {"type": "lateness", "due": 3}},
    {"id": 2, "p": 3, "cost": {"type": "lateness", "due": 20}}
  ]
}
"""


def test_parse_minimal(two_jobs):
    assert parse_instance(MINIMAL) == two_jobs


def test_round_trip_all_profiles():
    for profile, n in (("paper", 12), ("small", 7), ("prec", 7)):
        inst = gen_random(n, seed=5, profile=profile)
        assert parse_instance(emit_instance(inst)) == inst


def test_round_trip_every_cost_variant():
    inst = Instance(
        jobs=(
            Job(1, 1, Tardiness(due=4)),
            Job(2, 2, WeightedCompletion(w=3)),
            Job(3, 3, StepTable(breakpoints=((0, -1), (7, 5)))),
        ),
        setup=1,
        capacity=2,
    )
    text = emit_instance(inst)
    assert parse_instance(text) == inst
    assert emit_instance(parse_instance(text)) == text


def test_syntax_error_is_positioned():
    with pytest.raises(InstanceError, match=r"input\.json:3:1"):
        parse_instance('{\n"setup": 1,\n]', source="input.json")


def test_semantic_errors_name_the_field():
    with pytest.raises(InstanceError, match=r"jobs\[0\].*cost type"):
        parse_instance(
            '{"setup": 0, "capacity": 1, "jobs": [{"id": 1, "p": 1, "cost": {"type": "nope"}}]}'
        )
    with pytest.raises(InstanceError, match="missing key"):
        parse_instance('{"setup": 0, "jobs": []}')
    with pytest.raises(InstanceError, match="capacity"):
        parse_instance('{"setup": 0, "capacity": true, "jobs": [{"id": 1, "p": 1, "cost": {"type": "lateness", "due": 1}}]}')


def test_bounded_with_precedence_rejected():
    text = """
    {
      "setup": 1, "capacity": 1,
      "jobs": [
        {"id": 1, "p": 1, "cost": {"type": "lateness", "due": 1}},
        {"id": 2, "p": 1, "cost": {"type": "lateness", "due": 1}}
      ],
      "precedence": [[1, 2]]
    }
    """
    with pytest.raises(InstanceError, match="not supported with bounded"):
        parse_instance(text)


def test_unbounded_token_and_edges():
    text = """
    {
      "setup": 1, "capacity": "unbounded",
      "jobs": [
        {"id": 1, "p": 1, "cost": {"type": "lateness", "due": 1}},
        {"id": 2, "p": 1, "cost": {"type": "lateness", "due": 1}}
      ],
      "precedence": [[1, 2]]
    }
    """
    inst = parse_instance(text)
    assert inst.capacity is None
    assert inst.precedence == ((1, 2),)


def test_save_and_load(tmp_path):
    inst = gen_random(6, seed=9, profile="small")
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_load_error_carries_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(InstanceError, match="broken.json:1:2"):
        load_instance(path)


def _two_job_text(setup="2", capacity="2", second_id="2", second_p="3",
                  second_cost='{"type": "lateness", "due": 20}', extra=""):
    return (
        f'{{"setup": {setup}, "capacity": {capacity}, "jobs": ['
        '{"id": 1, "p": 1, "cost": {"type": "lateness", "due": 3}}, '
        f'{{"id": {second_id}, "p": {second_p}, "cost": {second_cost}}}]{extra}}}'
    )


def test_integer_fields_parse_exactly(two_jobs):
    assert parse_instance(_two_job_text()) == two_jobs


@pytest.mark.parametrize(
    "fields, location",
    [
        pytest.param({"setup": "2.9"}, "setup", id="setup-float"),
        pytest.param({"second_id": "1.7"}, r"jobs\[1\]\.id", id="id-float"),
        pytest.param({"second_p": '"3"'}, r"jobs\[1\]\.p", id="p-string"),
        pytest.param({"second_p": "true"}, r"jobs\[1\]\.p", id="p-bool"),
        pytest.param({"second_cost": '{"type": "lateness", "due": 20.0}'}, r"jobs\[1\]\.cost\.due", id="due-float"),
        pytest.param({"second_cost": '{"type": "weighted_completion", "w": false}'}, r"jobs\[1\]\.cost\.w", id="w-bool"),
        pytest.param({"second_cost": '{"type": "affine", "a": 1, "c": "-4"}'}, r"jobs\[1\]\.cost\.c", id="c-string"),
        pytest.param(
            {"second_cost": '{"type": "step", "breakpoints": [[0, 1], [5.5, 2]]}'},
            r"jobs\[1\]\.cost\.breakpoints\[1\]\[0\]",
            id="breakpoint-time-float",
        ),
        pytest.param(
            {"second_cost": '{"type": "step", "breakpoints": [[0, true]]}'},
            r"jobs\[1\]\.cost\.breakpoints\[0\]\[1\]",
            id="breakpoint-value-bool",
        ),
        pytest.param(
            {"capacity": '"unbounded"', "extra": ', "precedence": [[1, 2.0]]'}, r"precedence\[0\]", id="edge-float"
        ),
        pytest.param(
            {"capacity": '"unbounded"', "extra": ', "precedence": [["1", 2]]'}, r"precedence\[0\]", id="edge-string"
        ),
        pytest.param(
            {"capacity": '"unbounded"', "extra": ', "precedence": [[1, true]]'}, r"precedence\[0\]", id="edge-bool"
        ),
    ],
)
def test_non_integer_numbers_are_refused_with_their_location(fields, location):
    # these used to be truncated silently: 2.9 -> 2, 1.7 -> 1, "3" -> 3, true -> 1
    with pytest.raises(InstanceError, match=rf"<string>: {location}.* must be .*integer"):
        parse_instance(_two_job_text(**fields))


def test_job_construction_errors_name_the_field():
    # used to read "job 2: processing time must be >= 1, got 0", with no source or field
    with pytest.raises(InstanceError, match=r"^input\.json: jobs\[1\]\.p: .*processing time must be >= 1, got 0$"):
        parse_instance(_two_job_text(second_p="0"), source="input.json")


@pytest.mark.parametrize(
    "cost, field",
    [
        pytest.param('{"type": "lateness", "due": 5, "dew": 3}', "dew", id="lateness-typo"),
        pytest.param('{"type": "affine", "a": 1, "c": 2, "w": 3}', "w", id="affine-extra"),
        pytest.param('{"type": "step", "breakpoints": [[0, 1]], "due": 4}', "due", id="step-extra"),
    ],
)
def test_unknown_cost_fields_are_refused(cost, field):
    # these used to parse, silently dropping the field
    with pytest.raises(InstanceError, match=rf"<string>: jobs\[1\]\.cost: .*unknown fields \['{field}'\]"):
        parse_instance(_two_job_text(second_cost=cost))


@pytest.mark.parametrize(
    "second_p, fields",
    [
        pytest.param('3, "due": 5', "'due'", id="due-beside-cost"),
        pytest.param('3, "w": 1, "due": 5', "'due', 'w'", id="two-fields"),
    ],
)
def test_unknown_job_fields_are_refused(second_p, fields):
    # these used to parse, silently dropping the field
    with pytest.raises(InstanceError, match=rf"^<string>: jobs\[1\]: unknown fields \[{fields}\]$"):
        parse_instance(_two_job_text(second_p=second_p))


_ONE_JOB = '{"id": 1, "p": 1, "cost": {"type": "lateness", "due": 3}}'


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            _two_job_text(capacity="null"), 'capacity must be an integer or "unbounded", got null', id="capacity-null"
        ),
        pytest.param(
            _two_job_text(capacity="null", extra=', "precedence": [[1, 2]]'),
            'capacity must be an integer or "unbounded", got null',
            id="capacity-null-with-edges",
        ),
        pytest.param("[1, 2]", "top level must be an object", id="top-level-array"),
        pytest.param(_two_job_text(extra=', "edges": [], "b": 1'), "unknown keys ['b', 'edges']", id="unknown-keys"),
        pytest.param('{"setup": 1, "capacity": 1, "jobs": []}', '"jobs" must be a non-empty array', id="jobs-empty"),
        pytest.param('{"setup": 1, "capacity": 1, "jobs": {}}', '"jobs" must be a non-empty array', id="jobs-object"),
        pytest.param(
            f'{{"setup": 1, "capacity": 1, "jobs": [{_ONE_JOB}, 2]}}', "jobs[1]: must be an object", id="job-not-object"
        ),
        pytest.param('{"setup": 1, "capacity": 1, "jobs": [{"p": 1}]}', "jobs[0]: missing field 'id'", id="job-no-id"),
        pytest.param('{"setup": 1, "capacity": 1, "jobs": [{"id": 1}]}', "jobs[0]: missing field 'p'", id="job-no-p"),
        pytest.param(
            '{"setup": 1, "capacity": 1, "jobs": [{"id": 1, "p": 1}]}',
            'jobs[0].cost: cost must be an object with a "type" key',
            id="cost-absent",
        ),
        pytest.param(
            _two_job_text(second_cost='{"due": 20}'),
            'jobs[1].cost: cost must be an object with a "type" key',
            id="cost-untyped",
        ),
        pytest.param(
            _two_job_text(second_cost="20"), 'jobs[1].cost: cost must be an object with a "type" key', id="cost-number"
        ),
        pytest.param(
            _two_job_text(second_cost='{"type": "affine", "a": 1}'),
            "jobs[1].cost: cost type 'affine' is missing field 'c'",
            id="cost-missing-field",
        ),
        pytest.param(
            _two_job_text(capacity='"unbounded"', extra=', "precedence": {"1": 2}'),
            '"precedence" must be an array of [pred, succ] pairs',
            id="precedence-object",
        ),
    ],
)
def test_structural_errors_are_refused_with_their_location(text, message):
    # "capacity": null used to be read as unbounded, so with edges the file
    # was silently taken as a precedence instance
    with pytest.raises(InstanceError, match=rf"^{re.escape(f'<string>: {message}')}$"):
        parse_instance(text)


@pytest.fixture
def collector_state():
    """Puts the cyclic collector back the way the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "text, error",
    [
        pytest.param(_two_job_text(), None, id="success"),
        pytest.param("{ not json", r"<string>:1:3: Expecting property name", id="json-syntax"),
        pytest.param(_two_job_text(second_p='"3"'), r"jobs\[1\]\.p must be an integer", id="bad-job-field"),
        pytest.param(
            _two_job_text(capacity='"unbounded"', extra=', "precedence": [[1, 2], [2, 1]]'),
            "precedence edges contain a cycle",
            id="cyclic-edges",
        ),
    ],
)
def test_parse_leaves_the_collector_as_it_found_it(collector_state, enabled, text, error):
    # parse_instance pauses the collector; on every exit it must restore the
    # caller's state, and never switch on a collector the caller turned off
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if error is None:
        parse_instance(text)
    else:
        with pytest.raises(InstanceError, match=error):
            parse_instance(text)
    assert gc.isenabled() is enabled


def test_parse_runs_no_collection(collector_state):
    # about 6k decoded edge lists: enough allocations for several collections
    # if the collector ran during the parse
    text = emit_instance(gen_random(200, 1, "prec"))
    gc.enable()
    gc.collect()  # resets the allocation count, so reading the stats cannot trigger one
    before = gc.get_stats()
    parse_instance(text)
    after = gc.get_stats()
    assert [gen["collections"] for gen in after] == [gen["collections"] for gen in before]
    assert gc.isenabled()


@pytest.mark.parametrize("profile", ["prec", "small", "paper"])
def test_parse_leaves_no_cyclic_garbage(profile):
    # the premise of the pause: nothing a parse decodes or builds forms a
    # reference cycle, so reference counting frees all of it
    text = emit_instance(gen_random(200, 1, profile))
    gc.collect()
    instance = parse_instance(text)
    del instance
    assert gc.collect() == 0
