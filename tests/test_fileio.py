import dataclasses
import gc
import re

import pytest

from batchfront import fileio, model
from batchfront.fileio import emit_instance, load_instance, parse_instance, save_instance
from batchfront.generate import PROFILES, gen_random
from batchfront.model import Instance, InstanceError, Job, Lateness, StepTable, Tardiness, WeightedCompletion

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
    for profile in PROFILES:
        for n, capacity in ((7, None), (12, None), (12, 3)):
            if capacity and profile in ("prec", "geo-prec"):
                continue  # precedence instances are unbounded
            inst = gen_random(n, seed=5, profile=profile, capacity=capacity)
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
_TWO_JOB = '{"id": 2, "p": 1, "cost": {"type": "affine", "a": 1, "c": 0}}'


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
        pytest.param(
            f'{{"setup": 1, "capacity": 1, "jobs": [{_ONE_JOB}, [2, 3, {{"type": "lateness", "due": 20}}]]}}',
            "jobs[1]: must be an object",
            id="job-array",
        ),
        pytest.param(
            _two_job_text(second_cost='{"type": ["lateness"], "due": 20}'),
            "jobs[1].cost: unknown cost type ['lateness'], expected one of "
            "('lateness', 'tardiness', 'weighted_completion', 'affine', 'step')",
            id="cost-type-unhashable",
        ),
        pytest.param(
            _two_job_text(second_cost='{"type": null, "due": 20}'),
            "jobs[1].cost: unknown cost type None, expected one of "
            "('lateness', 'tardiness', 'weighted_completion', 'affine', 'step')",
            id="cost-type-null",
        ),
        pytest.param(
            _two_job_text(second_cost='null, "due": 20'), "jobs[1]: unknown fields ['due']", id="cost-null-beside-a-key"
        ),
        pytest.param(
            f'{{"setup": 1, "capacity": 3, "jobs": [{_ONE_JOB}, {_TWO_JOB}, '
            '{"id": 3, "p": 0, "cost": {"type": "tardiness", "due": 4}}]}',
            "jobs[2].p: job 3: processing time must be >= 1, got 0",
            id="last-job-constructor",
        ),
        pytest.param(
            f'{{"setup": 1, "capacity": 3, "jobs": [{_ONE_JOB}, {_TWO_JOB}, '
            '{"id": 3, "p": 2, "cost": {"type": "step", "breakpoints": [[0, 5], [0, 6]]}}]}',
            "jobs[2].cost.breakpoints: step cost breakpoint times must be strictly increasing",
            id="last-cost-constructor",
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


def _cost_pair_text(first_cost, second_cost, second_p="1"):
    """Two jobs, the first of which holds ``first_cost``: a well-formed cost
    the decoder meets before the second row."""
    return (
        '{"setup": 1, "capacity": 2, "jobs": ['
        f'{{"id": 1, "p": 1, "cost": {first_cost}}}, {{"id": 2, "p": {second_p}, "cost": {second_cost}}}]}}'
    )


_NOT_EXACT = [("true", "true"), ("1.0", "1.0"), ('"1"', '"1"')]


@pytest.mark.parametrize("value, shown", _NOT_EXACT, ids=["bool", "float", "string"])
@pytest.mark.parametrize(
    "kind, first, second, field",
    [
        ("lateness", '"due": 1', '"due": {}', "due"),
        ("tardiness", '"due": 1', '"due": {}', "due"),
        ("weighted_completion", '"w": 1', '"w": {}', "w"),
        ("affine", '"a": 1, "c": 1', '"a": {}, "c": 1', "a"),
        ("affine", '"a": 1, "c": 1', '"a": 1, "c": {}', "c"),
    ],
    ids=["lateness-due", "tardiness-due", "weighted-w", "affine-a", "affine-c"],
)
def test_a_value_equal_to_an_earlier_rows_integer_field_is_still_refused(kind, first, second, field, value, shown):
    # true == 1.0 == 1 and they hash alike, so a decoder that reused an
    # equal earlier spec would hand the second row the first row's spec
    text = _cost_pair_text(
        f'{{"type": "{kind}", {first}}}', f'{{"type": "{kind}", {second.format(value)}}}'
    )
    message = f"<string>: jobs[1].cost.{field} must be an integer, got {shown}"
    with pytest.raises(InstanceError, match=rf"^{re.escape(message)}$"):
        parse_instance(text)


@pytest.mark.parametrize(
    "first, second, second_p, message",
    [
        pytest.param(
            '{"type": "weighted_completion", "w": 1}',
            '{"type": "weighted_completion", "w": -1}',
            "1",
            "jobs[1].cost.w: weighted_completion weight must be >= 0, got -1",
            id="w",
        ),
        pytest.param(
            '{"type": "affine", "a": 1, "c": 2}',
            '{"type": "affine", "a": -1, "c": 2}',
            "1",
            "jobs[1].cost.a: affine slope must be >= 0, got -1",
            id="a",
        ),
        pytest.param(
            '{"type": "lateness", "due": 1}',
            '{"type": "lateness", "due": 1}',
            "0",
            "jobs[1].p: job 2: processing time must be >= 1, got 0",
            id="p-beside-an-equal-cost",
        ),
    ],
)
def test_a_constructor_error_after_an_equal_well_formed_row_is_refused_with_its_location(first, second, second_p, message):
    with pytest.raises(InstanceError, match=rf"^{re.escape(f'<string>: {message}')}$"):
        parse_instance(_cost_pair_text(first, second, second_p))


def test_rows_with_equal_costs_decode_to_the_jobs_their_constructors_build():
    text = (
        '{"setup": 1, "capacity": 2, "jobs": ['
        '{"id": 1, "p": 1, "cost": {"type": "lateness", "due": 7}}, '
        '{"id": 2, "p": 2, "cost": {"type": "lateness", "due": 7}}, '
        '{"id": 3, "p": 3, "cost": {"type": "tardiness", "due": 7}}, '
        '{"id": 4, "p": 4, "cost": {"type": "step", "breakpoints": [[0, 1], [5, 2]]}}, '
        '{"id": 5, "p": 5, "cost": {"type": "step", "breakpoints": [[0, 1], [5, 2]]}}]}'
    )
    jobs = parse_instance(text).jobs
    assert jobs == (
        Job(1, 1, Lateness(7)),
        Job(2, 2, Lateness(7)),
        Job(3, 3, Tardiness(7)),
        Job(4, 4, StepTable(((0, 1), (5, 2)))),
        Job(5, 5, StepTable(((0, 1), (5, 2)))),
    )


def test_decoded_jobs_equal_hash_and_repr_as_constructed_ones_and_stay_frozen():
    inst = gen_random(30, 4, "small", capacity=3)
    decoded = parse_instance(emit_instance(inst)).jobs
    assert decoded == inst.jobs
    assert [hash(job) for job in decoded] == [hash(job) for job in inst.jobs]
    assert [repr(job) for job in decoded] == [repr(job) for job in inst.jobs]
    job = decoded[0]
    for name in ("id", "p", "cost"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(job, name, 2)
    assert dataclasses.replace(job, p=job.p + 1) == Job(job.id, job.p + 1, job.cost)


def _module_state():
    """The size of every container held at module level by the parser and
    the model."""
    return {
        (module.__name__, name): len(value)
        for module in (fileio, model)
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set, tuple)) and not name.startswith("__")
    }


def test_each_parse_has_its_own_specs_and_leaves_nothing_at_module_level():
    text = emit_instance(gen_random(40, 2, "paper"))
    before = _module_state()
    first, second = parse_instance(text), parse_instance(text)
    assert first == second
    shared = {id(job.cost) for job in first.jobs} & {id(job.cost) for job in second.jobs}
    assert not shared
    assert _module_state() == before
