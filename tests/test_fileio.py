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
