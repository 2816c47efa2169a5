import pytest

from batchfront.admissible import AdmissibleSlots
from batchfront.generate import SplitMix64, gen_random
from batchfront.model import Instance, InvariantError, Job, Lateness


def _inst(ps):
    return Instance(
        jobs=tuple(Job(i, p, Lateness(5)) for i, p in enumerate(ps, start=1)),
        setup=1,
        capacity=None,
    )


class TestAdmissibleSlots:
    def test_unrestricted_layout(self):
        for n in (1, 2, 3):
            inst = _inst([1] * n)
            groups = AdmissibleSlots.unrestricted(inst).groups()
            assert len(groups) == n + 1
            assert sorted(groups[n]) == list(range(1, n + 1))
            for i in range(n):
                assert groups[i] == []

    @pytest.mark.parametrize(
        "limits, message",
        [
            pytest.param([0, 1, 2], "^limits must cover job ids 1..n$", id="misses-a-job"),
            pytest.param([0, 1, 2, 3, 3], "^limits must cover job ids 1..n$", id="names-job-n-plus-1"),
            pytest.param([0, 1, 0, 3], "^job 2: group index 0 out of range$", id="index-0"),
            pytest.param([0, 1, 2, 4], "^job 3: group index 4 out of range$", id="index-n-plus-1"),
            pytest.param([0, 1.0, 2, 3], "^job 1: group index must be an integer, got 1.0$", id="float"),
            pytest.param([0, 1, True, 3], "^job 2: group index must be an integer, got true$", id="bool"),
            pytest.param([0, 1, 2, "3"], '^job 3: group index must be an integer, got "3"$', id="string"),
        ],
    )
    def test_limits_must_name_every_job_once_with_an_index_in_range(self, limits, message):
        with pytest.raises(ValueError, match=message):
            AdmissibleSlots(_inst([1, 2, 3]), limits)

    def test_move_goes_strictly_left_and_counts(self):
        inst = _inst([1, 2, 3])
        slots = AdmissibleSlots.unrestricted(inst)
        slots.move(1, 1)
        assert slots.table[1] == 1
        assert slots.relocations == 1
        with pytest.raises(InvariantError):
            slots.move(2, 3)  # same index
        with pytest.raises(InvariantError):
            slots.move(1, 2)  # rightward
        slots.move(2, 2)
        slots.move(2, 1)
        assert slots.relocations == 3

    def test_partition_preserved_under_random_moves(self):
        rng = SplitMix64(5)
        inst = gen_random(8, seed=1, profile="small")
        slots = AdmissibleSlots.unrestricted(inst)
        moves = 0
        while True:
            movable = [j for j in range(1, 9) if slots.table[j] > 1]
            if not movable:
                break
            j = movable[rng.randint(0, len(movable) - 1)]
            slots.move(j, rng.randint(1, slots.table[j] - 1))
            moves += 1
            groups = slots.groups()
            assert groups[0] == []
            for i in range(1, 9):
                assert groups[i] == sorted((j2 for j2 in range(1, 9) if slots.table[j2] == i), key=inst.keys.__getitem__)
        assert moves == slots.relocations <= 8 * 7

    def test_copy_is_independent(self):
        inst = _inst([1, 2, 3])
        slots = AdmissibleSlots.unrestricted(inst)
        clone = slots.copy()
        slots.move(3, 1)
        assert clone.table[3] == 3
        assert clone.relocations == 0
        assert clone.groups() == [[], [], [], [1, 2, 3]]
        assert slots.groups() == [[], [3], [], [1, 2]]

    def test_dump_format(self):
        inst = _inst([4, 9])
        slots = AdmissibleSlots(inst, [0, 1, 2])
        assert slots.dump() == "1: [1(4)]\n2: [2(9)]"
