import hashlib

import pytest

from batchfront.fileio import emit_instance
from batchfront.generate import PROFILES, SplitMix64, gen_random
from batchfront.model import Affine, Lateness, Tardiness, WeightedCompletion
from batchfront.verify import check_instance


def test_splitmix_reference_values():
    # first outputs for seed 0, from the published splitmix64 reference
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_randint_is_inclusive_and_in_range():
    rng = SplitMix64(3)
    draws = [rng.randint(2, 5) for _ in range(2000)]
    assert set(draws) == {2, 3, 4, 5}


def test_same_seed_same_instance():
    for profile in ("paper", "small", "prec"):
        assert gen_random(10, seed=1, profile=profile) == gen_random(10, seed=1, profile=profile)
    assert gen_random(10, seed=1) != gen_random(10, seed=2)


def test_paper_profile_ranges():
    inst = gen_random(50, seed=4, profile="paper")
    assert inst.capacity == max(2, 50 // 5)
    assert 1 <= inst.setup <= 10
    for job in inst.jobs:
        assert 40 <= job.p <= 60
        assert isinstance(job.cost, Lateness)
        assert 60 <= job.cost.due <= 90


def test_small_profile_ranges():
    seen_kinds = set()
    for seed in range(40):
        inst = gen_random(6, seed=seed, profile="small")
        assert 0 <= inst.setup <= 5
        assert 1 <= inst.capacity <= 5
        for job in inst.jobs:
            assert 1 <= job.p <= 9
            seen_kinds.add(type(job.cost))
    assert seen_kinds == {Lateness, Tardiness, Affine}


def test_prec_profile_is_a_dag_by_construction():
    for seed in range(30):
        inst = gen_random(7, seed=seed, profile="prec")
        assert inst.capacity is None
        for a, b in inst.precedence:
            assert a < b  # edges only run from lower to higher id


def test_capacity_override():
    assert gen_random(10, seed=1, profile="paper", capacity=4).capacity == 4
    assert gen_random(10, seed=1, profile="small", capacity=9).capacity == 9


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        gen_random(5, seed=1, profile="huge")


@pytest.mark.parametrize("profile", ["prec", "geo-prec"])
def test_unbounded_profiles_refuse_a_capacity(profile):
    # the capacity used to be dropped without a word
    with pytest.raises(ValueError, match=f"^profile '{profile}' is unbounded and takes no capacity, got 2$"):
        gen_random(3, seed=1, profile=profile, capacity=2)


# sha256 of emit_instance(gen_random(n, seed, profile, capacity)), recorded
# before the geo, staged and geo-prec profiles were added: appending a
# profile must leave every existing draw stream byte-identical
STREAM_DIGESTS = [
    ("paper", 1, 1, None, "90bda02e9d585c117c376bb66e49d9cd4d83e51c92598f41cafa87356403866d"),
    ("paper", 40, 7, None, "6f5ded257a97d9ff60a244fc369f54505a13c89f83a7e1d8a9687d43da445deb"),
    ("paper", 300, 3, None, "e0ed979a94959a756d4bfdf2ecf14c2b70ea2d58fca8077f2dd226f16ac54133"),
    ("paper", 100, 4, 7, "ee6eada6fcb185c9b42870905730ce4b08ad0635c7aecfaa7b7cbde742be336e"),
    ("small", 1, 2, None, "cb288e2b94df92e21c44f7ea30a1e3607c355282a4e65f24e8398dbffb21e95f"),
    ("small", 12, 5, None, "9d95c41a02fc0cba9f23453e15607c74c4c31b67a65bd8464422f1dbaf61fb6a"),
    ("small", 150, 9, None, "ac609ffddb99626190db8a565134ff9cdb205c5a1debc01b1063f50767093dea"),
    ("small", 60, 1, 2, "f5f8d459a501748c967db1e73c08bd44124ae31ed09da2f4f9d86d92dc879218"),
    ("prec", 1, 4, None, "cf163c5dd302f433b7f8bdcb91e8ca53fd618943fd47e6068184551ad0642698"),
    ("prec", 9, 2, None, "9759b84e3afca80fc61a96f1b1ea7c177d2bffd3a5e5beea5787309c4c069ea8"),
    ("prec", 120, 6, None, "1c765101ae60a3c23a82182b729df26b60d4668ff4db1bff908ae2b529643008"),
]


@pytest.mark.parametrize("profile, n, seed, capacity, digest", STREAM_DIGESTS)
def test_existing_profile_streams_stay_byte_identical(profile, n, seed, capacity, digest):
    text = emit_instance(gen_random(n, seed, profile, capacity=capacity))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_new_profiles_are_appended():
    assert PROFILES[:3] == ("paper", "small", "prec")
    assert set(PROFILES[3:]) == {"geo", "staged", "geo-prec"}


@pytest.mark.parametrize("profile", PROFILES)
def test_every_profile_is_a_pure_function_of_its_arguments(profile):
    for n in (1, 2, 17):
        assert emit_instance(gen_random(n, 3, profile)) == emit_instance(gen_random(n, 3, profile))


def test_geo_weights_fall_geometrically_at_capacity_two():
    inst = gen_random(30, 1, "geo")
    assert inst.capacity == 2 and inst.setup == 10 and not inst.precedence
    assert [job.cost for job in inst.jobs] == [WeightedCompletion((30 - k + 1) ** 2) for k in range(1, 31)]
    assert set(inst.p[1:]) <= {1, 2, 3}
    assert gen_random(1, 1, "geo").capacity == 1


def test_staged_due_dates_are_the_prefix_sums_of_setup_plus_p():
    inst = gen_random(25, 2, "staged")
    assert inst.capacity == 24 and inst.setup == 10
    due = 0
    for job in inst.jobs:
        due += 10 + job.p
        assert job.cost == Lateness(due)
    assert gen_random(1, 2, "staged").capacity == 1
    assert gen_random(25, 2, "staged", capacity=3).capacity == 3


def test_geo_prec_edges_are_sparse_distinct_and_point_forward():
    for n in (2, 10, 200):
        inst = gen_random(n, 4, "geo-prec")
        assert inst.capacity is None
        assert len(inst.precedence) < 2 * n
        assert len(set(inst.precedence)) == len(inst.precedence)
        assert all(1 <= a < b <= n for a, b in inst.precedence)
        assert [job.cost for job in inst.jobs] == [WeightedCompletion((n - k + 1) ** 2) for k in range(1, n + 1)]


@pytest.mark.parametrize("profile", ["geo", "staged"])
def test_bounded_step_heavy_profiles_agree_with_the_oracle(profile):
    for seed in range(1, 4):
        for n in (3, 6):
            assert check_instance(gen_random(n, seed, profile)) == []


def test_geo_prec_agrees_with_the_oracle():
    for seed in range(1, 6):
        for n in (3, 5, 7):
            assert check_instance(gen_random(n, seed, "geo-prec")) == []
