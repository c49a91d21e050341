import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import crossdock.generators as generators
from crossdock import (
    MAX_OPS,
    classify,
    degree_profile,
    gen_d2,
    gen_random,
    gen_tight,
    serialize_instance,
    TightParams,
)
from oracles import gen_d2_by_sample


def test_gen_random_p_zero():
    assert gen_random(5, 4, 0.0, seed=1).arcs == frozenset()


def test_gen_random_p_one():
    inst = gen_random(3, 4, 1.0, seed=1)
    assert len(inst.arcs) == 12


def test_gen_random_deterministic():
    a = gen_random(5, 5, 0.5, seed=7)
    b = gen_random(5, 5, 0.5, seed=7)
    assert serialize_instance(a) == serialize_instance(b)
    assert gen_random(5, 5, 0.5, seed=8) != a  # different seed, different draw


def test_gen_random_rejects_bad_sizes():
    with pytest.raises(ValueError):
        gen_random(0, 3, 0.5, seed=1)
    # Random(None) would seed from the OS: a different instance every call.
    with pytest.raises(ValueError, match="seed must be an integer, got None"):
        gen_random(3, 3, 0.5, None)
    with pytest.raises(ValueError, match="seed must be an integer, got True"):
        gen_random(3, 3, 0.5, True)
    with pytest.raises(ValueError, match="n must be an integer, got 3.0"):
        gen_random(3.0, 3, 0.5, seed=1)
    with pytest.raises(ValueError, match="m must be an integer, got '3'"):
        gen_random(3, "3", 0.5, seed=1)
    with pytest.raises(ValueError, match=f"n must be at most {MAX_OPS}, got {MAX_OPS + 1}"):
        gen_random(MAX_OPS + 1, 1, 0.0, seed=1)
    with pytest.raises(ValueError, match=f"m must be at most {MAX_OPS}, got {MAX_OPS + 1}"):
        gen_random(1, MAX_OPS + 1, 0.5, seed=1)


def test_generators_reject_negative_seeds():
    # Random(-s) draws what Random(s) does, so a negative seed would
    # silently stand for its absolute value.
    with pytest.raises(ValueError, match="seed must be non-negative, got -7"):
        gen_random(5, 5, 0.5, -7)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        gen_d2(3, 4, 0, -1)
    assert gen_random(5, 5, 0.5, 0) != gen_random(5, 5, 0.5, 1)


@pytest.mark.parametrize("p", [float("nan"), -0.1, 1.5, float("inf"), "0.5", None, True])
def test_gen_random_rejects_bad_p(p):
    with pytest.raises(ValueError, match="p must be a real number in \\[0, 1\\]"):
        gen_random(3, 3, p, seed=1)


def test_gen_d2_is_d2():
    for seed in range(30):
        inst = gen_d2(a_count=1 + seed % 6, b_count=3 + seed % 5, pendant_count=seed % 2, seed=seed)
        assert classify(inst).is_d2


def test_gen_d2_forced_smallest():
    inst = gen_d2(a_count=1, b_count=2, pendant_count=0, seed=99)
    assert inst.arcs == frozenset({(1, 1), (1, 2)})


def test_gen_d2_degree_sum():
    inst = gen_d2(a_count=6, b_count=7, pendant_count=2, seed=3)
    prof = degree_profile(inst)
    assert sum(prof.in_deg) == 12
    # the excluded B-operations really are pendant
    assert prof.in_deg[5] == 0 and prof.in_deg[6] == 0


def test_gen_d2_deterministic():
    assert gen_d2(6, 7, 2, seed=5) == gen_d2(6, 7, 2, seed=5)


def test_gen_d2_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_d2(a_count=2, b_count=3, pendant_count=2, seed=1)
    for a_count, b_count in ((0, 5), (3, 0)):
        with pytest.raises(ValueError, match="counts must be positive"):
            gen_d2(a_count, b_count, 0, 1)
    with pytest.raises(ValueError, match="a_count must be an integer, got True"):
        gen_d2(True, 3, 0, 1)
    with pytest.raises(ValueError, match="b_count must be an integer, got 3.0"):
        gen_d2(2, 3.0, 0, 1)
    with pytest.raises(ValueError, match="pendant_count must be an integer, got None"):
        gen_d2(2, 3, None, 1)
    with pytest.raises(ValueError, match="seed must be an integer, got None"):
        gen_d2(2, 3, 0, None)
    with pytest.raises(ValueError, match=f"a_count must be at most {MAX_OPS}, got {MAX_OPS + 1}"):
        gen_d2(MAX_OPS + 1, 3, 0, 1)
    with pytest.raises(ValueError, match=f"b_count must be at most {MAX_OPS}, got {MAX_OPS + 1}"):
        gen_d2(2, MAX_OPS + 1, 0, 1)


ORACLE_SEEDS = (0, 1, 2**40, 2**70 + 3)


@pytest.mark.parametrize("pendants", [0, 3])
def test_gen_d2_draws_as_sample_on_every_small_pool(pendants):
    # pools of 2 to 79 cross sample's switch from its list to its set
    # branch between 21 and 22
    for size in range(2, 80):
        for seed in ORACLE_SEEDS:
            args = (30, size + pendants, pendants, seed)
            assert gen_d2(*args) == gen_d2_by_sample(*args), args


@pytest.mark.parametrize("k", range(2, 21))
def test_gen_d2_draws_as_sample_around_powers_of_two(k):
    # a pool just above a power of two rejects almost half its draws
    for size in (2**k - 1, 2**k, 2**k + 1):
        for pendants in (0, 5):
            for seed in ORACLE_SEEDS:
                args = (40, size + pendants, pendants, seed)
                assert gen_d2(*args) == gen_d2_by_sample(*args), args


@st.composite
def gen_d2_args(draw):
    b = draw(st.integers(2, 300))
    pendants = draw(st.integers(0, b - 2))
    return draw(st.integers(1, 80)), b, pendants, draw(st.integers(0, 2**80))


@given(gen_d2_args())
def test_gen_d2_draws_as_sample(args):
    assert gen_d2(*args) == gen_d2_by_sample(*args)


def test_tight_params_validation():
    with pytest.raises(ValueError):
        TightParams(k=2, l=3, s=3)  # k < l
    with pytest.raises(ValueError):
        TightParams(k=3, l=2, s=2)  # s < 3
    with pytest.raises(ValueError):
        TightParams(k=3, l=0, s=3)
    with pytest.raises(ValueError, match="l must be an integer, got 2.5"):
        TightParams(3, 2.5, 3)
    with pytest.raises(ValueError, match="k must be an integer, got True"):
        TightParams(True, 1, 3)
    with pytest.raises(ValueError, match="s must be an integer, got None"):
        TightParams(3, 2, None)
    with pytest.raises(ValueError, match=f"n = k\\+l\\+s must be at most {MAX_OPS}, got {MAX_OPS + 1}"):
        TightParams(3, 3, MAX_OPS - 5)
    with pytest.raises(ValueError, match=f"m = 2k\\+s must be at most {MAX_OPS}, got {MAX_OPS + 2}"):
        TightParams(MAX_OPS // 2 - 1, 1, 4)
    assert TightParams(3, 3, MAX_OPS - 6).s == MAX_OPS - 6  # n = m = MAX_OPS itself


def test_generators_refuse_max_ops_before_drawing(monkeypatch):
    def no_draw(seed):
        raise AssertionError("a generator drew before refusing its sizes")

    monkeypatch.setattr(generators.random, "Random", no_draw)
    for call in (
        lambda: gen_random(MAX_OPS + 1, 1, 0.0, 1),
        lambda: gen_random(1, MAX_OPS + 1, 1.0, 1),
        lambda: gen_d2(MAX_OPS + 1, 2, 0, 1),
        lambda: gen_d2(1, MAX_OPS + 1, 0, 1),
    ):
        with pytest.raises(ValueError, match=f"must be at most {MAX_OPS}"):
            call()


def test_gen_tight_shape_and_degrees():
    k, l, s = 3, 2, 3
    tf = gen_tight(TightParams(k, l, s))
    assert tf.n == k + l + s and tf.m == 2 * k + s
    assert len(tf.arcs) == l * s + 2 * k + s == 15
    prof = degree_profile(tf)
    assert prof.out_deg == (2,) * k + (s,) * l + (1,) * s
    assert prof.in_deg == (1,) * (2 * k) + (l + 1,) * s


def test_gen_tight_certificate_small():
    from crossdock import compute_q, makespan, solve_exact, solve_greedy, bounds_report
    from fractions import Fraction

    for k, l, s in [(3, 2, 3), (3, 3, 3)]:
        tf = gen_tight(TightParams(k, l, s))
        if tf.n <= 9:
            assert solve_exact(tf).optimal_makespan == 2 * k + s + 1
        assert makespan(solve_greedy(tf)) == 2 * k + s + l + 1
        assert compute_q(tf) == l + 1
        rep = bounds_report(tf)
        assert Fraction(2 * k + s + l + 1, 2 * k + s + 1) == rep.ratio_bound


def _golden_cases():
    """(generator, parameters, seed) triples with the comments each is
    serialized with.  Edge cases: p = 0 and p = 1 (as floats and ints), a
    Fraction p, n = m = 1, m > 256, d2 pools of 2 and of more than 21
    (``Random.sample`` moves the pool's last entry into its first pick's
    place up to 21, and above that redraws the second pick while it
    repeats the first), pendants, huge seeds, and ``gen_tight`` with
    comments."""
    for n, m in ((1, 1), (1, 7), (7, 1), (4, 5), (9, 12), (3, 300), (2, 600)):
        for p in (0.0, 1.0, 0, 1, 0.5, 0.1, 0.9, Fraction(1, 3)):
            for seed in (0, 1, 7, 2**40, 2**70 + 3):
                yield gen_random(n, m, p, seed), ()
    for a, b, pendants in ((1, 2, 0), (1, 3, 1), (3, 2, 0), (5, 8, 3), (12, 23, 0), (12, 30, 6), (40, 300, 17), (4, 400, 398)):
        for seed in (0, 1, 7, 2**40, 2**70 + 3):
            yield gen_d2(a, b, pendants, seed), ()
    for k in range(1, 6):
        for l in range(1, k + 1):
            for s in (3, 4, 7):
                yield gen_tight(TightParams(k, l, s)), (f"crossdock gen tight --k {k} --l {l} --s {s}", "", "x y")
    for seed in range(100):
        yield gen_random(6, 6, 0.5, seed), ()
        yield gen_d2(6, 9, 2, seed), ()
    yield gen_random(2, 3, 0.5, 5), ("comment", "ünïcode")


# Recorded from the generators as they drew before any change to how they
# build instances; any change to a draw, its order or the text changes it.
GOLDEN_DIGEST = "77f5f0a27b8931477d27dbc7cb7c66bf465784b0c0a528adfe9039f78af91649"


def test_generator_output_golden_digest():
    digest = hashlib.sha256()
    for inst, comments in _golden_cases():
        digest.update(serialize_instance(inst, comments).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
