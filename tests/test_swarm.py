import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swarmclust.core import ContractViolation, Dataset, Rng
from swarmclust.swarm import (
    PsoConfig,
    SwarmStack,
    decode,
    encode,
    exponential_literal,
    exponential_normalized,
    inertia_weight,
    init_swarm,
    linear,
)

from oracles import StubStream, pso_replay, reference_step


class ConstantStream:
    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


def quadratic_fitness(target):
    """Batched: one squared distance to ``target`` per row."""
    def fitness(positions):
        return np.sum((positions - target) ** 2, axis=1)

    return fitness


def one_step(position, velocity, pbest, gbest, *, w, c1=2.0, c2=2.0, v_max_fraction=None,
             boundary="none", lower=(-100.0,), upper=(100.0,), rand=0.5):
    """Step a hand-built stack of one one-particle swarm whose
    first-iteration inertia weight is ``w``, drawing the constant ``rand``,
    and return the stack."""
    d = len(position)
    cfg = PsoConfig(c1=c1, c2=c2, inertia=exponential_literal(w),
                    v_max_fraction=v_max_fraction, boundary=boundary)
    assert inertia_weight(cfg, 0) == w
    stack = SwarmStack([cfg], np.array(lower * d), np.array(upper * d),
                       np.array([position], dtype=np.float64),
                       np.array([velocity], dtype=np.float64),
                       np.array([pbest], dtype=np.float64), np.array([np.inf]),
                       np.array([gbest], dtype=np.float64), np.array([np.inf]))
    stack.step(quadratic_fitness(0.0), [ConstantStream(rand)])
    return stack


class TestEncodeDecode:
    def test_k1_identity(self):
        c = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(encode(c), [1.0, 2.0, 3.0])

    def test_row_major_round_trip(self):
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        pos = encode(c)
        assert np.array_equal(pos, [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(decode(pos, 2, 2), c)

    @given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-1e12, 1e12, allow_nan=False)))
    def test_round_trip_bit_exact(self, c):
        assert np.array_equal(decode(encode(c), 3, 4), c)

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            decode(np.zeros(5), 2, 3)


class TestInertiaWeight:
    def test_literal_at_zero_is_maxw(self):
        cfg = PsoConfig(inertia=exponential_literal(0.9))
        assert inertia_weight(cfg, 0) == 0.9

    def test_literal_at_one(self):
        cfg = PsoConfig(inertia=exponential_literal(0.9))
        assert inertia_weight(cfg, 1) == pytest.approx(0.9 * math.exp(-1), rel=1e-12)
        assert inertia_weight(cfg, 1) == pytest.approx(0.3311, abs=1e-4)

    def test_linear_endpoint(self):
        cfg = PsoConfig(inertia=linear(0.9, 0.4), max_iter=50)
        assert inertia_weight(cfg, 50) == pytest.approx(0.4)

    @pytest.mark.parametrize("sched", [linear(0.9, 0.4), exponential_literal(0.9),
                                       exponential_normalized(0.9)])
    def test_schedule_bounds(self, sched):
        cfg = PsoConfig(inertia=sched, max_iter=40)
        for it in range(41):
            w = inertia_weight(cfg, it)
            assert 0.0 <= w <= 0.9


class TestVelocityAndPosition:
    def test_all_terms_vanish(self):
        swarm = one_step([1.0], [2.0], [5.0], [7.0], w=0.0, c1=0.0, c2=0.0)
        assert np.array_equal(swarm.velocity, [[0.0]])

    def test_pure_inertia_when_at_both_bests(self):
        x = [2.0, -1.0]
        swarm = one_step(x, [0.5, 0.5], x, x, w=0.9, rand=0.3)
        assert np.allclose(swarm.velocity[0], 0.9 * np.array([0.5, 0.5]))

    def test_hand_evaluated_1d_update(self):
        # v=0.5, x=1, pbest=2, gbest=3, w=0.9, c1=c2=2, rand=0.5
        swarm = one_step([1.0], [0.5], [2.0], [3.0], w=0.9, c1=2.0, c2=2.0)
        assert swarm.velocity[0, 0] == pytest.approx(3.45, rel=1e-15)
        assert swarm.position[0, 0] == pytest.approx(4.45, rel=1e-15)

    def test_v_max_clamp(self):
        # span 4 and v_max_fraction 0.5 give v_max = 2
        swarm = one_step([0.0], [100.0], [0.0], [0.0], w=1.0, v_max_fraction=0.5,
                         lower=(-2.0,), upper=(2.0,), rand=0.0)
        assert swarm.velocity[0, 0] == 2.0

    def test_rows_update_independently(self):
        # each row gets exactly the arithmetic a lone particle would
        rng = Rng(4)
        pos, vel, pbest = rng.uniform(-1, 1, size=(3, 5, 4))
        gbest = rng.uniform(-1, 1, size=4)
        draws = Rng(8).random(5 * 2 * 4).reshape(5, 2, 4)
        cfg = PsoConfig(c1=1.3, c2=1.9, inertia=exponential_literal(0.7),
                        v_max_fraction=None, boundary="none")
        swarm = SwarmStack([cfg], np.full(4, -9.0), np.full(4, 9.0), pos.copy(), vel.copy(),
                           pbest.copy(), np.full(5, np.inf), gbest[None].copy(),
                           np.array([np.inf]))
        swarm.step(quadratic_fitness(0.0), [Rng(8)])
        for i in range(5):
            v = (0.7 * vel[i] + 1.3 * draws[i, 0] * (pbest[i] - pos[i])
                 + 1.9 * draws[i, 1] * (gbest - pos[i]))
            assert np.array_equal(swarm.velocity[i], v)
            assert np.array_equal(swarm.position[i], pos[i] + v)


class TestRestrictBoundary:
    """One step with w=1 and c1=c2=0 moves a particle by exactly its
    velocity, so each case is (pre-update position, velocity)."""

    @staticmethod
    def restricted(previous, velocity, lower=(0.0,), upper=(1.0,)):
        swarm = one_step(previous, velocity, previous, previous, w=1.0, c1=0.0, c2=0.0,
                         boundary="restricted", lower=lower, upper=upper)
        return swarm.position[0]

    def test_inside_unchanged(self):
        pos = self.restricted([0.2], [0.2])
        assert pos[0] == 0.4

    def test_overshoot_reverts(self):
        # pre-update 0.8, velocity 0.5 -> 1.3 is out -> back to 0.8
        pos = self.restricted([0.8], [0.5])
        assert pos[0] == pytest.approx(0.8)

    def test_exactly_on_bound_kept(self):
        pos = self.restricted([0.5], [0.5])
        assert pos[0] == 1.0

    def test_out_of_bounds_start_clamped(self):
        # pre-update 1.5 with velocity 0.5 -> 2.0 reverts to 1.5, still out -> clamp
        pos = self.restricted([1.5], [0.5])
        assert pos[0] == 1.0

    def test_per_component(self):
        pos = self.restricted([0.4, 0.8], [0.1, 0.4])
        assert np.allclose(pos, [0.5, 0.8])


def tiny_dataset():
    return Dataset(points=np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 0.0], [5.0, 1.0]]))


class TestInitSwarm:
    def test_seed_particle_exact(self):
        ds = tiny_dataset()
        seeds = np.array([[0.5, 0.5], [4.5, 0.5]])
        cfg = PsoConfig(swarm_size=4)
        swarm = init_swarm([(seeds, cfg, Rng(0))], 2, ds, quadratic_fitness(0.0))
        assert np.array_equal(decode(swarm.position[0], 2, 2), seeds)

    def test_positions_within_bounds(self):
        ds = tiny_dataset()
        cfg = PsoConfig(swarm_size=8)
        for seeds in (None, ds.points[:2].copy()):
            swarm = init_swarm([(seeds, cfg, Rng(3))], 2, ds, quadratic_fitness(1.0))
            assert swarm.position.shape == (8, 4)
            assert np.all(swarm.position >= swarm.lower)
            assert np.all(swarm.position <= swarm.upper)
            assert np.array_equal(swarm.velocity, np.zeros((8, 4)))
            assert np.array_equal(swarm.pbest_position, swarm.position)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_seed_centers_rejected(self, bad):
        # refused before the swarm is built or evaluated
        calls = []

        def fitness(positions):
            calls.append(positions.shape)
            return quadratic_fitness(0.0)(positions)

        seeds = np.array([[bad, 0.5], [4.5, 0.5]])
        with pytest.raises(ContractViolation) as info:
            init_swarm([(seeds, PsoConfig(swarm_size=4), Rng(0))], 2, tiny_dataset(), fitness)
        assert str(info.value) == "given centers must be finite"
        assert calls == []

    def test_equal_seeds_identical_swarms(self):
        ds = tiny_dataset()
        cfg = PsoConfig(swarm_size=5)
        a = init_swarm([(None, cfg, Rng(42))], 2, ds, quadratic_fitness(0.0))
        b = init_swarm([(None, cfg, Rng(42))], 2, ds, quadratic_fitness(0.0))
        assert np.array_equal(a.position, b.position)
        assert a.gbest_fitness == b.gbest_fitness

    def test_swarm_size_floor_enforced(self):
        with pytest.raises(ContractViolation):
            PsoConfig(swarm_size=1)

    @pytest.mark.parametrize("field, value, message", [
        ("swarm_size", 1, "swarm_size: 1 is less than the minimum of 2"),
        ("stall_iters", 0, "stall_iters: 0 is less than the minimum of 1"),
        ("c1", math.inf, "c1: inf is not of type 'number'"),
        ("c2", -math.inf, "c2: -inf is not of type 'number'"),
        ("rel_tol", math.nan, "rel_tol: nan is not of type 'number'"),
        ("v_max_fraction", math.nan, "v_max_fraction: nan is not of type 'number', 'null'"),
        ("swarm_size", 2.5, "swarm_size: 2.5 is not of type 'integer'"),
        ("max_iter", 5.0, "max_iter: 5.0 is not of type 'integer'"),
        ("c1", True, "c1: True is not of type 'number'"),
        ("boundary", "restrict", "boundary: 'restrict' is not one of ['restricted', 'none']"),
        ("inertia", "linear", "inertia: 'linear' is not an Inertia"),
        ("inertia", None, "inertia: None is not an Inertia"),
    ])
    def test_config_fields_checked_by_their_rules(self, field, value, message):
        with pytest.raises(ContractViolation) as info:
            PsoConfig(**{field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "linaer"}, "kind: 'linaer' is not one of"),
        ({"kind": "linear", "w_max": -0.1}, "w_max: -0.1 is less than the minimum of 0"),
        ({"kind": "linear", "w_min": math.nan}, "w_min: nan is not of type 'number'"),
    ])
    def test_inertia_fields_checked_by_their_rules(self, kwargs, message):
        from swarmclust.swarm import Inertia

        with pytest.raises(ContractViolation, match=f"^{message}"):
            Inertia(**kwargs)

    def test_numpy_numbers_accepted(self):
        cfg = PsoConfig(c1=np.float64(1.5), swarm_size=np.int64(4), max_iter=np.int32(3))
        assert cfg.swarm_size == 4

    def test_gbest_is_min_pbest(self):
        ds = tiny_dataset()
        members = [(None, PsoConfig(swarm_size=6), Rng(seed)) for seed in (7, 8)]
        swarm = init_swarm(members, 2, ds, quadratic_fitness(0.5))
        assert swarm.gbest_fitness.tolist() == [min(swarm.pbest_fitness[:6]),
                                                min(swarm.pbest_fitness[6:])]

    def test_gbest_ties_go_to_lowest_index(self):
        ds = tiny_dataset()
        members = [(None, PsoConfig(swarm_size=6), Rng(seed)) for seed in (7, 8)]
        swarm = init_swarm(members, 2, ds, lambda positions: np.ones(len(positions)))
        assert np.array_equal(swarm.gbest_position, swarm.position[[0, 6]])

    def test_one_fitness_call_per_init_and_step(self):
        ds = tiny_dataset()
        calls = []
        base = quadratic_fitness(0.5)

        def fitness(positions):
            calls.append(positions.shape)
            return base(positions)

        cfg = PsoConfig(swarm_size=6)
        swarm = init_swarm([(None, cfg, Rng(7))], 2, ds, fitness)
        swarm.step(fitness, [Rng(8)])
        stack = init_swarm([(None, cfg, Rng(7)), (ds.points[:2], cfg, Rng(8)),
                            (None, cfg, Rng(9))], 2, ds, fitness)
        stack.step(fitness, [Rng(1), Rng(2), Rng(3)])
        assert calls == [(6, 4), (6, 4), (18, 4), (18, 4)]

    def test_members_init_as_they_do_alone(self):
        # seeded and unseeded members, linear and exponential inertia,
        # restricted and unrestricted: each member's rows, pbest and gbest
        # are those of its one-member init, bit for bit
        ds = Dataset(points=Rng(5).uniform(-2, 3, size=(12, 3)))
        seeds = ds.points[[0, 4]]
        members = [
            (None, PsoConfig(swarm_size=5, inertia=linear()), 11),
            (seeds, PsoConfig(swarm_size=5, boundary="none"), 12),
            (seeds * 0.5, PsoConfig(swarm_size=5, inertia=exponential_literal(0.8)), 13),
            (None, PsoConfig(swarm_size=5, boundary="none",
                             inertia=exponential_normalized(0.7)), 14),
        ]
        fitness = quadratic_fitness(0.25)
        stack = init_swarm([(c, config, Rng(seed)) for c, config, seed in members], 2, ds,
                           fitness)
        for j, (c, config, seed) in enumerate(members):
            alone = init_swarm([(c, config, Rng(seed))], 2, ds, fitness)
            assert_same_bits(member_of(stack, j), alone)
        assert stack.configs == [config for _, config, _ in members]

    def test_nan_names_member_and_particle(self):
        def fitness(positions):
            out = np.zeros(len(positions))
            out[[6, 7]] = np.nan
            return out

        members = [(None, PsoConfig(swarm_size=4), Rng(seed)) for seed in range(3)]
        with pytest.raises(RuntimeError, match="^fitness returned NaN during swarm "
                           "initialization, stacked swarm 1, particle 2$"):
            init_swarm(members, 2, tiny_dataset(), fitness)
        with pytest.raises(RuntimeError, match="^fitness returned NaN during swarm "
                           "initialization, particle 3$"):
            init_swarm(members[:1], 2, tiny_dataset(),
                       lambda positions: np.array([0.0, 1.0, 2.0, np.nan]))


class TestStep:
    def test_fixed_point_when_converged(self):
        ds = tiny_dataset()
        target = np.array([0.5, 0.5, 4.5, 0.5])
        fitness = quadratic_fitness(target)
        cfg = PsoConfig(swarm_size=3, c1=1.0, c2=1.0)
        swarm = init_swarm([(decode(target, 2, 2), cfg, Rng(1))], 2, ds, fitness)
        # park every particle exactly at the optimum with zero velocity
        at_target = np.tile(target, (3, 1))
        swarm.position = at_target.copy()
        swarm.velocity = np.zeros_like(at_target)
        swarm.pbest_position = at_target.copy()
        swarm.pbest_fitness = fitness(at_target)
        swarm.gbest_position = target[None].copy()
        swarm.gbest_fitness = fitness(target[None])
        swarm.step(fitness, [Rng(2)])
        assert swarm.gbest_fitness[0] == float(fitness(target[None])[0])
        assert np.array_equal(swarm.gbest_position[0], target)

    def test_gbest_never_worsens(self):
        ds = tiny_dataset()
        fitness = quadratic_fitness(2.0)
        cfg = PsoConfig(swarm_size=4, boundary="none")
        swarm = init_swarm([(None, cfg, Rng(5))], 2, ds, fitness)
        rng = Rng(6)
        prev = swarm.gbest_fitness[0]
        for _ in range(30):
            swarm.step(fitness, [rng])
            assert swarm.gbest_fitness[0] <= prev
            prev = swarm.gbest_fitness[0]

    def test_pbest_consistency(self):
        ds = tiny_dataset()
        fitness = quadratic_fitness(1.0)
        cfg = PsoConfig(swarm_size=4)
        swarm = init_swarm([(None, cfg, Rng(9))], 2, ds, fitness)
        rng = Rng(10)
        for _ in range(10):
            swarm.step(fitness, [rng])
            for i in range(4):
                assert swarm.pbest_fitness[i] == fitness(swarm.pbest_position[i:i + 1])[0]

    def test_nan_fitness_aborts(self):
        ds = tiny_dataset()
        cfg = PsoConfig(swarm_size=2)
        swarm = init_swarm([(None, cfg, Rng(1))], 2, ds, quadratic_fitness(0.0))
        with pytest.raises(RuntimeError, match="NaN"):
            swarm.step(lambda positions: np.full(len(positions), np.nan), [Rng(2)])

    def test_boundary_containment_under_steps(self):
        ds = tiny_dataset()
        fitness = quadratic_fitness(0.0)
        cfg = PsoConfig(swarm_size=5, boundary="restricted")
        swarm = init_swarm([(None, cfg, Rng(21))], 2, ds, fitness)
        rng = Rng(22)
        for _ in range(50):
            swarm.step(fitness, [rng])
            assert np.all(swarm.position >= swarm.lower)
            assert np.all(swarm.position <= swarm.upper)


class TestDrawOrder:
    """The engine draws a step's rand1/rand2 for the whole swarm as one flat
    block read as (S, 2, kd); that must be the stream sequential per-particle
    draws would give."""

    @pytest.mark.parametrize("size,kd", [(20, 12), (2, 1), (7, 52), (3, 4)])
    @pytest.mark.parametrize("stream", [Rng, StubStream])
    def test_block_equals_sequential_pairs(self, stream, size, kd):
        block = stream(11).random(size * 2 * kd).reshape(size, 2, kd)
        seq = stream(11)
        for i in range(size):
            assert np.array_equal(block[i, 0], seq.random(kd))
            assert np.array_equal(block[i, 1], seq.random(kd))


class TestLockstepOracle:
    @pytest.mark.parametrize("boundary,seeded,sched", [
        ("restricted", False, ("exponential_normalized", 0.9)),
        ("none", False, ("linear", 0.9, 0.4)),
        ("restricted", True, ("exponential_literal", 0.9)),
        ("none", True, ("exponential_normalized", 0.9)),
    ])
    def test_ten_iterations_match_reference(self, boundary, seeded, sched):
        rng = Rng(hash((boundary, seeded, sched[0])) & 0xFFFF)
        pts = rng.uniform(-2, 3, size=(8, 2))
        ds = Dataset(points=pts)
        k = 2
        seeds = pts[:k].copy() if seeded else None
        if sched[0] == "linear":
            inertia = linear(sched[1], sched[2])
        elif sched[0] == "exponential_literal":
            inertia = exponential_literal(sched[1])
        else:
            inertia = exponential_normalized(sched[1])
        cfg = PsoConfig(c1=1.6, c2=1.8, inertia=inertia, max_iter=10,
                        swarm_size=5, boundary=boundary, v_max_fraction=0.7)

        from swarmclust.pipelines import _fitness_for

        fitness = _fitness_for(ds, k)
        stub_engine = StubStream(2024)
        swarm = init_swarm([(seeds, cfg, stub_engine)], k, ds, fitness)
        trace = [float(swarm.gbest_fitness[0])]
        for _ in range(10):
            swarm.step(fitness, [stub_engine])
            trace.append(float(swarm.gbest_fitness[0]))

        ref_trace, ref_gbest = pso_replay(
            pts.tolist(), k, seeds.tolist() if seeded else None, StubStream(2024),
            c1=1.6, c2=1.8, inertia=sched, max_iter=10, swarm_size=5,
            boundary=boundary, v_max_fraction=0.7, iters=10,
        )
        assert trace == pytest.approx(ref_trace, rel=1e-12)
        assert swarm.gbest_position[0] == pytest.approx(ref_gbest, rel=1e-12)


# Values that exercise the boundary and the clamp: signed zeros, points
# inside and outside a box around [-1, 1], and large velocities.
EDGE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def step_cases(draw):
    """A hand-built swarm, a config and a seed for a few steps."""
    size = draw(st.sampled_from([2, 20]))
    k, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kd = k * d
    low = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, -1.0, -0.5]), min_size=d,
                                 max_size=d)))
    # zero spans give lower == upper, v_max == 0 and, from -0.0 + 0.0, an
    # upper of +0.0 over a lower of -0.0
    span = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=d,
                                  max_size=d)))
    lower, upper = np.tile(low, k), np.tile(low + span, k)

    def block(shape):
        return draw(hnp.arrays(np.float64, shape, elements=EDGE_VALUES))

    config = PsoConfig(
        c1=draw(st.floats(0.0, 3.0)), c2=draw(st.floats(0.0, 3.0)), inertia=draw(inertias()),
        max_iter=draw(st.integers(1, 50)), swarm_size=size,
        boundary=draw(st.sampled_from(["restricted", "none"])),
        v_max_fraction=draw(st.one_of(st.none(), st.sampled_from([1.0, 0.25]),
                                      st.floats(1e-3, 1.0))),
    )
    target = block((kd,))
    state = draw(swarm_states(size, kd, lower, upper, target))
    return state, config, target, draw(st.integers(0, 2**32)), draw(st.integers(1, 4))


@st.composite
def inertias(draw):
    kind = draw(st.sampled_from(["linear", "exponential_literal",
                                 "exponential_normalized"]))
    w_max = draw(st.floats(0.0, 1.2))
    return (linear(w_max, draw(st.floats(0.0, 1.2))) if kind == "linear"
            else exponential_literal(w_max) if kind == "exponential_literal"
            else exponential_normalized(w_max))


@st.composite
def swarm_states(draw, size, kd, lower, upper, target):
    """A hand-built swarm's fields of edge values in the box lower..upper,
    its fitness the squared distance to ``target``."""

    def block(shape):
        return draw(hnp.arrays(np.float64, shape, elements=EDGE_VALUES))

    pbest = block((size, kd))
    state = dict(
        position=block((size, kd)), velocity=block((size, kd)) * 2.0, pbest_position=pbest,
        pbest_fitness=quadratic_fitness(target)(pbest),
        gbest_position=pbest[draw(st.integers(0, size - 1))].copy(),
        iter=draw(st.integers(0, 10)), lower=lower, upper=upper,
    )
    state["gbest_fitness"] = float(quadratic_fitness(target)(state["gbest_position"][None])[0])
    return state


@st.composite
def stack_cases(draw):
    """Members of one stack: one shape, box, iteration count, c1, c2 and
    v_max_fraction, and each its own state, inertia schedule, boundary mode
    and max_iter. Returns ([(state, config)], target, seeds, steps)."""
    state, config, target, _, steps = draw(step_cases())
    size, kd = state["position"].shape
    members = [(state, config)]
    for _ in range(draw(st.integers(1, 6))):
        members.append((
            {**draw(swarm_states(size, kd, state["lower"], state["upper"], target)),
             "iter": state["iter"]},
            replace(config, inertia=draw(inertias()), max_iter=draw(st.integers(1, 50)),
                    boundary=draw(st.sampled_from(["restricted", "none"]))),
        ))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=len(members),
                          max_size=len(members)))
    return members, target, seeds, steps


def build(state):
    """A lone swarm's hand-built state, as the reference step takes it."""
    return SimpleNamespace(**{key: value.copy() if isinstance(value, np.ndarray) else value
                              for key, value in state.items()})


def stack_of(states, configs):
    """A stack of the hand-built lone ``states``, one member each, in order."""
    first = states[0]
    return SwarmStack(
        configs, first["lower"].copy(), first["upper"].copy(),
        **{key: np.concatenate([state[key] for state in states])
           for key in ("position", "velocity", "pbest_position", "pbest_fitness")},
        gbest_position=np.array([state["gbest_position"] for state in states]),
        gbest_fitness=np.array([state["gbest_fitness"] for state in states], dtype=np.float64),
        iter=first["iter"])


def member_of(stack, j):
    """Member j of ``stack`` as a lone swarm sharing the stack's arrays."""
    rows = slice(j * stack.size, (j + 1) * stack.size)
    return SimpleNamespace(
        position=stack.position[rows], velocity=stack.velocity[rows],
        pbest_position=stack.pbest_position[rows], pbest_fitness=stack.pbest_fitness[rows],
        gbest_position=stack.gbest_position[j], gbest_fitness=float(stack.gbest_fitness[j]),
        iter=stack.iter, lower=stack.lower, upper=stack.upper)


def assert_same_bits(a, b):
    """Two lone swarms, or stacks of one, hold the same bits."""
    a, b = (member_of(x, 0) if isinstance(x, SwarmStack) else x for x in (a, b))
    for key in ("position", "velocity", "pbest_position", "pbest_fitness",
                "gbest_position"):
        x, y = getattr(a, key), getattr(b, key)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), key
    assert np.float64(a.gbest_fitness).tobytes() == np.float64(b.gbest_fitness).tobytes()
    assert a.iter == b.iter


class TestReferenceStep:
    """The step equals the earlier whole-expression step (oracles.reference_step)
    bit for bit, signs of zeros included."""

    @settings(max_examples=200, deadline=None)
    @given(step_cases())
    def test_steps_equal_reference_bits(self, case):
        state, config, target, seed, steps = case
        # rounding makes fitness ties, so gbest tie-breaking is covered too
        def fitness(positions):
            return np.round(quadratic_fitness(target)(positions), 1)

        new, ref = stack_of([state], [config]), build(state)
        new_rng, ref_rng = Rng(seed), Rng(seed)
        for _ in range(steps):
            new.step(fitness, [new_rng])
            reference_step(ref, fitness, config, ref_rng)
            assert_same_bits(new, ref)

    def test_nan_message_names_the_particle(self):
        state = dict(position=np.zeros((5, 2)), velocity=np.zeros((5, 2)),
                     pbest_position=np.zeros((5, 2)), pbest_fitness=np.ones(5),
                     gbest_position=np.zeros(2), gbest_fitness=1.0, iter=7,
                     lower=np.full(2, -1.0), upper=np.full(2, 1.0))

        def fitness(positions):
            return np.array([1.0, 2.0, np.nan, 0.5, np.nan])

        config, messages = PsoConfig(swarm_size=5), []
        for advance in (lambda: stack_of([state], [config]).step(fitness, [Rng(1)]),
                        lambda: reference_step(build(state), fitness, config, Rng(1))):
            with pytest.raises(RuntimeError) as err:
                advance()
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "fitness returned NaN at iteration 7, particle 2"


class TestStackLockstep:
    """Every member of a stack steps as the earlier whole-expression step
    (oracles.reference_step) steps it alone on its own stream, bit for bit:
    the weight column multiplies as the scalar weight does, the boundary
    applies to the restricted members' rows only, and the clips keep the
    signs of zeros that the lone step's (k*d,) bounds keep."""

    @settings(max_examples=120, deadline=None)
    @given(stack_cases())
    def test_members_equal_reference_steps(self, case):
        members, target, seeds, steps = case

        def fitness(positions):
            return np.round(quadratic_fitness(target)(positions), 1)

        stack = stack_of([state for state, _ in members], [config for _, config in members])
        alone = [build(state) for state, _ in members]
        stack_rngs, lone_rngs = [Rng(s) for s in seeds], [Rng(s) for s in seeds]
        for _ in range(steps):
            stack.step(fitness, stack_rngs)
            for swarm, (_, config), rng in zip(alone, members, lone_rngs):
                reference_step(swarm, fitness, config, rng)
            for j, swarm in enumerate(alone):
                assert_same_bits(member_of(stack, j), swarm)

    def test_weight_column_and_clips_keep_signed_zeros(self):
        # w = 0.5 on a -0.0 velocity is -0.0; the zero-span box [-0.0, +0.0]
        # clips a -0.0 that left it and came back as in the lone step
        def state():
            return dict(position=np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]]),
                        velocity=np.array([[-0.0, 0.0, 0.5], [-0.0, 2.0, -0.0]]),
                        pbest_position=np.zeros((2, 3)), pbest_fitness=np.full(2, np.inf),
                        gbest_position=np.array([-0.0, 0.0, 0.0]), gbest_fitness=np.inf,
                        iter=0, lower=np.array([-0.0, -0.0, 0.0]),
                        upper=np.array([0.0, 0.0, 0.5]))
        configs = [PsoConfig(c1=0.0, c2=0.0, inertia=exponential_literal(0.5), swarm_size=2,
                             v_max_fraction=None, boundary=boundary)
                   for boundary in ("restricted", "none", "restricted")]
        stack = stack_of([state() for _ in configs], configs)
        stack.step(quadratic_fitness(0.0), [ConstantStream(0.5)] * 3)
        for j, config in enumerate(configs):
            lone = reference_step(build(state()), quadratic_fitness(0.0), config,
                                  ConstantStream(0.5))
            assert_same_bits(member_of(stack, j), lone)
        # member 0 reverts a component to its -0.0; member 1, unrestricted, moves it
        assert stack.position[1, 1] == 0.0 and np.signbit(stack.position[1, 1])
        assert stack.position[3, 1] == 1.0

    def test_members_leave_with_their_own_state(self):
        ds = tiny_dataset()
        fitness = quadratic_fitness(0.5)
        configs = [PsoConfig(swarm_size=4, inertia=linear()), PsoConfig(swarm_size=4),
                   PsoConfig(swarm_size=4, boundary="none")]

        stack = init_swarm([(None, c, Rng(i)) for i, c in enumerate(configs)], 2, ds, fitness)
        alone = [init_swarm([(None, c, Rng(i))], 2, ds, fitness) for i, c in enumerate(configs)]
        rngs, lone_rngs = [Rng(10 + i) for i in range(3)], [Rng(10 + i) for i in range(3)]
        stack.step(fitness, rngs)
        left = build(vars(member_of(stack, 1)))
        assert stack.remove([1]) is None
        stack.step(fitness, [rngs[0], rngs[2]])
        for j, (swarm, rng) in enumerate(zip(alone, lone_rngs)):
            swarm.step(fitness, [rng])
            if j != 1:
                swarm.step(fitness, [rng])
        assert_same_bits(left, alone[1])
        assert stack.iter == 2 and stack.position.shape == (8, 4)
        assert_same_bits(member_of(stack, 0), alone[0])
        assert_same_bits(member_of(stack, 1), alone[2])

    @pytest.mark.parametrize("change", [{"swarm_size": 5}, {"c1": 1.0}, {"c2": 1.0},
                                        {"v_max_fraction": 0.5}])
    def test_mismatched_members_rejected(self, change):
        members = [(None, PsoConfig(swarm_size=4), Rng(0)),
                   (None, replace(PsoConfig(swarm_size=4), **change), Rng(1))]
        with pytest.raises(ContractViolation, match="^stacked swarms need one swarm_size, "
                           "c1, c2 and v_max_fraction$"):
            init_swarm(members, 2, tiny_dataset(), quadratic_fitness(0.5))
