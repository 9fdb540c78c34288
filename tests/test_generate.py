import numpy as np
import pytest

from obsnet import (
    ValidationError,
    generate_instance,
    is_structurally_full_rank,
    scc_decompose,
    serialize_instance,
)
from obsnet.structural import arcs_strongly_connected
from oracles import (
    has_spanning_cycle_family,
    parent_components,
    reference_generate_instance,
)


def test_generated_structure_guarantees():
    for seed in range(40):
        n = 1 + seed % 8
        m = 1 + seed % max(1, min(4, n))
        instance = generate_instance(n, m, density=(seed % 5) / 5.0, seed=seed)
        assert instance.n == n and instance.m == m
        assert is_structurally_full_rank(instance.system_pattern)
        assert has_spanning_cycle_family(n, instance.system_pattern.nonzeros)
        partition = scc_decompose(instance.system_pattern)
        assert len(partition.parent_components()) == m
        assert len(parent_components(n, instance.system_pattern.nonzeros)) == m
        assert arcs_strongly_connected(m, instance.network.arcs)
        # every sensing pair priced, so the assignment step never starves
        assert instance.sensing_cost.shape == (m, n)
        assert np.isfinite(instance.sensing_cost).all()


def test_generated_undirected_networks():
    for seed in range(10):
        instance = generate_instance(5, 4, density=0.5, seed=seed, undirected=True)
        assert instance.network_undirected
        assert instance.network.asymmetric_arc() is None
        assert arcs_strongly_connected(4, instance.network.arcs)


def test_generation_is_deterministic():
    a = serialize_instance(generate_instance(7, 3, density=0.4, seed=123))
    b = serialize_instance(generate_instance(7, 3, density=0.4, seed=123))
    assert a == b
    c = serialize_instance(generate_instance(7, 3, density=0.4, seed=124))
    assert a != c


def test_generation_streams_are_independent():
    # same seed, different density: the cost draws stay identical because
    # they flow from their own named stream
    a = generate_instance(6, 2, density=0.0, seed=55)
    b = generate_instance(6, 2, density=1.0, seed=55)
    assert np.array_equal(a.sensing_cost, b.sensing_cost)


def test_generate_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        generate_instance(2, 3)
    with pytest.raises(ValidationError):
        generate_instance(0, 1)
    with pytest.raises(ValidationError):
        generate_instance(3, 2, density=1.5)


def test_generate_names_a_size_numpy_cannot_allocate():
    # the (m, n) costs are drawn first: 2**59 bytes fail at once, before the
    # pattern's arrays of n states
    with pytest.raises(ValidationError, match="a 268435456x268435456 instance is too large"
                                              " to generate: "):
        generate_instance(2**28, 2**28)


@pytest.mark.parametrize(
    "args, message",
    [
        ((5.5, 2), "n and m must be integers, got n=5.5, m=2"),
        ((4, 2.0), "n and m must be integers, got n=4, m=2.0"),
        ((True, 1), "n and m must be integers, got n=True, m=1"),
        ((4, 2, "0.3"), "density must be a real number, got '0.3'"),
        ((4, 2, None), "density must be a real number, got None"),
        ((4, 2, True), "density must be a real number, got True"),
    ],
)
def test_generate_rejects_arguments_of_the_wrong_type(args, message):
    with pytest.raises(ValidationError) as info:
        generate_instance(*args)
    assert str(info.value) == message


def test_generate_accepts_numpy_scalars():
    a = generate_instance(np.int64(7), np.int32(3), np.float64(0.4), seed=123)
    assert serialize_instance(a) == serialize_instance(generate_instance(7, 3, 0.4, seed=123))


def _generator_cases():
    """306 (n, m, density, seed, undirected) cases: m = 1, m = 2 (a two-arc
    ring leaves the network no candidates), n = m and a spread of m, at
    densities 0 and 1 (floats and ints) and between, both directions, and a
    few larger instances with many groups and candidates."""
    cases = []
    for k in range(300):
        n = 1 + k % 23
        m = min(n, [1, 2, n, 1 + (7 * k) % n][k % 4])
        density = [0.0, 1.0, 0.3, 0.7, 0.05, 0, 1][k % 7]
        cases.append((n, m, density, k, (k // 7) % 2 == 0))
    return cases + [(2000, 100, 0.3, 1, True), (100, 100, 1.0, 3, False),
                    (300, 40, 0.1, 3, False), (100, 100, 0.5, 4, True),
                    (60, 2, 0.3, 8, False), (40, 40, 0.0, 9, True)]


def test_block_draws_give_the_per_draw_generator_bytes():
    """The generator draws each loop's coins, group sizes and link costs as
    one vector; the reference draws them one at a time from the same
    streams. numpy's Generator gives both the same numbers, so every
    instance is written byte for byte alike."""
    for case in _generator_cases():
        assert (serialize_instance(generate_instance(*case))
                == serialize_instance(reference_generate_instance(*case))), case
