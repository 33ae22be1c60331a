"""Finite algebras, simple functions, measures, and their calculus.

The restriction operator stands in for conditional expectation, so the
tests drive it with the one process where everything is computable by
hand: the symmetric random walk on a binary tree.
"""

import tracemalloc

import numpy as np
import pytest

from deflator import (
    Algebra,
    AlgebraMismatch,
    DeflatorSequence,
    FAMeasure,
    Filtration,
    MarketPanel,
    NotCoarser,
    SimpleFunction,
    binary_tree_filtration,
    check_deflator,
    pairing,
    product,
    random_walk,
    restrict,
)


# ---------------------------------------------------------------------------
# algebras


def test_algebra_blocks_partition_the_atoms():
    algebra = Algebra.from_blocks([[0, 2], [1], [3, 4]])
    assert algebra.n_blocks == 3
    assert algebra.n_atoms == 5
    collected = sorted(a for block in algebra.blocks() for a in block)
    assert collected == [0, 1, 2, 3, 4]
    np.testing.assert_array_equal(algebra.block_of, [0, 1, 0, 2, 2])


def test_from_blocks_rejects_non_partitions():
    with pytest.raises(ValueError):
        Algebra.from_blocks([[0, 1], [1, 2]])     # overlap
    with pytest.raises(ValueError):
        Algebra.from_blocks([[0], [2]])           # gap


def test_from_blocks_takes_integer_indices_only():
    # the cast to int truncated: [[0.9], [1]] was the algebra [0 1],
    # [[True], [0]] the algebra [1 0] and [[0, 1.7], [2]] [0 0 1]; an
    # empty last block was dropped.  The spec reader's rule, as there
    for blocks in ([[0.9], [1]], [[True], [0]], [[0, 1.7], [2]], [[0.0], [1.0]],
                   [[0, 1], []], [np.array([0, 1]), np.array([True])]):
        with pytest.raises(ValueError, match="nonempty lists of integer atom indices"):
            Algebra.from_blocks(blocks)
    algebra = Algebra.from_blocks([np.array([2, 0], dtype=np.uint8), [np.int64(1)]])
    np.testing.assert_array_equal(algebra.block_of, [0, 1, 0])


def test_algebra_rejects_empty_and_negative_blocks():
    for block_of in ([0, 2, 2], [1, 1], [-1, 0], [0, 0, 3, 1]):
        with pytest.raises(ValueError):
            Algebra(np.array(block_of))


def test_refinement_relation():
    coarse = Algebra.from_blocks([[0, 1, 2, 3]])
    middle = Algebra.from_blocks([[0, 1], [2, 3]])
    fine = Algebra.discrete(4)
    crossing = Algebra.from_blocks([[0, 2], [1, 3]])
    assert fine.refines(middle) and middle.refines(coarse)
    assert fine.refines(fine)
    assert not middle.refines(fine)
    assert not crossing.refines(middle) and not middle.refines(crossing)


def test_coarse_block_map_and_failure():
    middle = Algebra.from_blocks([[0, 1], [2, 3]])
    coarse = Algebra.trivial(4)
    np.testing.assert_array_equal(middle.coarse_block_map(coarse), [0, 0])
    crossing = Algebra.from_blocks([[0, 2], [1, 3]])
    with pytest.raises(NotCoarser):
        crossing.coarse_block_map(middle)


def loop_block_map(fine, coarse):
    """The atom-by-atom reference: each block's coarse block, or the
    NotCoarser message for the first atom that straddles."""
    out = {}
    for f, c in zip(fine.block_of.tolist(), coarse.block_of.tolist()):
        if out.setdefault(f, c) != c:
            return f"block {f} straddles blocks {out[f]} and {c} of the target"
    return np.array([out[f] for f in range(fine.n_blocks)])


def random_partition(rng, n_atoms, n_blocks):
    """Blocks numbered 0..B-1 with none empty, in random atom order."""
    labels = np.concatenate([np.arange(n_blocks),
                             rng.integers(0, n_blocks, n_atoms - n_blocks)])
    return Algebra(rng.permutation(labels))


def test_block_map_and_refines_match_the_atom_loop():
    rng = np.random.default_rng(31)
    straddles = 0
    for _ in range(300):
        n = int(rng.integers(1, 40))
        fine = random_partition(rng, n, int(rng.integers(1, n + 1)))
        if rng.random() < 0.5:
            # a coarsening of fine: merge its blocks at random
            merge = random_partition(rng, fine.n_blocks,
                                     int(rng.integers(1, fine.n_blocks + 1)))
            coarse = Algebra(merge.block_of[fine.block_of])
        else:
            coarse = random_partition(rng, n, int(rng.integers(1, n + 1)))
        want = loop_block_map(fine, coarse)
        if isinstance(want, str):
            straddles += 1
            assert not fine.refines(coarse)
            with pytest.raises(NotCoarser) as exc:
                fine.coarse_block_map(coarse)
            assert str(exc.value) == want
        else:
            assert fine.refines(coarse)
            np.testing.assert_array_equal(fine.coarse_block_map(coarse), want)
    assert 50 < straddles < 250


def test_block_map_needs_one_outcome_space():
    fine, coarse = Algebra.discrete(3), Algebra.trivial(4)
    assert not fine.refines(coarse)
    with pytest.raises(AlgebraMismatch):
        fine.coarse_block_map(coarse)


def test_algebra_equality_and_hash_are_structural():
    a = Algebra(np.array([0, 0, 1]))
    b = Algebra(np.array([0, 0, 1]))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Algebra(np.array([0, 1, 1]))


# ---------------------------------------------------------------------------
# simple functions and measures


def test_simple_function_lift_repeats_block_values():
    coarse = Algebra.from_blocks([[0, 1], [2, 3]])
    fine = Algebra.discrete(4)
    f = SimpleFunction(coarse, [5.0, 7.0])
    lifted = f.lift(fine)
    np.testing.assert_array_equal(lifted.values, [5.0, 5.0, 7.0, 7.0])
    np.testing.assert_array_equal(f.at_atoms(), [5.0, 5.0, 7.0, 7.0])


def test_product_restrict_pairing_consistency():
    """<f, mu> computed directly equals the pairing of the restricted
    product against the trivial algebra: mass is preserved."""
    rng = np.random.default_rng(3)
    fine = Algebra.discrete(6)
    trivial = Algebra.trivial(6)
    f = SimpleFunction(fine, rng.normal(size=6))
    mu = FAMeasure(fine, rng.uniform(0.1, 1.0, size=6))
    direct = pairing(f, mu)
    collapsed = restrict(product(f, mu), trivial)
    assert collapsed.weights[0] == pytest.approx(direct, rel=1e-12)
    assert restrict(mu, trivial).weights[0] == pytest.approx(mu.mass(), rel=1e-12)


def test_vector_pairing_shapes():
    algebra = Algebra.discrete(3)
    scalar_f = SimpleFunction(algebra, [1.0, 2.0, 3.0])
    vector_f = SimpleFunction(algebra, np.arange(6.0).reshape(3, 2))
    scalar_mu = FAMeasure(algebra, [0.2, 0.3, 0.5])
    vector_mu = product(vector_f, scalar_mu)
    assert isinstance(pairing(scalar_f, scalar_mu), float)
    assert pairing(vector_f, scalar_mu).shape == (2,)
    assert pairing(scalar_f, vector_mu).shape == (2,)
    assert isinstance(pairing(vector_f, vector_mu), float)
    # every ndim combination is f(b) mu(b), block by block
    for f in (scalar_f, vector_f):
        for mu in (scalar_mu, vector_mu):
            got = product(f, mu).weights
            want = [np.multiply(f.values[b], mu.weights[b]) for b in range(3)]
            assert got.tobytes() == np.array(want).tobytes(), (f.values.ndim, mu.weights.ndim)


def test_product_requires_shared_algebra():
    f = SimpleFunction(Algebra.discrete(3), [1.0, 2.0, 3.0])
    mu = FAMeasure(Algebra.trivial(3), [1.0])
    with pytest.raises(AlgebraMismatch):
        product(f, mu)


# ---------------------------------------------------------------------------
# filtrations and the random walk


def test_filtration_requires_refinement():
    coarse = Algebra.trivial(4)
    crossing = Algebra.from_blocks([[0, 2], [1, 3]])
    middle = Algebra.from_blocks([[0, 1], [2, 3]])
    with pytest.raises(NotCoarser):
        Filtration([middle, crossing])
    Filtration([coarse, middle])    # fine


def random_chain(rng, scrambled):
    """Algebras on one atom set, each a random merge of the next finer
    one; when scrambled, one level is replaced by an arbitrary
    partition, which usually breaks the refinement next to it."""
    n = int(rng.integers(1, 60))
    chain = [random_partition(rng, n, int(rng.integers(1, n + 1)))]
    for _ in range(int(rng.integers(1, 6))):
        merge = random_partition(rng, chain[0].n_blocks,
                                 int(rng.integers(1, chain[0].n_blocks + 1)))
        chain.insert(0, Algebra(merge.block_of[chain[0].block_of]))
    if scrambled:
        j = int(rng.integers(len(chain)))
        chain[j] = random_partition(rng, n, int(rng.integers(1, n + 1)))
    return chain


def test_stored_parent_maps_match_the_atom_maps():
    rng = np.random.default_rng(41)
    straddles = refused = 0
    for trial in range(200):
        chain = random_chain(rng, trial % 2 == 1)
        steps = [loop_block_map(chain[j + 1], chain[j]) for j in range(len(chain) - 1)]
        broken = [j for j, want in enumerate(steps) if isinstance(want, str)]
        assert trial % 2 == 1 or not broken
        levels = chain
        if broken:
            # the first step found, walking back from the finest level
            refused += 1
            with pytest.raises(NotCoarser) as exc:
                Filtration(chain)
            assert str(exc.value) == (f"algebra {broken[-1] + 1} does not refine "
                                      f"algebra {broken[-1]}")
        else:
            filtration = Filtration(chain)
            levels = filtration.algebras
            for j, algebra in enumerate(chain):
                np.testing.assert_array_equal(filtration[j].block_of, algebra.block_of)
                assert filtration[j] == algebra and filtration[j].n_blocks == algebra.n_blocks
            for j, want in enumerate(steps):
                np.testing.assert_array_equal(
                    filtration[j + 1].coarse_block_map(filtration[j]), want)
        for i in range(len(chain)):
            for j in range(i, len(chain)):
                want = loop_block_map(chain[j], chain[i])
                if isinstance(want, str):
                    straddles += 1
                    with pytest.raises(NotCoarser) as exc:
                        chain[j].coarse_block_map(chain[i])
                    assert str(exc.value) == want
                    continue
                got = levels[j].coarse_block_map(levels[i])
                np.testing.assert_array_equal(got, want)
                # restrict adds each coarse block's fine weights in fine
                # block order, bit for bit
                for shape in ((chain[j].n_blocks,), (chain[j].n_blocks, 3)):
                    weights = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
                    by_hand = np.zeros((chain[i].n_blocks,) + shape[1:])
                    for f in range(chain[j].n_blocks):
                        by_hand[want[f]] = by_hand[want[f]] + weights[f]
                    out = restrict(FAMeasure(levels[j], weights), levels[i]).weights
                    assert out.shape == by_hand.shape
                    assert out.tobytes() == by_hand.tobytes()
    assert straddles > 20 and refused > 20


def test_binary_tree_stores_parent_maps_only():
    filtration = binary_tree_filtration(16)
    arrays = {}
    for algebra in filtration.algebras:
        for slot in type(algebra).__slots__:
            value = getattr(algebra, slot, None)
            if isinstance(value, np.ndarray):
                arrays[id(value)] = value
    parents = [filtration[j + 1].coarse_block_map(filtration[j]) for j in range(16)]
    for parent in parents:
        arrays[id(parent)] = parent
    assert sum(a.size for a in arrays.values()) <= 3 * 2 ** 16
    for j, parent in enumerate(parents):
        np.testing.assert_array_equal(parent, np.arange(2 ** (j + 1)) >> 1)
    np.testing.assert_array_equal(filtration[3].block_of, np.arange(2 ** 16) >> 13)


def test_parent_maps_are_read_only_and_counted_without_a_copy():
    # np.bincount copies read-only input: restrict, once per column,
    # would copy the 2 MB parent map of the finest level each time
    filtration = binary_tree_filtration(18)
    fine, coarse = filtration[18], filtration[17]
    up = fine.coarse_block_map(coarse)
    for parent in (up, coarse._up):
        assert not parent.flags.writeable
        with pytest.raises(ValueError):
            parent[0] = 1
    for shape in ((fine.n_blocks,), (fine.n_blocks, 2)):
        mu = FAMeasure(fine, np.ones(shape))
        tracemalloc.start()
        try:
            out = restrict(mu, coarse).weights
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, 2.0)
        # the result and one counted column; a column of vector weights
        # is also copied, as np.bincount takes its weights contiguous
        column = coarse.n_blocks * 8 + (fine.n_blocks * 8 if len(shape) == 2 else 0)
        assert peak < out.nbytes + column + up.nbytes // 4
    np.testing.assert_array_equal(up, np.arange(2 ** 18) >> 1)


def test_algebra_is_equal_to_itself_without_composing_atoms(monkeypatch):
    level = binary_tree_filtration(3)[1]

    def fail(*args):
        raise AssertionError("compared atoms")

    monkeypatch.setattr(Algebra, "coarse_block_map", fail)
    assert level == level


def test_binary_tree_block_counts():
    filtration = binary_tree_filtration(4)
    assert [filtration[j].n_blocks for j in range(5)] == [1, 2, 4, 8, 16]
    for j in range(4):
        assert filtration[j + 1].refines(filtration[j])


def test_random_walk_counts_up_moves():
    filtration, walk, _ = random_walk(9)
    for j in range(10):
        ups = [bin(p).count("1") for p in range(2 ** j)]
        np.testing.assert_array_equal(walk[j].values, 2.0 * np.array(ups) - j)


def test_random_walk_moments():
    """E Z_j = 0 and Var Z_j = j under the uniform path measure."""
    n = 6
    filtration, walk, prob = random_walk(n)
    for j in range(n + 1):
        zj = walk[j].lift(filtration[-1])
        mean = pairing(zj, prob)
        second = pairing(SimpleFunction(filtration[-1], zj.values ** 2), prob)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert second == pytest.approx(float(j), rel=1e-12, abs=1e-12)


def test_random_walk_one_step_conditional_prices():
    """For any f, the conditional price of f(Z_{j+1}) on a time-j block
    is the average of the two children: the walk is a fair coin."""
    n = 5
    filtration, walk, prob = random_walk(n)
    f = lambda z: np.cosh(z / 3.0) - 0.1 * z
    measures = [restrict(prob, filtration[j]) for j in range(n + 1)]
    for j in range(n):
        target = SimpleFunction(filtration[j],
                                0.5 * (f(walk[j].values - 1.0)
                                       + f(walk[j].values + 1.0)))
        next_f = SimpleFunction(filtration[j + 1], f(walk[j + 1].values))
        assert conditional_price_check(filtration, j, target, next_f, measures).ok


def conditional_price_check(filtration, j, y, x, measures):
    """check_deflator on the one-period panel from level j to j + 1 that
    quotes y and pays x: Y P_j must equal the restriction of X P_{j+1}
    to level j, blockwise."""
    levels = Filtration([filtration[j], filtration[j + 1]])
    panel = MarketPanel([0.0, 1.0], levels,
                        [SimpleFunction(levels[i], f.values[:, None])
                         for i, f in enumerate((y, x))])
    return check_deflator(panel, DeflatorSequence(measures[j:j + 2]))


def test_conditional_price_check_detects_violations():
    filtration, walk, prob = random_walk(2)
    measures = [restrict(prob, filtration[j]) for j in range(3)]
    wrong = SimpleFunction(filtration[0], [0.123])
    z1 = SimpleFunction(filtration[1], walk[1].values)
    assert not conditional_price_check(filtration, 0, wrong, z1, measures).ok


def test_from_blocks_checks_every_index():
    # a whole block's dtype was checked, and [0, True] is an int array:
    # [[0, True], [2]] was the algebra [0 0 1]
    for blocks, message in (
            ([[0, True], [2]], r"\[0\]: atom index True is not an integer in \[0, 3\)"),
            ([[0, 1.0], [2]], r"\[0\]: atom index 1.0 is not an integer in \[0, 3\)"),
            ([[0, 1], [1]], r"\[1\]: atom 1 is also in block 0"),
            ([[0], []], r"\[1\]: empty block")):
        with pytest.raises(ValueError, match=message):
            Algebra.from_blocks(blocks)


REFUSALS = [
    ("no atoms", ValueError, "block_of must map a nonempty atom set", lambda: Algebra([])),
    ("a block map of two dimensions", ValueError, "block_of must map a nonempty atom set",
     lambda: Algebra([[0, 1]])),
    ("a pairing across algebras", AlgebraMismatch,
     "function and measure live on different algebras",
     lambda: pairing(SimpleFunction(Algebra.trivial(2), [1.0]),
                     FAMeasure(Algebra.discrete(2), [0.5, 0.5]))),
    ("no algebras", ValueError, "a filtration needs at least one algebra",
     lambda: Filtration([])),
    ("algebras on two atom sets", AlgebraMismatch, "all algebras must share the atom set",
     lambda: Filtration([Algebra.trivial(2), Algebra.discrete(3)])),
    ("a tree of no periods", ValueError, "need at least one period",
     lambda: binary_tree_filtration(0)),
]


@pytest.mark.parametrize("exception, message, call", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_constructors_and_pairings_refuse_ill_formed_input(exception, message, call):
    with pytest.raises(exception, match=f"^{message}$"):
        call()
