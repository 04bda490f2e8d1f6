"""The numpy property the constructions' draw-ahead rests on.

A construction draws its per-step numbers in one call and puts its stream
back afterwards (``rng.draw_ahead``).  That gives the selections of one
scalar call per step only while a size-k call returns the k values of k
scalar calls and leaves the generator where they leave it.  These tests
fail with a message naming that property if a numpy release breaks it.
"""

import pytest

from nrpbench import rng

BROKEN = "numpy no longer gives a size-k {} call the values and end state of k scalar calls"


def _pair(offset):
    """Two generators on one stream, each past ``offset`` 32-bit draws, so an
    odd offset leaves the buffered half of a 64-bit output in its state."""
    gens = rng.substream(5, 1), rng.substream(5, 1)
    for gen in gens:
        gen.integers(0, 3, size=offset)
    return gens


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("k", [0, 1, 2, 7, 8, 100])
def test_a_block_of_uniforms_is_k_scalar_uniforms(k, offset):
    block, scalar = _pair(offset)
    assert block.random(k).tolist() == [scalar.random() for _ in range(k)], \
        BROKEN.format("random")
    assert block.bit_generator.state == scalar.bit_generator.state, BROKEN.format("random")


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("k", [1, 2, 7, 8, 99, 100])
@pytest.mark.parametrize("size", range(1, 13))
def test_a_block_of_bounded_integers_is_k_scalar_integers(size, k, offset):
    block, scalar = _pair(offset)
    assert block.integers(0, size, size=k).tolist() == \
        [int(scalar.integers(0, size)) for _ in range(k)], BROKEN.format("integers")
    # the state includes has_uint32 and uinteger, the buffered 32-bit half
    assert block.bit_generator.state == scalar.bit_generator.state, BROKEN.format("integers")


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("kind", ["random", "integers"])
def test_put_back_leaves_the_stream_where_used_scalar_draws_leave_it(kind, offset):
    size = 9
    for used in range(size + 1):
        gen, ref = _pair(offset)
        if kind == "random":
            draw, one = gen.random, ref.random
        else:
            draw, one = (lambda k: gen.integers(0, 7, size=k)), (lambda: ref.integers(0, 7))
        block, put_back = rng.draw_ahead(gen, draw, size)
        assert block.size == size
        want = [one() for _ in range(used)]
        assert block[:used].tolist() == want
        put_back(used)
        assert gen.bit_generator.state == ref.bit_generator.state, (kind, used)
        # and the stream goes on as the scalar one does
        assert gen.random() == ref.random()
