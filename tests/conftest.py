import pytest

import crossdock.instance as instance_module
from crossdock import Instance, InstanceError, parse_instance

# Worked example: 6 unload operations, 7 orders, every A with two successors.
EX1_ARCS = frozenset(
    {
        (1, 2), (1, 3),
        (2, 2), (2, 3),
        (3, 2), (3, 3),
        (4, 4), (4, 5),
        (5, 3), (5, 6),
        (6, 5), (6, 6),
    }
)

EX1_TEXT = (
    "p cdock 6 7\n"
    "a 1 2\na 1 3\na 2 2\na 2 3\na 3 2\na 3 3\n"
    "a 4 4\na 4 5\na 5 3\na 5 6\na 6 5\na 6 6\n"
)

EX1_GREEDY_PI = (4, 6, 5, 1, 2, 3)


@pytest.fixture
def ex1() -> Instance:
    return Instance(n=6, m=7, arcs=EX1_ARCS)


@pytest.fixture
def cex() -> Instance:
    # Counterexample to the swapped lower-bound form: optimum is 3, the
    # swapped form evaluates to 4.
    return Instance(n=1, m=3, arcs=frozenset({(1, 1)}))


def one_pass(text):
    """The instance ``parse_instance(text)`` returns if ``_arc_block`` read
    its arc block in one pass, else None (None too if it raises
    ``InstanceError``).  A spy around ``_arc_block`` sees the reads, and
    the parser may call it at most once per text.  No fixture, so that
    Hypothesis tests may call it."""
    real, reads = instance_module._arc_block, []

    def spy(*args):
        reads.append(real(*args))
        return reads[-1]

    instance_module._arc_block = spy
    try:
        inst = parse_instance(text)
    except InstanceError:
        inst = None
    finally:
        instance_module._arc_block = real
    assert len(reads) <= 1
    return inst if reads and reads[0] is inst else None
