import math
from contextlib import contextmanager

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


def _spied(name, text):
    """``parse_instance(text)``, None if it raises ``InstanceError``, and
    what each call of the parser's helper ``name`` returned, seen by a spy
    around it.  The parser may call the helper at most once per text."""
    real, reads = getattr(instance_module, name), []

    def spy(*args):
        reads.append(real(*args))
        return reads[-1]

    setattr(instance_module, name, spy)
    try:
        inst = parse_instance(text)
    except InstanceError:
        inst = None
    finally:
        setattr(instance_module, name, real)
    assert len(reads) <= 1
    return inst, reads


def one_pass(text):
    """The instance ``parse_instance(text)`` returns if ``_arc_block`` read
    its arc block in one pass, else None (None too if it raises
    ``InstanceError``).  No fixture, so that Hypothesis tests may call it."""
    inst, reads = _spied("_arc_block", text)
    return inst if reads and reads[0] is inst else None


def row_read(text):
    """The instance ``parse_instance(text)`` returns if the row reader
    ``_long_rows`` read its arc block, else None."""
    inst, reads = _spied("_long_rows", text)
    return inst if reads and reads[0] is inst else None


def row_refused(text):
    """Whether the row reader was handed the arc block of ``text`` and
    refused it, so that the line parser read the block."""
    return _spied("_long_rows", text)[1] == [None]


# Mean row lengths that force one writer and reader on every text: the row
# ones from 0, the per-arc ones and the one-pass read at infinity.
FORCED_ROW_GATES = pytest.mark.parametrize("gate", [0, math.inf], ids=["rows_always", "rows_never"])


@contextmanager
def long_row_gate(value):
    """Parse and serialize with the mean row length ``_LONG_ROW`` set to
    ``value``, and restore it after."""
    real = instance_module._LONG_ROW
    instance_module._LONG_ROW = value
    try:
        yield
    finally:
        instance_module._LONG_ROW = real
