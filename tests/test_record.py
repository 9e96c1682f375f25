"""Value semantics of the records: equality, hashing, repr and replace."""

import pytest

from qbern.carlitz import table_for
from qbern.errors import DomainError
from qbern.integral import BracketPower, ReflectedPower, integrate
from qbern.qfield import QContext, invert_q


def test_equality_respects_the_class():
    # a memo keyed on integrands must not confuse the two bracket kinds
    assert BracketPower(1, 2) == BracketPower(1, 2)
    assert BracketPower(1, 2) != ReflectedPower(1, 2)
    assert len({BracketPower(1, 2), ReflectedPower(1, 2), BracketPower(1, 2)}) == 2


def test_equal_contexts_hash_equal_and_share_one_table():
    a, b = QContext.padic(5, 24), QContext.padic(5, 24)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert table_for(a) is table_for(b)


@pytest.mark.parametrize("ctx", [QContext.symbolic(), QContext.padic(5, 24),
                                 QContext.padic(3, 8, "-1/2")], ids=["symbolic", "p5", "p3"])
def test_contexts_replace_and_invert_back_to_themselves(ctx):
    # every field of a context is an __init__ parameter, 1/q included
    assert ctx.replace() == ctx
    assert invert_q(invert_q(ctx)) == ctx
    assert invert_q(ctx).replace() == invert_q(ctx)


def test_replace_keeps_every_other_field():
    res = integrate(BracketPower(0, 2), QContext.padic(5, 24), 4)
    new = res.replace(history=(9,))
    assert new.history == (9,)
    assert new.replace(history=res.history) == res
    with pytest.raises(DomainError):
        BracketPower(1, 2).replace(power=-1)


def test_repr_is_the_dataclass_format():
    assert repr(BracketPower(1, 2)) == "BracketPower(offset=1, power=2)"
