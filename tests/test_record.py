"""Value semantics of the records: equality, hashing, repr and replace."""

import pytest

from qbern.carlitz import table_for
from qbern.errors import DomainError
from qbern.integral import BracketPower, ReflectedPower, integrate
from qbern.qfield import QContext


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


def test_replace_keeps_every_other_field():
    res = integrate(BracketPower(0, 2), QContext.padic(5, 24), 4)
    new = res.replace(history=(9,))
    assert new.history == (9,)
    assert new.replace(history=res.history) == res
    with pytest.raises(DomainError):
        BracketPower(1, 2).replace(power=-1)


def test_repr_is_the_dataclass_format():
    assert repr(BracketPower(1, 2)) == "BracketPower(offset=1, power=2)"
