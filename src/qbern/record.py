"""The one base of qbern's value records.

A record's fields are the attributes its ``__init__`` sets, in that order;
nothing assigns one afterwards.  Equality, hashing and the repr read them
the way ``dataclasses`` would, without importing it.
"""


class Record:
    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked again by ``__init__``."""
        return type(self)(**{**vars(self), **changes})
