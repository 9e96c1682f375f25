"""JSON input and the suite configuration: the field types and
``check_fields`` that integrands, grids and catalog parameters are read
with, and ``SuiteConfig``, from which every command builds its context.  It
loads the identity catalog only to read a grid's entries or the built-in
grid, so a command that verifies nothing never loads it."""

from __future__ import annotations

from .errors import DomainError
from .qfield import QContext
from .record import Record

# the padic comparison valuation, and the valuation a Riemann-oracle side
# runs to, when the caller sets no target
ORACLE_TARGET = 8


def _is_json_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_lists(v, width: int) -> bool:
    return isinstance(v, list) and all(
        isinstance(t, list) and len(t) == width and all(map(_is_json_int, t)) for t in v)


# field types: (what an error message calls it, predicate)
INT = ("an integer", _is_json_int)
INTS = ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_json_int, v)))
PAIRS = ("a list of [n, m] integer pairs", lambda v: _int_lists(v, 2))
TRIPLES = ("a list of [k, n, m] integer triples", lambda v: _int_lists(v, 3))


def one_of(table: dict) -> tuple:
    """The field type of a name: a string key of ``table``."""
    return ("one of " + ", ".join(map(repr, table)), lambda v: isinstance(v, str) and v in table)


def check_fields(what: str, data, declared: dict, optional=()) -> None:
    """Raise DomainError unless ``data`` is a JSON object of ``declared``
    fields only, each of its declared type, with every field not in
    ``optional`` present."""
    if not isinstance(data, dict):
        raise DomainError(f"{what} must be a JSON object, got {data!r}")
    for name, (kind, ok) in declared.items():
        if name in data:
            if not ok(data[name]):
                raise DomainError(f"{what}: {name!r} must be {kind}, got {data[name]!r}")
        elif name not in optional:
            raise DomainError(f"{what}: missing field {name!r}")
    unknown = set(data) - set(declared)
    if unknown:
        raise DomainError(f"{what}: unknown fields {sorted(unknown, key=repr)}")


# a grid's fields, each optional; SuiteConfig gives the defaults
_GRID_FIELDS = {
    "backend": ('"symbolic" or "padic"', lambda v: v in ("symbolic", "padic")),
    "prime": INT,
    "precision": INT,
    "q": ("a rational literal string or an integer",
          lambda v: isinstance(v, str) or _is_json_int(v)),
    "target_valuation": INT,
    "level_cap": ("an integer or null", lambda v: v is None or _is_json_int(v)),
    "identities": ("a list of grid entries or null", lambda v: v is None or isinstance(v, list)),
}


class SuiteConfig(Record):
    """Grid plus backend parameters for one suite run."""

    def __init__(self, backend: str = "symbolic", prime: int = 3, precision: int = 24,
                 q: str = "1+p", target_valuation: int = ORACLE_TARGET,
                 level_cap: int | None = None, identities: list | None = None):
        if target_valuation < 1:  # a comparison at valuation <= 0 certifies no digit
            raise DomainError(f"target valuation must be at least 1, not {target_valuation}")
        if level_cap is not None and level_cap < 1:
            raise DomainError("level cap must be >= 1")
        self.backend, self.prime, self.precision, self.q = backend, prime, precision, q
        self.target_valuation, self.level_cap = target_valuation, level_cap
        self.identities = identities  # [(identity_name, params_dict), ...]

    def context(self) -> QContext:
        if self.backend == "symbolic":
            if self.q != "1+p":
                raise DomainError("a q literal only applies to the padic backend")
            return QContext.symbolic()
        return QContext.padic(self.prime, self.precision, self.q)

    def grid(self) -> list:
        """The entries to verify: the configured ones, else the built-in grid."""
        if self.identities is not None:
            return self.identities
        from .identities import default_grid  # the catalog, loaded by suite runs only
        return default_grid(self.backend)

    @classmethod
    def from_json(cls, data) -> "SuiteConfig":
        """The configuration of a JSON grid; malformed input raises DomainError."""
        check_fields("grid", data, _GRID_FIELDS, optional=_GRID_FIELDS)
        entries = data.get("identities")
        if entries is not None:
            from .identities import _grid_entry  # each entry names a catalog row
            entries = [_grid_entry(entry) for entry in entries]
        return cls(**{**data, "identities": entries})
