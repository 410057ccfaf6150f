"""Group context: family, rank and generator alphabet.

Each of the four families realizes a quotient W~/W of an affine Weyl group
by its finite part.  The context fixes the rank n, the modulus N = 2n+1,
which flavor the end generators s_0 and s_n take, and the bookkeeping
offsets used by the bounded-partition and length computations.
"""

from __future__ import annotations

from operator import attrgetter, index

from .errors import BadRequest, MalformedText, RankTooSmall


class Record:
    """A frozen value: its fields live in __slots__ and are set once, with
    object.__setattr__, by __init__, here from values in slot order.
    Equality needs the same class; equality, hashing, repr and pickling see
    the fields named by the `fields` class keyword (by default every slot),
    in order.  `_key` gives them to equality and hashing, as a bare value
    for a single field."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, fields=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(fields or cls.__slots__)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _FamilyType(type):
    """Enum's class side for Family, without importing enum: each upper-case
    name of the body, bound to the fields of a member after its name,
    becomes that member, found by value in one dict lookup."""

    def __init__(cls, name, bases, body, **kwargs):  # kwargs: Record's class keywords
        super().__init__(name, bases, body)
        cls._by_value = {v[0]: type.__call__(cls, k, *v) for k, v in body.items() if k.isupper()}
        for member in cls._by_value.values():
            setattr(cls, member.name, member)

    def __iter__(cls):
        return iter(cls._by_value.values())

    def __len__(cls):
        return len(cls._by_value)

    def __call__(cls, value):
        if value.__class__ is cls or value in cls._by_value:
            return cls._by_value.get(value, value)
        raise ValueError(f"{value!r} is not a valid Family")


class Family(Record, metaclass=_FamilyType, fields=("value",)):
    """The four quotients, with the surface of an Enum; a member is
    immutable and pickles and copies as itself.  Each is Eriksson's C~ with
    each end of the Coxeter graph kept (C flavor) or folded into a fork
    (D flavor): a member holds its value, its two-letter alias, the least
    rank at which its graph is non-degenerate, and whether s_0 and s_n are
    forks."""

    __slots__ = ("name", "value", "alias", "min_rank", "fork_at_zero", "fork_at_n")
    C_OVER_C = ("C~/C", "CC", 2, False, False)
    B_OVER_B = ("B~/B", "BB", 3, True, False)
    B_OVER_D = ("B~/D", "BD", 3, False, True)
    D_OVER_D = ("D~/D", "DD", 4, True, True)

    def __repr__(self):
        return f"<Family.{self.name}: {self.value!r}>"

    def __str__(self):
        return f"Family.{self.name}"


class GroupContext(Record, fields=("family", "n")):
    """Family and rank; the constants below are derived from them once, and
    equality, hashing and repr see only the two."""

    # N is the modulus 2n+1; fork_at_zero (fork_at_n) is True when s_0 (s_n)
    # is the D-flavor generator, a fork on that end; x0 (xn) is -1 at a fork,
    # else 0
    __slots__ = ("family", "n", "N", "fork_at_zero", "fork_at_n", "x0", "xn")

    def __init__(self, family: Family, n: int):
        zero, end = family.fork_at_zero, family.fork_at_n
        super().__init__(family, n, 2 * n + 1, zero, end, -1 if zero else 0, -1 if end else 0)

    def generators(self) -> range:
        return range(self.n + 1)


def integers(values) -> tuple[int, ...]:
    """The values as ints, by operator.index: a float or a string raises
    MalformedText naming it, where int() would truncate or parse it."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = next((v for v in values if not hasattr(v, "__index__")), values)
        raise MalformedText(f"not an integer: {bad!r}") from None


def tokens(text: str) -> list[str]:
    """The fields of a value in at most one () or [] pair, split on commas
    and spaces: any other bracket, an empty field between commas, or text
    that int() misreads, not ASCII or with a "_", raises MalformedText."""
    if not text.isascii() or "_" in text:
        raise MalformedText(f"non-ASCII character or underscore: {text!r}")
    inner = text.strip()
    if inner[:1] + inner[-1:] in ("()", "[]"):
        inner = inner[1:-1]
    if "(" in inner or ")" in inner or "[" in inner or "]" in inner:
        raise MalformedText(f"unbalanced brackets: {text!r}")
    if "," in inner and not all(map(str.strip, inner.split(","))):
        raise MalformedText(f"empty field between commas: {text!r}")
    return inner.replace(",", " ").split()


def make_context(family: Family, n: int) -> GroupContext:
    if not isinstance(family, Family):
        raise BadRequest(f"not a Family: {family!r}")
    (n,) = integers((n,))
    if n < family.min_rank:
        raise RankTooSmall(f"family {family.value} requires rank >= {family.min_rank}, got {n}")
    return GroupContext(family, n)

