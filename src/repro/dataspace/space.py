"""The data space ``D = dom(A1) x ... x dom(Ad)`` (paper Section 1.1).

A :class:`DataSpace` is an ordered schema of :class:`Attribute` objects.
Following the paper's convention for *mixed* spaces, all categorical
attributes must precede all numeric ones; the number of categorical
attributes is ``cat`` and the space's :class:`SpaceKind` is derived from
it (``cat == 0`` numeric, ``cat == d`` categorical, otherwise mixed).
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence

from repro.dataspace.attribute import Attribute
from repro.dataspace.attribute import categorical as _cat
from repro.dataspace.attribute import numeric as _num
from repro.exceptions import SchemaError

__all__ = ["SpaceKind", "DataSpace"]


class SpaceKind(enum.Enum):
    """Classification of a data space used throughout the paper."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    MIXED = "mixed"


class DataSpace:
    """An immutable schema: the Cartesian product of attribute domains.

    Examples
    --------
    >>> space = DataSpace.mixed([("make", 85), ("body", 7)],
    ...                         ["price", "mileage"])
    >>> space.dimensionality, space.cat, space.kind
    (4, 2, <SpaceKind.MIXED: 'mixed'>)
    """

    __slots__ = ("_attributes", "_cat", "_full_query")

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("a data space needs at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in {names}")
        cat = 0
        for a in attrs:
            if a.is_categorical:
                if cat != attrs.index(a):
                    raise SchemaError(
                        "categorical attributes must precede numeric ones "
                        "(the paper's Section 1.1 convention); "
                        f"offending attribute: {a.name!r}"
                    )
                cat += 1
        self._attributes = attrs
        self._cat = cat
        #: :meth:`repro.query.Query.full` of this space, built on first use.
        self._full_query = None

    # The cached full query is derived data: it stays out of pickles, so
    # a space pickles to the same bytes before and after its first use.
    def __getstate__(self):
        return None, {"_attributes": self._attributes, "_cat": self._cat}

    def __setstate__(self, state) -> None:
        _, slots = state
        self._attributes = slots["_attributes"]
        self._cat = slots["_cat"]
        self._full_query = None

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def numeric(
        cls,
        d: int,
        bounds: Sequence[tuple[int, int]] | None = None,
        names: Sequence[str] | None = None,
    ) -> "DataSpace":
        """A purely numeric ``d``-dimensional space.

        ``bounds`` optionally attaches ``(lo, hi)`` metadata per attribute.
        """
        if d < 1:
            raise SchemaError("dimensionality must be at least 1")
        if names is None:
            names = [f"A{i + 1}" for i in range(d)]
        if len(names) != d:
            raise SchemaError(f"expected {d} names, got {len(names)}")
        attrs = []
        for i in range(d):
            lo, hi = (None, None) if bounds is None else bounds[i]
            attrs.append(_num(names[i], lo, hi))
        return cls(attrs)

    @classmethod
    def categorical(
        cls, domain_sizes: Sequence[int], names: Sequence[str] | None = None
    ) -> "DataSpace":
        """A purely categorical space with the given domain sizes."""
        if names is None:
            names = [f"A{i + 1}" for i in range(len(domain_sizes))]
        if len(names) != len(domain_sizes):
            raise SchemaError("names and domain_sizes lengths differ")
        return cls(_cat(n, u) for n, u in zip(names, domain_sizes))

    @classmethod
    def mixed(
        cls,
        categorical_attrs: Sequence[tuple[str, int]],
        numeric_names: Sequence[str],
        numeric_bounds: Sequence[tuple[int, int]] | None = None,
    ) -> "DataSpace":
        """A mixed space: ``categorical_attrs`` first, then numeric ones."""
        attrs = [_cat(name, size) for name, size in categorical_attrs]
        for i, name in enumerate(numeric_names):
            lo, hi = (
                (None, None) if numeric_bounds is None else numeric_bounds[i]
            )
            attrs.append(_num(name, lo, hi))
        return cls(attrs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The schema, in attribute order ``A1 .. Ad``."""
        return self._attributes

    @property
    def dimensionality(self) -> int:
        """``d``, the number of attributes."""
        return len(self._attributes)

    @property
    def cat(self) -> int:
        """The number of categorical attributes (they come first)."""
        return self._cat

    @property
    def num(self) -> int:
        """The number of numeric attributes (they come last)."""
        return len(self._attributes) - self._cat

    @property
    def kind(self) -> SpaceKind:
        """Numeric, categorical, or mixed, per the paper's taxonomy."""
        if self._cat == 0:
            return SpaceKind.NUMERIC
        if self._cat == len(self._attributes):
            return SpaceKind.CATEGORICAL
        return SpaceKind.MIXED

    @property
    def categorical_domain_sizes(self) -> tuple[int, ...]:
        """``(U1, .., Ucat)`` for the categorical prefix."""
        sizes = []
        for a in self._attributes[: self._cat]:
            assert a.domain_size is not None
            sizes.append(a.domain_size)
        return tuple(sizes)

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in order."""
        return tuple(a.name for a in self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __getitem__(self, index: int) -> Attribute:
        return self._attributes[index]

    def index_of(self, name: str) -> int:
        """Position of the attribute called ``name``.

        Raises
        ------
        SchemaError
            If no attribute has that name.
        """
        for i, a in enumerate(self._attributes):
            if a.name == name:
                return i
        raise SchemaError(f"no attribute named {name!r} in {self.names}")

    def validate_point(self, point: Sequence[int]) -> tuple[int, ...]:
        """Check ``point`` lies in the space and return it as a tuple."""
        if len(point) != self.dimensionality:
            raise SchemaError(
                f"point has {len(point)} coordinates, space has "
                f"{self.dimensionality}"
            )
        for value, attr in zip(point, self._attributes):
            if not attr.contains(int(value)):
                raise SchemaError(
                    f"value {value} outside domain of attribute {attr.name!r}"
                )
        return tuple(int(v) for v in point)

    def project(self, indices: Sequence[int]) -> "DataSpace":
        """A sub-space keeping only the attributes at ``indices``.

        The relative attribute order is preserved, so a valid
        (categorical-first) space projects to a valid space.  Used by the
        Figure 10b / 11b experiments, which vary dimensionality by taking
        subsets of a dataset's attributes.
        """
        if not indices:
            raise SchemaError("projection needs at least one attribute")
        ordered = sorted(set(indices))
        if ordered != list(indices):
            raise SchemaError(
                "projection indices must be strictly increasing to preserve "
                f"the attribute order, got {list(indices)}"
            )
        return DataSpace(self._attributes[i] for i in ordered)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataSpace):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self._attributes)
        return f"DataSpace({inner})"
