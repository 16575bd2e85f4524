"""Exception hierarchy for the orthoapart package, and the base of its
immutable value classes."""


class Value:
    """An immutable value.  A subclass lists its fields in __slots__ and sets
    them in __init__ through object.__setattr__.  Equality and hashing go by
    the field tuple, repr is Name(field=value, ...), and assignment or
    deletion raises AttributeError."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()


class OrthoapartError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(OrthoapartError):
    """Operands live in different ambient dimensions or have incompatible shapes."""


class SingularMatrix(OrthoapartError):
    """Attempted to invert a rank-deficient matrix."""


class IncompatibleFamily(OrthoapartError):
    """A family handed to the frame-refinement algorithm contains a
    non-compatible pair.  Carries the indices of the offending pair."""

    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"subspaces at positions {i} and {j} are not compatible")


class ThresholdViolation(OrthoapartError):
    """The ambient dimension is below the threshold required for the
    counting characterization of orthogonality (n >= 4k)."""


class ProjectionClass(OrthoapartError):
    """The requested construction needs at least two distinct eigenvalues;
    a projection class has exactly one operator per image."""


class NoRoom(OrthoapartError):
    """The ambient space is too small for the requested construction."""


class NotAnEigenline(OrthoapartError):
    """The given subspace is not a one-dimensional eigenspace of the operator."""


class NotAMember(OrthoapartError):
    """An operator or labeling does not belong to the apartment in question."""
