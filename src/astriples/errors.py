"""Exception types shared across the library, and the one check of a
numeric parameter."""

import reprlib


class AstriplesError(Exception):
    """Base class for all library errors."""


class StructuralError(AstriplesError, ValueError):
    """Malformed input: not a partition, bad coordinates, bad file shape."""


class PreconditionError(AstriplesError, ValueError):
    """An operation was called outside its stated contract."""


class RefusalError(AstriplesError):
    """Well-formed input that fails a mathematical requirement.

    Carries a small witness of the failure when one is available.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SizeGuardError(AstriplesError, RuntimeError):
    """A resource guard (group size, enumeration scale) was exceeded."""


class ConsistencyError(AstriplesError, RuntimeError):
    """An internal invariant failed; signals a bug or a falsified theorem."""


def check_int(name, value, lo, hi=None):
    """``value`` when it is an int, not a bool, with lo <= value (<= the
    guard ``hi``); else :class:`PreconditionError`, or
    :class:`SizeGuardError` for a value above ``hi``."""
    if type(value) is not int:
        raise PreconditionError(
            f"{name} must be an int, got {reprlib.repr(value)}")
    if lo <= value and (hi is None or value <= hi):
        return value
    # past 4,300 digits the interpreter refuses an int's decimal form
    got = value if abs(value) < 2**64 else f"a {value.bit_length()}-bit int"
    if value < lo:
        raise PreconditionError(f"{name} must be at least {lo}, got {got}")
    raise SizeGuardError(f"{name} is guarded to at most {hi}, got {got}")
