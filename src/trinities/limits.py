"""Enumeration caps, and the two kinds that every package exception is one of."""

DEFAULT_CAP = 10**6


class InputError(ValueError):
    """The input is malformed or refused: a command exits 2 with ``error: …``."""


class ModelFailure(RuntimeError):
    """A checked identity or invariant fails: a command exits 1 with a reason."""


class CapExceeded(InputError):
    """An enumeration would produce more objects than the configured cap."""

    def __init__(self, what, needed, cap):
        super().__init__(f"{what}: {needed} objects exceed cap {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


def check_cap(needed, cap, what):
    if cap is not None and needed > cap:
        raise CapExceeded(what, needed, cap)
