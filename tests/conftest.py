import numpy as np
import pytest

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__pow__", "__neg__", "__abs__", "__floordiv__", "__rfloordiv__")


def _recorded_kind():
    """A fresh int subclass whose arithmetic returns its own kind and whose
    `peak` is the largest magnitude any such result reached; `array(values)`
    turns integers (an int64 array, or an object array of ints of any size)
    into an object array of it.  Run an exact kernel on such arrays to see
    the largest intermediate it forms."""

    class Recorded(int):
        peak = 0

        @classmethod
        def of(cls, value):
            cls.peak = max(cls.peak, abs(int(value)))
            return cls(value)

        @classmethod
        def array(cls, values):
            values = np.asarray(values)
            if values.dtype != object:
                values = values.astype(np.int64)
            return np.array([cls.of(int(v)) for v in values.reshape(-1).tolist()],
                            dtype=object).reshape(values.shape)

    def operator(name):
        base = getattr(int, name)

        def apply(self, *other):
            out = base(self, *other)
            return out if out is NotImplemented else Recorded.of(out)
        return apply

    for name in _ARITHMETIC:
        setattr(Recorded, name, operator(name))
    return Recorded


@pytest.fixture
def recorded():
    """A fresh recorded int kind (_recorded_kind)."""
    return _recorded_kind()


@pytest.fixture
def recorded_kinds():
    """Makes fresh recorded int kinds (_recorded_kind), one a call, each
    with its own peak."""
    return _recorded_kind
