"""Shared test doubles for the random stream interface and the math
module."""

import collections
import itertools
import math

import numpy as np
import pytest


class StubStream:
    """Scripted stand-in for RngStream: replays given draws in order."""

    def __init__(self, uniforms=(), integers=(), normals=None):
        self._uniforms = iter(uniforms)
        self._integers = iter(integers)
        # None -> endless zeros (degenerate normal draws)
        self._normals = iter(normals) if normals is not None else itertools.repeat(0.0)

    def uniform(self, low, high):
        return next(self._uniforms)

    def integers(self, n):
        return next(self._integers)

    def normal(self, size=None):
        if size is None:
            return next(self._normals)
        return np.array([next(self._normals) for _ in range(size)])

    # The block interface of a one-lane ``Lanes``, each draw taken from the
    # scalar calls above.  ``sel`` names lane 0 alone, so each call takes
    # one draw.
    def __len__(self):
        return 1

    def stream(self, i):
        return self

    def uniforms(self, sel, low, high):
        high = np.broadcast_to(high, len(sel))[0].item()
        return np.full(len(sel), self.uniform(low, high))

    def indices(self, sel, n):
        return np.full(len(sel), self.integers(n), dtype=np.intp)

    def normals(self, counts):
        return np.array([z for c in counts if c for z in self.normal(size=c)])


class MidpointStream(StubStream):
    """Uniform draws always land on the interval midpoint."""

    def uniform(self, low, high):
        return (low + high) / 2.0


class FullLegStream(StubStream):
    """Uniform draws take the whole remaining distance (single-leg trips)."""

    def uniform(self, low, high):
        return high


@pytest.fixture
def midpoint_stream():
    return MidpointStream()


class CountingMath:
    """Stands in for the ``math`` module, counting the calls of each of its
    functions in ``calls``."""

    def __init__(self):
        self.calls = collections.Counter()

    def __getattr__(self, name):
        function = getattr(math, name)

        def counted(*args):
            self.calls[name] += 1
            return function(*args)
        return counted
