"""Shared test doubles for the random stream interface."""

import itertools

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
