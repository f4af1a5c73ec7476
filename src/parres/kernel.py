"""The reduction kernel: one factory for every reducer parres builds.

All normal-form reduction of packed vectors goes through `PyReducer`, and
every reducer is made here, for `_engine.buchberger` alone (no reducer is
built lazily), so a build can be counted or replaced at one point.
"""

from __future__ import annotations

from ._engine import PyReducer


def reducer_factory(ctx, p):
    return PyReducer(ctx, p)
