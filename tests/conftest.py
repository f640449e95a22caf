"""Shared test helpers: compile-and-run MiniC snippets, cached traces."""

from __future__ import annotations

import functools

import pytest

from repro import config
from repro.compiler import compile_source
from repro.cpu import run_program


@functools.lru_cache(maxsize=64)
def _cached_trace(source: str, name: str):
    return run_program(compile_source(source, name))


def run_minic(source: str, name: str = "test"):
    """Compile and execute MiniC source; returns the trace (cached)."""
    return _cached_trace(source, name)


@pytest.fixture
def minic():
    """Fixture handing tests the compile-and-run helper."""
    return run_minic


@pytest.fixture(autouse=True)
def _fresh_config():
    """Every test starts from the environment's configuration, and
    nothing a test installs leaks into the next one."""
    config.install(None)
    yield
    config.install(None)
