"""Shared fixtures."""

from __future__ import annotations

import gc

import pytest

from repro.config import ProtocolConfig
from repro.crypto.context import CryptoContext

from .helpers import make_crypto, saturated_config


def pytest_collection_finish(session):
    """What collection made (modules, items, fixtures, parameter ids) lives
    until the run ends: move it out of the cycle collector's generations,
    so each collection walks only what the tests themselves make."""
    gc.collect()
    gc.freeze()


@pytest.fixture
def small_config() -> ProtocolConfig:
    """n=20, f=3 — fast full-protocol runs with real (non-saturated) samples."""
    return ProtocolConfig(n=20, f=3)


@pytest.fixture
def sat_config() -> ProtocolConfig:
    """n=8, f=1 — saturated samples for deterministic certificate tests."""
    return saturated_config()


@pytest.fixture
def sat_crypto(sat_config) -> CryptoContext:
    return make_crypto(sat_config)


@pytest.fixture
def crypto20(small_config) -> CryptoContext:
    return make_crypto(small_config)
