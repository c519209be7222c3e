"""Shared fixtures: session-scoped datasets and LM stacks.

Dataset generation and vocabulary construction are deterministic but not
free; sharing them across tests keeps the suite fast without coupling
tests (all shared objects are treated as read-only).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset import Syr2kTask, generate_dataset, syr2k_space
from repro.llm import GenerationEngine, SurrogateLM, Tokenizer
from repro.llm.prefix_cache import DECODE_STATES


@pytest.fixture(autouse=True)
def _cold_decode_states():
    """Start every test with an empty process-wide decode-state cache, so
    no test's hits or misses depend on which tests ran before it."""
    DECODE_STATES.clear()
    yield
    DECODE_STATES.clear()


@pytest.fixture(scope="session")
def space():
    return syr2k_space()


@pytest.fixture(scope="session")
def sm_dataset():
    return generate_dataset("SM")


@pytest.fixture(scope="session")
def xl_dataset():
    return generate_dataset("XL")


@pytest.fixture(scope="session")
def sm_task():
    return Syr2kTask("SM")


@pytest.fixture(scope="session")
def xl_task():
    return Syr2kTask("XL")


@pytest.fixture(scope="session")
def tokenizer():
    return Tokenizer()


@pytest.fixture(scope="session")
def lm(tokenizer):
    return SurrogateLM(tokenizer.vocab)


@pytest.fixture(scope="session")
def engine(lm):
    return GenerationEngine(lm)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
