"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core.generator import CorrelatedHostGenerator
from repro.core.parameters import ModelParameters


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests asserting statistics rely on this seed."""
    return np.random.default_rng(20110611)


@pytest.fixture(scope="session")
def paper_params() -> ModelParameters:
    """The published Table X parameter set."""
    return ModelParameters.paper_reference()


@pytest.fixture(scope="session")
def paper_generator(paper_params: ModelParameters) -> CorrelatedHostGenerator:
    """A generator configured with the published parameters."""
    return CorrelatedHostGenerator(paper_params)


@pytest.fixture
def fault_plan(tmp_path):
    """``with fault_plan("SITE:key=value,...", ...):`` arms those inline
    fault specs for the block, child processes included; the firing log
    and ``once`` markers land in ``tmp_path/faults``."""
    from repro.faults import arm_process, deactivate, plan_from_cli_arg

    @contextlib.contextmanager
    def armed(*specs: str):
        arm_process(
            plan_from_cli_arg(";".join(specs)),
            state_dir=str(tmp_path / "faults"),
        )
        try:
            yield
        finally:
            deactivate()

    yield armed
    deactivate()


@pytest.fixture(scope="session")
def small_trace_config():
    """A reduced-scale synthetic world shared across test modules."""
    from repro.traces.config import TraceConfig

    return TraceConfig(scale=0.015)


@pytest.fixture(scope="session")
def small_trace(small_trace_config):
    """The synthetic trace generated from :func:`small_trace_config`."""
    from repro.traces.synthesis import generate_trace

    return generate_trace(small_trace_config)
