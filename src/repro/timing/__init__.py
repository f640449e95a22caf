"""Trace-driven out-of-order timing simulation with data decoupling."""

from repro.timing.config import (DEFAULT_LATENCIES, MachineConfig,
                                 conventional_config, decoupled_config,
                                 figure8_configs)
from repro.timing.machine import TimingResult, simulate
from repro.timing.value_pred import StrideValuePredictor

__all__ = [
    "DEFAULT_LATENCIES",
    "MachineConfig",
    "conventional_config",
    "decoupled_config",
    "figure8_configs",
    "TimingResult",
    "simulate",
    "StrideValuePredictor",
]
