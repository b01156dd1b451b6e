"""Time-stepped simulation substrate."""

from .config import SimulationConfig
from .results import NodeSummary, RunResult
from .simulator import Simulator

__all__ = [
    "SimulationConfig",
    "NodeSummary",
    "RunResult",
    "Simulator",
]
