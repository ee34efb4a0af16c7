"""Learning-based licensed/unlicensed spectrum allocation simulator."""

from .scenario import ALGORITHMS, ScenarioConfig, desk_config
from .harness import monte_carlo, run, sweep

__all__ = ["ALGORITHMS", "ScenarioConfig", "desk_config", "monte_carlo",
           "run", "sweep"]
