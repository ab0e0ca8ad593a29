"""Deterministic simulator for provider-managed prompt caching.

Models exact-prefix KV reuse (token minimums, block granularity, TTLs,
read/write pricing) for multi-turn tool-calling agent sessions, and
provides an experiment harness that compares cache-boundary strategies
against a no-cache baseline with token-accounting ground truth plus a
parameterized latency model.
"""

from .config import AblationGrid, ExperimentConfig, load_config
from .engine import CacheStore, access
from .errors import ConfigError, TranscriptValidationError, UndefinedBaselineError
from .policies import (CacheMode, PriceSchedule, ProviderPolicy, UsageRecord,
                       builtin_policies, builtin_policy, policy_from_dict,
                       price_call)
from .replay import ConditionRun, LatencyModel, run_condition
from .runner import run_ablation, run_experiment, verify_run
from .seeding import derive_seed
from .stats import (Comparison, ConditionSamples, ExperimentReport, TTestResult,
                    compare, summarize_experiment, welch_t)
from .strategies import StrategyMode, session_layout
from .tokens import Message, Role, synth_tokens
from .workload import SessionTranscript, WorkloadSpec, generate

__version__ = "0.1.0"

__all__ = [
    "AblationGrid", "CacheMode", "CacheStore", "Comparison",
    "ConditionRun", "ConditionSamples", "ConfigError", "ExperimentConfig",
    "ExperimentReport", "LatencyModel", "Message", "PriceSchedule",
    "ProviderPolicy", "Role", "SessionTranscript",
    "StrategyMode", "TTestResult", "TranscriptValidationError",
    "UndefinedBaselineError", "UsageRecord",
    "WorkloadSpec", "access", "builtin_policies", "builtin_policy", "compare",
    "derive_seed", "generate", "load_config",
    "policy_from_dict", "price_call", "run_ablation",
    "run_condition", "run_experiment", "session_layout", "summarize_experiment",
    "synth_tokens", "verify_run", "welch_t",
]
