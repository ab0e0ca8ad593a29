"""Deterministic simulator for provider-managed prompt caching.

Models exact-prefix KV reuse (token minimums, block granularity, TTLs,
read/write pricing) for multi-turn tool-calling agent sessions, and
provides an experiment harness that compares cache-boundary strategies
against a no-cache baseline with token-accounting ground truth plus a
parameterized latency model.
"""

from .config import AblationGrid, ExperimentConfig, load_config
from .engine import CacheEntry, CacheStore, access, oracle_access
from .errors import (ConfigError, DegenerateFitError, TranscriptParseError,
                     TranscriptValidationError, UndefinedBaselineError)
from .policies import (CacheMode, PriceSchedule, ProviderPolicy, UsageRecord,
                       builtin_policies, builtin_policy, policy_from_dict,
                       price_call, price_storage)
from .replay import (CalibrationResult, CallResult, ConditionRun, LatencyModel,
                     SessionResult, VirtualClock, calibrate_latency,
                     replay_call, run_condition)
from .runner import run_ablation, run_experiment, verify_run
from .seeding import derive_seed
from .stats import (Comparison, ConditionSamples, ExperimentReport, TTestResult,
                    compare, regularized_incomplete_beta, student_t_two_sided_p,
                    summarize_experiment, welch_t)
from .strategies import StrategyMode, apply_strategy, request_prompt, session_layout
from .tokens import (Message, Prompt, Role, TokenSeq, flat_length, flatten,
                     synth_tokens)
from .workload import (SessionTranscript, WorkloadSpec, export_transcripts,
                       generate, ingest)

__version__ = "0.1.0"

__all__ = [
    "AblationGrid", "CacheEntry", "CacheMode", "CacheStore",
    "CalibrationResult", "CallResult", "Comparison", "ConditionRun",
    "ConditionSamples", "ConfigError", "DegenerateFitError", "ExperimentConfig",
    "ExperimentReport", "LatencyModel", "Message", "PriceSchedule", "Prompt",
    "ProviderPolicy", "Role", "SessionResult", "SessionTranscript",
    "StrategyMode", "TTestResult", "TokenSeq", "TranscriptParseError",
    "TranscriptValidationError", "UndefinedBaselineError", "UsageRecord",
    "VirtualClock", "WorkloadSpec", "access", "apply_strategy",
    "builtin_policies", "builtin_policy", "calibrate_latency",
    "compare", "derive_seed", "export_transcripts", "flat_length", "flatten",
    "generate", "ingest", "load_config", "oracle_access",
    "policy_from_dict", "price_call", "price_storage",
    "regularized_incomplete_beta", "replay_call", "request_prompt", "run_ablation",
    "run_condition", "run_experiment", "session_layout", "student_t_two_sided_p",
    "summarize_experiment", "synth_tokens", "verify_run", "welch_t",
]
