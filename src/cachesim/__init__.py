"""Deterministic simulator for provider-managed prompt caching.

Models exact-prefix KV reuse (token minimums, block granularity, TTLs,
read/write pricing) for multi-turn tool-calling agent sessions, and
provides an experiment harness that compares cache-boundary strategies
against a no-cache baseline with token-accounting ground truth plus a
parameterized latency model.

Each public name is imported from its home module on first access, so
``import cachesim`` loads no submodule, and numpy loads only with the
modules that compute (``tokens``, ``strategies``, ``engine``, ``replay``,
``workload`` and ``runner``).
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "config": ("AblationGrid", "ExperimentConfig", "LatencyModel", "StrategyMode",
               "WorkloadSpec", "load_config"),
    "engine": ("CacheStore", "access"),
    "errors": ("ConfigError", "TranscriptValidationError", "UndefinedBaselineError"),
    "policies": ("CacheMode", "PriceSchedule", "ProviderPolicy", "UsageRecord",
                 "builtin_policies", "builtin_policy", "policy_from_dict"),
    "replay": ("ConditionRun", "price_call"),
    "runner": ("run_ablation", "run_condition", "run_experiment"),
    "seeding": ("derive_seed",),
    "stats": ("Comparison", "ConditionSamples", "ExperimentReport", "TTestResult",
              "compare", "summarize_experiment", "welch_t"),
    "strategies": ("session_layout",),
    "tokens": ("Message", "Role", "synth_tokens"),
    "verify": ("verify_run",),
    "workload": ("SessionTranscript", "generate"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
