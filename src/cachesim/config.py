"""Experiment configuration: JSON schema, validation, and the JSON form.

A config file is one JSON object:

    {
      "master_seed": 42,
      "policies": ["gpt-4o", { ...inline policy object... }],
      "modes": ["no-cache", "full-context", "system-prompt",
                "exclude-tool-results"],
      "workload": { ...WorkloadSpec fields, seed optional... },
      "latency": {"default": { ...LatencyModel fields... },
                  "gpt-4o": { ... }},
      "warmup_sessions": 1,
      "alpha": 0.05,
      "output_dir": "out/main",
      "ttft_aggregation": "session-mean"
    }

Policies may be built-in names or inline policy objects (see the policy
JSON schema in :mod:`cachesim.policies`); any other key in a policy
object is rejected with its name. Unset workload and latency
seeds are derived from the master seed, one label per purpose, so runs
are reproducible from the single master value; every seed is an
integer in [0, 2**64). The last four keys above are optional, with
:class:`ExperimentConfig`'s defaults. A ``latency`` key is
``"default"`` or the name of a configured policy; unknown top-level keys
are ignored. No value is coerced: ``policies`` and ``modes`` must be
lists, ``output_dir`` and ``ttft_aggregation`` strings, and anything
else is a :class:`~cachesim.errors.ConfigError` naming the field.
``modes`` must include ``no-cache``, the baseline every report compares
against, and ``workload.sessions`` (evaluation sessions, warmup not
counted) must be at least 2, the smallest sample a comparison takes.
The run's sessions, warmup included, must pass the workload's own caps,
and its API calls (sessions x (tool_calls + 1) x policies x modes) must
be at most ``MAX_RUN_CALLS`` (2**20). A config that breaks any of these
fails to load, before anything runs.

:func:`to_json` gives the JSON form of a config, a policy or a report:
each dataclass maps to its fields, so every echoed object lists the
same fields as the dataclass behind it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

from .checks import is_finite_number, is_int, is_seed
from .errors import ConfigError
from .policies import ProviderPolicy, builtin_policy, policy_from_dict
from .replay import LatencyModel
from .seeding import derive_seed
from .strategies import StrategyMode
from .workload import WorkloadSpec

MAX_RUN_CALLS = 2**20

DEFAULT_GRIDS: dict[str, tuple[int, ...]] = {
    "prompt-size": (500, 2_000, 5_000, 10_000, 20_000, 50_000),
    "tool-count": (3, 5, 10, 20, 50),
}


@dataclass(frozen=True)
class AblationGrid:
    """One swept dimension and its values, strictly ascending."""

    dimension: str
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dimension not in DEFAULT_GRIDS:
            raise ConfigError(
                f"unknown ablation dimension {self.dimension!r}; "
                f"expected one of {sorted(DEFAULT_GRIDS)}")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ConfigError("ablation grid needs at least one value")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ConfigError(
                f"ablation grid values must be strictly ascending, got {list(self.values)}")


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    policies: tuple[ProviderPolicy, ...]
    modes: tuple[StrategyMode, ...]
    workload: WorkloadSpec
    latency: dict[str, LatencyModel] = field(default_factory=dict)
    warmup_sessions: int = 1
    alpha: float = 0.05
    output_dir: str = "out"
    # TTFT samples per condition: one mean per session, or every call pooled.
    ttft_aggregation: str = "session-mean"

    def __post_init__(self) -> None:
        if not self.policies:
            raise ConfigError("config needs at least one policy")
        names = [p.name for p in self.policies]
        if len(set(names)) != len(names):
            raise ConfigError("policy names must be unique")
        if len(self.modes) != len(set(self.modes)):
            raise ConfigError("modes must be unique")
        if StrategyMode.NO_CACHE not in self.modes:
            raise ConfigError(
                "baseline-relative reports need the no-cache mode in the mode list")
        if not is_finite_number(self.alpha) or not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be a number in (0, 1), got {self.alpha!r}")
        if self.workload.sessions < 2:
            raise ConfigError("workload.sessions must be at least 2, since reports compare "
                              f"per-session samples, got {self.workload.sessions}")
        if not is_int(self.warmup_sessions) or self.warmup_sessions < 0:
            raise ConfigError(
                f"warmup_sessions must be an integer >= 0, got {self.warmup_sessions!r}")
        try:
            run = self.run_workload
        except ValueError as exc:
            raise ConfigError(f"workload.sessions={self.workload.sessions} + "
                              f"warmup_sessions={self.warmup_sessions}: {exc}") from exc
        calls = run.sessions * (run.tool_calls + 1) * len(self.policies) * len(self.modes)
        if calls > MAX_RUN_CALLS:
            raise ConfigError(
                f"{run.sessions} sessions (warmup included) x {run.tool_calls + 1} calls x "
                f"{len(self.policies)} policies x {len(self.modes)} modes make {calls} "
                f"API calls, more than MAX_RUN_CALLS={MAX_RUN_CALLS}")
        if self.ttft_aggregation not in ("session-mean", "per-call"):
            raise ConfigError("ttft_aggregation must be 'session-mean' or 'per-call', "
                              f"got {self.ttft_aggregation!r}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        for key in self.latency:
            if key != "default" and key not in names:
                raise ConfigError(
                    f"latency key {key!r} names no configured policy; expected "
                    f"'default' or one of {names}")
        if "default" not in self.latency:
            missing = [n for n in names if n not in self.latency]
            if missing:
                raise ConfigError(
                    f"latency config missing for {missing} and no 'default' given")

    @cached_property
    def run_workload(self) -> WorkloadSpec:
        """The workload a run generates: its evaluation sessions plus the
        warmup sessions before them."""
        return dataclasses.replace(
            self.workload, sessions=self.workload.sessions + self.warmup_sessions)

    def latency_for(self, policy_name: str) -> LatencyModel:
        if policy_name in self.latency:
            return self.latency[policy_name]
        return self.latency["default"]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return dict(value)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a JSON list, got {value!r}")
    return value


def config_from_dict(data: dict, master_seed: int | None = None) -> ExperimentConfig:
    """Build a config from its JSON object.

    A ``master_seed`` given here overrides the document's and also
    replaces its workload seed, so the workload follows the new master
    seed; explicit latency seeds are kept.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    try:
        workload_raw = _object(data.get("workload", {}), "workload")
        if master_seed is None:
            master_seed = data.get("master_seed", 0)
        else:
            workload_raw.pop("seed", None)
        if not is_seed(master_seed):
            raise ConfigError(
                f"master_seed must be an integer in [0, 2**64), got {master_seed!r}")

        policies = []
        for entry in _list(data.get("policies", []), "policies"):
            if isinstance(entry, str):
                try:
                    policies.append(builtin_policy(entry))
                except KeyError as exc:
                    raise ConfigError(str(exc)) from exc
            elif isinstance(entry, dict):
                policies.append(policy_from_dict(entry))
            else:
                raise ConfigError(f"policy entries must be names or objects, got {entry!r}")

        modes = []
        for name in _list(data.get("modes", []), "modes"):
            try:
                modes.append(StrategyMode(name))
            except ValueError as exc:
                known = ", ".join(m.value for m in StrategyMode)
                raise ConfigError(f"unknown mode {name!r}; expected one of: {known}") from exc

        workload_raw.setdefault("seed", derive_seed(master_seed, "workload"))
        workload = WorkloadSpec(**workload_raw)

        latency = {}
        for key, params in _object(data.get("latency", {}), "latency").items():
            params = _object(params, f"latency[{key!r}]")
            params.setdefault("seed", derive_seed(master_seed, "latency"))
            latency[key] = LatencyModel(**params)
        if not latency:
            latency["default"] = LatencyModel(seed=derive_seed(master_seed, "latency"))

        return ExperimentConfig(
            master_seed=master_seed,
            policies=tuple(policies),
            modes=tuple(modes),
            workload=workload,
            latency=latency,
            **{key: data[key] for key in ("warmup_sessions", "alpha", "output_dir",
                                          "ttft_aggregation") if key in data},
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def to_json(value):
    """JSON form of a config, policy or report value.

    A dataclass maps to a dict of its fields, an Enum to its value, a
    tuple or list to a list and a dict to a dict, recursively; anything
    else is returned as it is.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    return value


def load_config(path: str | Path, master_seed: int | None = None) -> ExperimentConfig:
    """Read and validate a config file; ``master_seed`` is as in
    :func:`config_from_dict`."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return config_from_dict(data, master_seed)
