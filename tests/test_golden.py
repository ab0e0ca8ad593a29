"""Byte-identity contract: a small simulate run whose artifacts must not change.

The config covers all four strategies, both cache modes, refresh-on-read,
entries that expire (two inline breakpoint policies with a 2.5 s TTL: the
one without refresh-on-read loses its system-prompt entry between reads,
the other keeps it) and opportunistic segments (an inline automatic
policy). Any change to what a call reads, writes, costs or takes, or to
how the artifacts are written, changes a digest. A change that is meant to
alter results records the new digests with the reason in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json

from cachesim.cli import EXIT_OK, main
from cachesim.config import config_from_dict, load_config, to_json
from cachesim.policies import builtin_policy
from cachesim.runner import verify_run


def _inline(base: str, name: str, **rules) -> dict:
    policy = to_json(builtin_policy(base))
    policy.update({"name": name, "min_cache_tokens": 256, **rules})
    return policy


GOLDEN_CONFIG = {
    "master_seed": 11,
    "policies": [
        "gpt-4o",
        "claude-sonnet-4.5",
        _inline("claude-sonnet-4.5", "short-ttl", ttl_seconds=2.5, refresh_on_read=False),
        _inline("claude-sonnet-4.5", "short-ttl-refresh", ttl_seconds=2.5,
                refresh_on_read=True),
        _inline("gpt-4o", "segments", granularity_tokens=32, opportunistic_segments=True),
    ],
    "modes": ["no-cache", "full-context", "system-prompt", "exclude-tool-results"],
    "workload": {
        "system_prompt_tokens": 1200, "question_tokens": 40, "tool_calls": 3,
        "tool_call_tokens": 20, "tool_result_tokens": 300,
        "reasoning_tokens_per_turn": 20, "final_answer_tokens": 30,
        "inter_call_gap_seconds": 1.0, "sessions": 3,
    },
    "latency": {"default": {
        "base_ms": 50.0, "per_uncached_token_ms": 0.05,
        "per_cached_token_ms": 0.005, "per_write_token_ms": 0.01,
        "noise_sigma": 0.1,
    }},
    "warmup_sessions": 1,
    "alpha": 0.05,
    "output_dir": "out/golden",
}

GOLDEN_DIGESTS = {
    "per_call.csv": "739f1b97e78e5f9f7818aaa8a4a14bbfc7d598497e84dccc73cd18e7fc091a69",
    "per_session.csv": "9a9fcf9096f47f4aae0ddcf43fe5a58e1b9d5daa46e77bf821dbec3174aaafa3",
    "summary.json": "93befeeca324cb83b1a059b33e5598d8d659a528cb6395f4d8636c0422973df2",
}


def test_golden_artifacts_are_byte_identical(tmp_path):
    config = tmp_path / "golden.json"
    config.write_text(json.dumps(GOLDEN_CONFIG))
    out = tmp_path / "out"
    assert main(["simulate", str(config), "--out", str(out)]) == EXIT_OK
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_DIGESTS}
    assert digests == GOLDEN_DIGESTS
    assert verify_run(out) == []


def test_config_echo_reads_back_as_the_loaded_config(tmp_path):
    """``summary.json``'s config echo is itself a config: reading it back
    gives the config the run loaded, the inline policies' segments, short
    TTLs and refresh-on-read included."""
    config = tmp_path / "golden.json"
    config.write_text(json.dumps(GOLDEN_CONFIG))
    out = tmp_path / "out"
    assert main(["simulate", str(config), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert config_from_dict(summary["config"]) == load_config(config)
