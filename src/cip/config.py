"""Run configuration: inference hyper-parameters and decoding policy flags."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO

from .core import _read
from .lagrangian import LrParams
from .posterior import PrParams


@dataclass(frozen=True)
class InferenceConfig:
    lr: LrParams = field(default_factory=LrParams)
    pr: PrParams = field(default_factory=PrParams)
    root_counts_left: bool = False
    single_root: bool = False

    @classmethod
    def from_stream(cls, stream: IO[str]) -> "InferenceConfig":
        """Load a JSON config; absent keys keep their defaults.  A malformed
        one raises ``ValueError`` naming the section and the key."""
        return _read(cls, json.load(stream), "bad config")
