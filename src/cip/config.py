"""Run configuration: inference hyper-parameters and decoding policy flags."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import IO

from .core import _boolean, _field, _integer, _number, _object
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
        obj = json.load(stream)
        if not isinstance(obj, dict):
            raise ValueError("config file must contain a JSON object")
        names = {f.name for f in fields(cls)}
        for key in obj:
            if key not in names:
                raise ValueError(f"bad config: unknown key {key!r}")
        return cls(
            lr=_params(LrParams, obj, "lr"),
            pr=_params(PrParams, obj, "pr"),
            root_counts_left=_field(obj, "root_counts_left", _boolean, "bad config", False),
            single_root=_field(obj, "single_root", _boolean, "bad config", False),
        )


def _params(cls: type, config: dict, section: str) -> LrParams | PrParams:
    """``cls`` of ``config[section]``, each field read as the JSON type of its default."""
    where = f"bad config: {section}"
    obj = _field(config, section, _object, "bad config", {})
    convert = {f.name: {int: _integer, float: _number}[type(f.default)] for f in fields(cls)}
    for key in obj:
        if key not in convert:
            raise ValueError(f"{where}: unknown key {key!r}")
    values = {key: _field(obj, key, convert[key], where) for key in obj}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
