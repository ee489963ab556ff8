"""Run configuration: JSON schema validation and object construction."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import jsonschema

from .cayley import FiniteSet, FreeAbelian, GroupModel, Heisenberg3, TilingSpec, folner_set, interval_folner
from .colouring import (
    Alphabet,
    Colouring,
    EmpiricalFrequencies,
    ExplicitColouring,
    FrequencyProvider,
    HalfLineMod3,
    HalfLineMod3Window,
    PercolationColouring,
    PercolationFrequencies,
    PeriodicFoldColouring,
    TrivialColouring,
    TrivialFrequencies,
)
from .operators import LocalRule, adjacency_rule, laplacian_rule, percolation_rule


class ConfigError(ValueError):
    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def as_json(self) -> dict:
        return {"error": "config", "path": self.path, "message": self.message}


_COLOURING_KINDS = [
    "trivial",
    "halfline_mod3",
    "halfline_mod3_window",
    "percolation",
    "periodic",
    "explicit",
]
_OPERATOR_KINDS = ["adjacency", "percolation", "laplacian", "hop_table"]

SCHEMA = {
    "type": "object",
    "required": ["group", "colouring", "operator"],
    "additionalProperties": False,
    "properties": {
        "group": {"enum": ["zd", "h3"]},
        "d": {"type": "integer", "minimum": 1, "maximum": 8},
        "tile_n": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
        },
        "folner_j": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
        },
        "folner": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["tiles", "interval"]},
                "sides": {
                    "type": "array",
                    "items": {"enum": ["positive", "negative"]},
                    "minItems": 1,
                },
                "scale": {"type": "integer", "minimum": 1},
            },
        },
        "colouring": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": _COLOURING_KINDS},
                "seed": {"type": "integer"},
                "params": {"type": "object"},
            },
        },
        "operator": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": _OPERATOR_KINDS},
                "params": {"type": "object"},
            },
        },
        "frequencies": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["auto", "empirical", "analytic"]},
                "reference_j": {"type": "integer", "minimum": 1},
            },
        },
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "seeds": {"type": "array", "items": {"type": "integer"}},
        "epsilons": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "freq_window": {"type": "integer", "minimum": 1},
        "freq_max_domain": {"type": "integer", "minimum": 1},
        "volume_side": {"type": "integer", "minimum": 1},
        "kernel_seed": {"type": "integer"},
        "emit_raw_counting": {"type": "boolean"},
        "emit_eigenvalues": {"type": "boolean"},
        "workers": {"type": "integer", "minimum": 1},
    },
}


def validate_config(obj: dict) -> None:
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "$" + "".join(
            f"[{p!r}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
        )
        raise ConfigError(path, err.message)
    if obj["group"] == "zd" and "d" not in obj:
        raise ConfigError("$.d", "lattice dimension d is required for group 'zd'")
    if obj["colouring"]["kind"] == "percolation" and "seed" not in obj["colouring"]:
        raise ConfigError("$.colouring.seed", "percolation colouring needs a seed")
    folner = obj.get("folner", {"kind": "tiles"})
    if folner.get("kind") == "interval" and (obj["group"] != "zd" or obj.get("d") != 1):
        raise ConfigError("$.folner.kind", "interval sequences require zd with d=1")


@dataclass
class RunConfig:
    """Validated run configuration with constructors for every ingredient."""

    raw: dict
    tolerance: Optional[float] = None
    workers: int = 1

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        validate_config(obj)
        return cls(
            raw=obj,
            tolerance=obj.get("tolerance"),
            workers=int(obj.get("workers", 1)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            obj = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("$", f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("$", "top-level config must be an object")
        return cls.from_dict(obj)

    # -- constructors ---------------------------------------------------------

    def model(self) -> GroupModel:
        if self.raw["group"] == "h3":
            return Heisenberg3()
        return FreeAbelian(int(self.raw["d"]))

    def colouring(self, model: GroupModel, seed_override: Optional[int] = None) -> Colouring:
        spec = self.raw["colouring"]
        kind = spec["kind"]
        params = spec.get("params", {})
        seed = seed_override if seed_override is not None else spec.get("seed", 0)
        if kind == "trivial":
            return TrivialColouring(model, params.get("symbol", "o"))
        if kind == "halfline_mod3":
            return HalfLineMod3(model)
        if kind == "halfline_mod3_window":
            return HalfLineMod3Window(model)
        if kind == "percolation":
            alphabet = Alphabet(tuple(params.get("alphabet", ["open", "closed"])))
            weights = params.get("weights")
            if weights is not None:
                weights = [Fraction(w) for w in weights]
            return PercolationColouring(model, alphabet, seed, weights)
        if kind == "periodic":
            spec_n = int(params["tile_n"])
            tiling = folner_set(model, spec_n)
            table = {_parse_coords(k): v for k, v in params["table"].items()}
            return PeriodicFoldColouring(tiling, table)
        if kind == "explicit":
            alphabet = Alphabet(tuple(params["alphabet"]))
            table = {_parse_coords(k): v for k, v in params.get("table", {}).items()}
            return ExplicitColouring(model, alphabet, table, params["default"])
        raise ConfigError("$.colouring.kind", f"unknown colouring {kind!r}")

    def rule(self, model: GroupModel, colouring: Colouring) -> LocalRule:
        spec = self.raw["operator"]
        kind = spec["kind"]
        params = spec.get("params", {})
        if kind == "adjacency":
            return adjacency_rule(model)
        if kind == "percolation":
            return percolation_rule(model, colouring.alphabet, params["retained"])
        if kind == "laplacian":
            base_spec = params.get("base", {"kind": "adjacency", "params": {}})
            if base_spec["kind"] == "adjacency":
                base = adjacency_rule(model)
            elif base_spec["kind"] == "percolation":
                base = percolation_rule(
                    model, colouring.alphabet, base_spec["params"]["retained"]
                )
            else:
                raise ConfigError("$.operator.params.base.kind", "unsupported base rule")
            return laplacian_rule(base)
        if kind == "hop_table":
            from .operators import offset_table_rule

            table = {_parse_coords(k): float(v) for k, v in params["table"].items()}
            return offset_table_rule(model, table)
        raise ConfigError("$.operator.kind", f"unknown operator {kind!r}")

    def folner_sides(self, model: GroupModel) -> dict[str, Callable[[int], FiniteSet]]:
        folner = self.raw.get("folner", {"kind": "tiles"})
        if folner.get("kind", "tiles") == "tiles":
            return {"tiles": lambda j: folner_set(model, j).tile}
        scale = int(folner.get("scale", 3))
        sides = folner.get("sides", ["positive"])
        out: dict[str, Callable[[int], FiniteSet]] = {}
        for side in sides:
            out[side] = (
                lambda j, s=side: interval_folner(model, j, scale=scale, side=s)
            )
        return out

    def folner_indices(self) -> list[int]:
        return sorted(set(self.raw.get("folner_j", [2, 3, 4])))

    def tile_indices(self) -> list[int]:
        return sorted(set(self.raw.get("tile_n", [1, 2])))

    def tiling_specs(self, model: GroupModel) -> list[TilingSpec]:
        return [folner_set(model, n) for n in self.tile_indices()]

    def frequency_provider(
        self,
        model: GroupModel,
        colouring: Colouring,
        reference: FiniteSet,
    ) -> FrequencyProvider:
        spec = self.raw.get("frequencies", {"kind": "auto"})
        kind = spec.get("kind", "auto")
        if kind == "auto":
            if isinstance(colouring, TrivialColouring):
                kind = "analytic"
            elif isinstance(colouring, PercolationColouring):
                kind = "analytic"
            else:
                kind = "empirical"
        if kind == "analytic":
            if isinstance(colouring, TrivialColouring):
                return TrivialFrequencies(model, colouring.symbol)
            if isinstance(colouring, PercolationColouring):
                return PercolationFrequencies(colouring)
            raise ConfigError(
                "$.frequencies.kind",
                f"no analytic frequencies for colouring {colouring.describe()}",
            )
        return EmpiricalFrequencies(colouring, reference)


def _parse_coords(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))
