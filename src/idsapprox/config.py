"""Run configuration: JSON schema validation and object construction."""

from __future__ import annotations

import operator
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

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
)
from .operators import LocalRule, adjacency_rule, laplacian_rule, offset_table_rule, percolation_rule


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

_POSITIVE_INT = {"type": "integer", "minimum": 1}
# a colouring seed keys its hash as a signed 64-bit integer
_SEED = {"type": "integer", "minimum": -(2**63), "maximum": 2**63 - 1}
# most points of any one set a config may ask for: a 10^7-point tile builds in
# about 0.5 s; a Folner index beyond it would exhaust memory, not finish late
MAX_SET_POINTS = 10**7
SCHEMA = {
    "type": "object",
    "required": ["group", "colouring", "operator"],
    "additionalProperties": False,
    "properties": {
        "group": {"enum": ["zd", "h3"]},
        "d": {"type": "integer", "minimum": 1, "maximum": 8},
        "tile_n": {"type": "array", "items": _POSITIVE_INT},
        "folner_j": {"type": "array", "items": _POSITIVE_INT},
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
                "scale": _POSITIVE_INT,
            },
        },
        "colouring": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": _COLOURING_KINDS},
                "seed": _SEED,
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
                "reference_j": _POSITIVE_INT,
            },
        },
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "seeds": {"type": "array", "items": _SEED},
        "epsilons": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "freq_window": _POSITIVE_INT,
        "freq_max_domain": _POSITIVE_INT,
        "volume_side": _POSITIVE_INT,
        "kernel_seed": {"type": "integer"},
        "emit_raw_counting": {"type": "boolean"},
        "emit_eigenvalues": {"type": "boolean"},
        "workers": _POSITIVE_INT,
    },
}


# JSON Schema (Draft 2020-12) types: booleans are not numbers, integral floats are integers
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
_TYPES["integer"] = lambda v: _TYPES["number"](v) and (isinstance(v, int) or v.is_integer())
_BOUNDS = {"minimum": operator.lt, "maximum": operator.gt, "exclusiveMinimum": operator.le}


def schema_errors(schema: dict, value, path: tuple = ()) -> Iterator[tuple[tuple, str]]:
    """(path, message) for each violation of ``schema`` by ``value``, for the
    keywords SCHEMA uses, in schema order; a value of the wrong type is
    reported once, without checking the other keywords at its node."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        yield path, f"{value!r} is not of type {kind!r}"
        return
    for key, arg in schema.items():
        if key == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif key in _BOUNDS and _TYPES["number"](value) and _BOUNDS[key](value, arg):
            yield path, f"{value!r} violates {key} {arg!r}"
        elif key == "minItems" and isinstance(value, list) and len(value) < arg:
            yield path, f"{value!r} has fewer than {arg} items"
        elif key == "required" and isinstance(value, dict):
            yield from ((path, f"{n!r} is a required property") for n in arg if n not in value)
        elif key == "additionalProperties" and isinstance(value, dict) and arg is False:
            extra = [name for name in value if name not in schema.get("properties", {})]
            if extra:
                yield path, f"additional properties are not allowed: {extra!r}"
        elif key == "properties" and isinstance(value, dict):
            for name, sub in arg.items():
                if name in value:
                    yield from schema_errors(sub, value[name], path + (name,))
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from schema_errors(arg, item, path + (i,))


def validate_config(obj: dict) -> None:
    first = min(schema_errors(SCHEMA, obj), key=lambda e: e[0], default=None)
    if first is not None:
        path = "$" + "".join(f"[{p!r}]" if isinstance(p, int) else f".{p}" for p in first[0])
        raise ConfigError(path, first[1])
    if obj["group"] == "zd" and "d" not in obj:
        raise ConfigError("$.d", "lattice dimension d is required for group 'zd'")
    if obj["colouring"]["kind"] == "percolation" and "seed" not in obj["colouring"]:
        raise ConfigError("$.colouring.seed", "percolation colouring needs a seed")
    folner = obj.get("folner", {"kind": "tiles"})
    if folner.get("kind") == "interval" and (obj["group"] != "zd" or obj.get("d") != 1):
        raise ConfigError("$.folner.kind", "interval sequences require zd with d=1")
    tiles = lambda n: tile_points(obj, n)
    volumes = (lambda j: int(folner.get("scale", 3)) * j) if folner.get("kind") == "interval" else tiles
    sized = [(f"$.folner_j[{i}]", j, volumes) for i, j in enumerate(obj.get("folner_j", []))]
    sized += [(f"$.tile_n[{i}]", n, tiles) for i, n in enumerate(obj.get("tile_n", []))]
    if "reference_j" in obj.get("frequencies", {}):
        sized.append(("$.frequencies.reference_j", obj["frequencies"]["reference_j"], volumes))
    sized += [(f"$.{key}", obj[key], tiles) for key in ("freq_window", "volume_side") if key in obj]
    if obj["colouring"]["kind"] == "periodic":
        with suppress(KeyError, TypeError, ValueError):  # reported when the colouring is built
            sized.append(("$.colouring.params.tile_n", int(obj["colouring"]["params"]["tile_n"]), tiles))
    for path, n, points in sized:
        check_set_size(path, n, points(int(n)))


def _integral(schema: dict, value):
    """A copy of the validated ``value`` in which every integral float at an
    "integer" node of ``schema`` is an int."""
    if schema.get("type") == "integer":
        return int(value)
    if isinstance(value, dict) and "properties" in schema:
        return {k: _integral(schema["properties"].get(k, {}), v) for k, v in value.items()}
    if isinstance(value, list) and "items" in schema:
        return [_integral(schema["items"], v) for v in value]
    return value


def tile_points(obj: dict, n: int) -> int:
    """|Q_n| on the group of a validated config: n^4 on H3, n^d on Z^d."""
    return n**4 if obj["group"] == "h3" else n ** int(obj["d"])


def check_set_size(path: str, n: int, points: int) -> None:
    """Reject the value n at ``path`` if the set it asks for has more than
    MAX_SET_POINTS points, before that set is built."""
    if points > MAX_SET_POINTS:
        raise ConfigError(path, f"{n} asks for a set of {points} points, more than {MAX_SET_POINTS}")


@dataclass
class RunConfig:
    """Validated run configuration with constructors for every ingredient."""

    raw: dict
    tolerance: Optional[float] = None

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        validate_config(obj)
        return cls(raw=_integral(SCHEMA, obj), tolerance=obj.get("tolerance"))

    # -- constructors ---------------------------------------------------------

    def model(self) -> GroupModel:
        if self.raw["group"] == "h3":
            return Heisenberg3()
        return FreeAbelian(self.raw["d"])

    def colouring(self, model: GroupModel, seed_override: Optional[int] = None) -> Colouring:
        spec = self.raw["colouring"]
        kind = spec["kind"]
        params = spec.get("params", {})
        seed = seed_override if seed_override is not None else spec.get("seed", 0)
        with _params_errors("$.colouring.params"):
            if kind == "trivial":
                return TrivialColouring(model, params.get("symbol", "o"))
            if kind == "halfline_mod3":
                return HalfLineMod3(model)
            if kind == "halfline_mod3_window":
                return HalfLineMod3Window(model)
            if kind == "percolation":
                alphabet = Alphabet(_symbols(params.get("alphabet", ["open", "closed"])))
                weights = params.get("weights")
                if weights is not None:
                    weights = [Fraction(w) for w in weights]
                return PercolationColouring(model, alphabet, seed, weights)
            if kind == "periodic":
                tiling = folner_set(model, int(params["tile_n"]))
                table = {_parse_coords(k): v for k, v in params["table"].items()}
                return PeriodicFoldColouring(tiling, table)
            if kind == "explicit":
                alphabet = Alphabet(_symbols(params["alphabet"]))
                table = {_parse_coords(k): v for k, v in params.get("table", {}).items()}
                return ExplicitColouring(model, alphabet, table, params["default"])
        raise ConfigError("$.colouring.kind", f"unknown colouring {kind!r}")

    def rule(self, model: GroupModel, colouring: Colouring) -> LocalRule:
        spec = self.raw["operator"]
        kind = spec["kind"]
        params = spec.get("params", {})
        with _params_errors("$.operator.params"):
            if kind == "adjacency":
                return adjacency_rule(model)
            if kind == "percolation":
                return percolation_rule(model, colouring.alphabet, _symbols(params["retained"]))
            if kind == "laplacian":
                base_spec = params.get("base", {"kind": "adjacency", "params": {}})
                if base_spec["kind"] == "adjacency":
                    base = adjacency_rule(model)
                elif base_spec["kind"] == "percolation":
                    retained = _symbols(base_spec["params"]["retained"])
                    base = percolation_rule(model, colouring.alphabet, retained)
                else:
                    raise ConfigError("$.operator.params.base.kind", "unsupported base rule")
                return laplacian_rule(base)
            if kind == "hop_table":
                table = {_parse_coords(k): float(v) for k, v in params["table"].items()}
                return offset_table_rule(model, table)
        raise ConfigError("$.operator.kind", f"unknown operator {kind!r}")

    def folner_sides(self, model: GroupModel) -> dict[str, Callable[[int], FiniteSet]]:
        folner = self.raw.get("folner", {"kind": "tiles"})
        if folner.get("kind", "tiles") == "tiles":
            return {"tiles": lambda j: folner_set(model, j).tile}
        scale = folner.get("scale", 3)
        return {
            side: (lambda j, s=side: interval_folner(model, j, scale=scale, side=s))
            for side in folner.get("sides", ["positive"])
        }

    def folner_indices(self) -> list[int]:
        return sorted(set(self.raw.get("folner_j", [2, 3, 4])))

    def tile_indices(self) -> list[int]:
        return sorted(set(self.raw.get("tile_n", [1, 2])))

    def tiling_specs(self, model: GroupModel) -> list[TilingSpec]:
        return [folner_set(model, n) for n in self.tile_indices()]

    def frequency_provider(self, colouring: Colouring, reference: FiniteSet) -> FrequencyProvider:
        kind = self.raw.get("frequencies", {}).get("kind", "auto")
        # the trivial colouring is the one-symbol i.i.d. colouring
        analytic = isinstance(colouring, (TrivialColouring, PercolationColouring))
        if kind == "empirical" or (kind == "auto" and not analytic):
            return EmpiricalFrequencies(colouring, reference)
        if not analytic:
            raise ConfigError(
                "$.frequencies.kind",
                f"no analytic frequencies for colouring {colouring.describe()}",
            )
        return PercolationFrequencies(colouring)


@contextmanager
def _params_errors(path: str) -> Iterator[None]:
    """Report a construction failure of the ingredient at ``path`` as a config error."""
    try:
        yield
    except ConfigError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(path, f"{type(exc).__name__}: {exc}") from exc


def _symbols(value: object) -> tuple[str, ...]:
    """A JSON list of symbols; a string would otherwise split into its characters."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list of symbols")
    return tuple(value)


def _parse_coords(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))
