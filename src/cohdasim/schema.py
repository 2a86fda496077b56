"""Scenario and design file format.

Scenario and design files are YAML key trees with strict schema validation:
unknown keys, missing keys and bad values are rejected with file, line and
column. Each section is one table of fields. A field gives the YAML key, the
dataclass attribute it fills and a typed reader. Parsing and dumping walk
the same table, so the dump's key order is the table order. A key that is
missing or null takes the dataclass default. A design factor's path is a
key of the scenario file: ``with_keys`` sets it in the base scenario's dump,
and the same reader reads the result. ``ExperimentDesign`` locates each
refusal at the key of the design file that it belongs to.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .core import PlanningHorizon, StructuralError, TargetProfile
from .flexibility import DeviceModel
from .scenario import (
    BUILTIN_SCENARIOS,
    DeviceGroup,
    SamplingSpec,
    Scenario,
    SeedBlock,
    TopologySpec,
)
from .simnet import ConstantDelay, ExponentialDelay, NetworkModel, RunLimits, UniformDelay

__all__ = [
    "ScenarioError",
    "UnknownPathError",
    "DesignError",
    "ExperimentDesign",
    "factor_cell",
    "load_scenario",
    "load_design",
    "parse_scenario_mapping",
    "scenario_to_mapping",
    "with_keys",
]


class ScenarioError(ValueError):
    """Scenario or design file problem, with location when available."""

    def __init__(self, message: str, location: str | None = None):
        super().__init__(f"{location}: {message}" if location else message)


class UnknownPathError(StructuralError):
    """A dotted path names no key of the scenario file."""


class DesignError(StructuralError):
    """A refused experiment design, located where a design file puts the
    refusal: at ``key`` (``path``, ``values``, ``replications`` or
    ``factors``) of the factor at index ``factor``, or of the design itself
    when ``factor`` is None."""

    def __init__(self, message: str, factor: int | None, key: str):
        super().__init__(message)
        self.factor = factor
        self.key = key


class _MarkedDict(dict):
    """Mapping that remembers the source line/column of every key."""

    def __init__(self):
        super().__init__()
        self.key_marks: dict[str, tuple[int, int]] = {}
        self.mark: tuple[int, int] | None = None


# libyaml's parser, where PyYAML has it, builds the same nodes with the same
# marks as the pure-Python one, several times faster; only the wording
# of its syntax errors differs.
class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    pass


def _construct_mapping(loader: _Loader, node):
    loader.flatten_mapping(node)
    out = _MarkedDict()
    out.mark = (node.start_mark.line + 1, node.start_mark.column + 1)
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=True)
        if key in out:
            mark = key_node.start_mark
            raise yaml.constructor.ConstructorError(None, None, f"duplicate key {key!r}", mark)
        out[key] = loader.construct_object(value_node, deep=True)
        out.key_marks[key] = (key_node.start_mark.line + 1, key_node.start_mark.column + 1)
    return out


_Loader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping)


def _load_yaml(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror}")
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else str(path)
        raise ScenarioError(f"YAML parse error: {exc.problem}", where)
    if not isinstance(data, Mapping):
        raise ScenarioError("top level must be a mapping", str(path))
    return data


class _Invalid(Exception):
    """A problem found in ``mapping`` (under ``key``); the public entry points
    turn it into a ``ScenarioError`` located in the source file."""

    def __init__(self, message: str, mapping=None, key=None):
        super().__init__(message)
        self.mapping = mapping
        self.key = key

    def at(self, source: str) -> ScenarioError:
        mark = None
        if isinstance(self.mapping, _MarkedDict):
            marks = self.mapping.key_marks
            mark = marks.get(self.key, self.mapping.mark)
        return ScenarioError(str(self), source if mark is None else f"{source}:{mark[0]}:{mark[1]}")


def _check_keys(mapping, allowed: set[str], required: set[str], ctx: str):
    if not isinstance(mapping, Mapping):
        raise _Invalid(f"{ctx} must be a mapping")
    for key in mapping:
        if key not in allowed:
            raise _Invalid(f"unknown key {key!r} in {ctx}", mapping, key)
    for key in required:
        if key not in mapping:
            raise _Invalid(f"missing key {key!r} in {ctx}", mapping)


# --- typed readers ------------------------------------------------------------
# A reader turns one YAML value into an attribute value, or raises ValueError
# saying what is wrong with it; ``_read`` adds the key and its location.


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError("must be finite")
    return number


def _integer(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("must be an integer")
    return value


def _boolean(value):
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _name(value):
    if not isinstance(value, str):
        raise ValueError("must be a string")
    return value


def _list_of(read):
    def read_list(value):
        if not isinstance(value, list):
            raise ValueError("must be a list")
        return tuple(read(v) for v in value)

    return read_list


def _per_interval(value):
    """One number for every interval, or a list of one number per interval."""
    return _list_of(_number)(value) if isinstance(value, list) else _number(value)


def _delay(value):
    kind = value.get("kind") if isinstance(value, Mapping) else None
    if not isinstance(kind, str) or kind not in _DELAYS:
        raise ValueError(f"needs kind: {' | '.join(_DELAYS)}")
    cls, fields = _DELAYS[kind]
    values = _read(value, (Field("kind", "kind", _name, True),) + fields, "network.delay")
    del values["kind"]
    return cls(**values)


def _dump_delay(delay) -> dict:
    kind, fields = next((kind, fields) for kind, (cls, fields) in _DELAYS.items()
                        if isinstance(delay, cls))
    return {"kind": kind, **_dump(delay, fields)}


def _factor(block):
    return tuple(_read(block, _FACTOR, "factors[]").values())  # (path, values)


@dataclass(frozen=True)
class Field:
    """One key of a section: YAML key, dataclass attribute, typed reader."""

    key: str
    attr: str
    read: Callable = _number
    required: bool = False
    dump: Callable = lambda value: value  # attribute value -> YAML value


def _read(block, fields, ctx: str) -> dict:
    """Attribute values of the fields set in ``block``."""
    _check_keys(block, {f.key for f in fields}, {f.key for f in fields if f.required}, ctx)
    values = {}
    for f in fields:
        value = block.get(f.key)
        if value is None and not f.required:
            continue
        try:
            values[f.attr] = f.read(value)
        except ValueError as exc:
            raise _Invalid(f"{ctx}.{f.key} {exc}", block, f.key) from None
    return values


def _build(cls, values: dict, block, key=None):
    try:
        return cls(**values)
    except ValueError as exc:
        raise _Invalid(str(exc), block, key) from None


def _build_section(cls, fields, block, ctx: str):
    """``cls`` from the fields set in ``block``. ``cls`` must have a default
    for every field. When it refuses the values, the refusal is located at
    the first key whose value it refuses alone, and a reason that starts
    with the attribute names the key instead, as a reader's refusal does."""
    values = _read(block, fields, ctx)
    try:
        return cls(**values)
    except ValueError as exc:
        refusal = _Invalid(str(exc), block)
    for f in fields:
        if f.attr not in values:
            continue
        try:
            cls(**{f.attr: values[f.attr]})
        except ValueError as exc:
            reason = str(exc)
            if reason.startswith(f.attr + " "):
                message = f"{ctx}.{f.key}{reason[len(f.attr):]}"
            else:
                message = f"{ctx}.{f.key}: {reason}"
            refusal = _Invalid(message, block, f.key)
            break
    raise refusal from None


def _dump(obj, fields) -> dict:
    return {f.key: f.dump(getattr(obj, f.attr)) for f in fields}


def _expand(values, T: int, block, key: str, ctx: str) -> tuple[float, ...]:
    if isinstance(values, float):
        return (values,) * T
    if len(values) != T:
        raise _Invalid(f"{ctx}.{key} needs {T} values, got {len(values)}", block, key)
    return values


# --- the field table ----------------------------------------------------------

_HORIZON = (
    Field("intervals", "interval_count", _integer, True),
    Field("interval_hours", "interval_duration", _number, True),
    Field("window_intervals", "product_window", _list_of(_integer), dump=list),
)
_WINDOW_HOURS = Field("window_hours", "window_hours", _list_of(_number))
_TARGET = (Field("value_kw", "value"), Field("power_kw", "power", _per_interval))

_GROUP = (
    Field("prefix", "prefix", _name, True),
    Field("count", "count", _integer),
)
_MODEL = (
    Field("kind", "kind", _name, True),
    Field("p_el_on_kw", "p_el_on", _number, True),
    Field("thermal_on_kw", "thermal_on", _number, True),
    Field("tank_kwh_per_k", "tank_capacity", _number, True),
    Field("loss_kw_per_k", "loss_rate", _number, True),
    Field("ambient_c", "ambient", _number, True),
    Field("demand_kw", "demand", _per_interval, True, dump=list),
    Field("temp_min_c", "temp_min", _number, True),
    Field("temp_max_c", "temp_max", _number, True),
    Field("temp_initial_c", "temp_initial", _number, True),
)

# Delay models: the file's delay kind -> (dataclass, fields after ``kind``).
_DELAYS = {
    "constant": (ConstantDelay, (Field("seconds", "seconds", _number, True),)),
    "uniform": (UniformDelay, (Field("low_s", "low", _number, True),
                               Field("high_s", "high", _number, True))),
    "exponential": (ExponentialDelay, (Field("mean_s", "mean", _number, True),)),
}

# Optional sections: Scenario attribute -> (dataclass, fields).
_SECTIONS = {
    "topology": (TopologySpec, (
        Field("family", "family", _name, True),
        Field("k", "k", _integer),
        Field("p", "p", _number),
    )),
    "network": (NetworkModel, (
        Field("delay", "delay", _delay, True, dump=_dump_delay),
        Field("drop_probability", "drop_probability", _number),
        Field("duplicate_probability", "duplicate_probability", _number),
        Field("reorder", "reorder", _boolean),
        Field("max_delay_s", "max_delay_bound", _number),
    )),
    "sampling": (SamplingSpec, (
        Field("count", "count", _integer, True),
        Field("attempt_factor", "attempt_factor", _integer),
    )),
    "seeds": (SeedBlock, (
        Field("sampling", "sampling", _integer),
        Field("topology", "topology", _integer),
        Field("network", "network", _integer),
    )),
    "limits": (RunLimits, (
        Field("max_sim_time_s", "max_sim_time", _number),
        Field("max_messages", "max_messages", _integer),
    )),
}

_DESIGN = (
    Field("base_scenario", "base_scenario", _name, True),
    Field("factors", "factors", _list_of(_factor)),
    Field("replications", "replications", _integer, True),
    Field("base_seed", "base_seed", _integer),
)
_FACTOR = (Field("path", "path", _name, True), Field("values", "values", _list_of(lambda v: v), True))


# --- parse and dump -----------------------------------------------------------


def _parse_horizon(block) -> PlanningHorizon:
    values = _read(block, _HORIZON + (_WINDOW_HOURS,), "horizon")
    hours = values.pop("window_hours", None)
    if "product_window" in values and hours is not None:
        raise _Invalid("horizon takes window_intervals or window_hours, not both",
                       block, "window_hours")
    if "product_window" not in values:
        if hours is None or len(hours) != 2:
            raise _Invalid("horizon needs window_intervals or window_hours: [start, end)", block)
        dt, count = values["interval_duration"], values["interval_count"]
        if not dt > 0:
            raise _Invalid("horizon.interval_hours must be positive", block, "interval_hours")
        bounds = [h / dt for h in hours]
        if not all(math.isfinite(b) and 0 <= round(b) <= count for b in bounds):
            raise _Invalid(f"horizon.window_hours must lie within the {count} intervals of "
                           f"{dt!r} h each", block, "window_hours")
        values["product_window"] = range(*map(round, bounds))
    return _build(PlanningHorizon, values, block)


def _parse_target(block, horizon: PlanningHorizon) -> TargetProfile:
    values = _read(block, _TARGET, "target")
    T = horizon.interval_count
    if "power" in values:
        if "value" in values:
            raise _Invalid("target takes value_kw or power_kw, not both", block, "value_kw")
        return TargetProfile(_expand(values["power"], T, block, "power_kw", "target"))
    if "value" not in values:
        raise _Invalid("target needs value_kw or power_kw", block)
    window = set(horizon.product_window)
    return TargetProfile(tuple(values["value"] if t in window else 0.0 for t in range(T)))


def _parse_device_group(block, horizon: PlanningHorizon) -> DeviceGroup:
    values = _read(block, _GROUP + _MODEL, "devices[]")
    T = horizon.interval_count
    values["demand"] = _expand(values["demand"], T, block, "demand_kw", "devices[]")
    model = _build(DeviceModel, {f.attr: values.pop(f.attr) for f in _MODEL}, block)
    # A device group checks only its count.
    return _build(DeviceGroup, {"count": 1, **values, "model": model}, block, "count")


def _parse_scenario(data, name: str) -> Scenario:
    required = {"horizon", "target", "devices"}
    _check_keys(data, {"name", *required, *_SECTIONS}, required, "scenario")
    horizon = _parse_horizon(data["horizon"])
    blocks = data["devices"]
    if not isinstance(blocks, list) or not blocks:
        raise _Invalid("devices must be a non-empty list", data, "devices")
    try:
        name = name if data.get("name") is None else _name(data["name"])
    except ValueError as exc:
        raise _Invalid(f"scenario.name {exc}", data, "name") from None
    values = {
        "name": name,
        "horizon": horizon,
        "target": _parse_target(data["target"], horizon),
        "devices": tuple(_parse_device_group(block, horizon) for block in blocks),
    }
    for key, (cls, fields) in _SECTIONS.items():
        if data.get(key) is not None:
            values[key] = _build_section(cls, fields, data[key], key)
    scenario = _build(Scenario, values, data)
    spec, count = scenario.topology, scenario.device_count()
    if spec.family == "small_world" and spec.k >= count:
        raise _Invalid(f"topology.k must be smaller than the device count {count}, "
                       f"got {spec.k}", data.get("topology") or data, "k")
    return scenario


def parse_scenario_mapping(data: Mapping, source: str = "<scenario>") -> Scenario:
    try:
        return _parse_scenario(data, Path(source).stem)
    except _Invalid as exc:
        raise exc.at(source) from None


def scenario_to_mapping(scenario: Scenario) -> dict:
    """Plain mapping that re-parses to an equal scenario."""
    return {
        "name": scenario.name,
        "horizon": _dump(scenario.horizon, _HORIZON),
        "target": {"power_kw": list(scenario.target.power)},
        "devices": [{**_dump(g, _GROUP), **_dump(g.model, _MODEL)} for g in scenario.devices],
        **{key: _dump(getattr(scenario, key), fields) for key, (_, fields) in _SECTIONS.items()},
    }


# The key of a dumped section that an alternative key replaces.
_ALTERNATIVES = {"value_kw": "power_kw", "window_hours": "window_intervals"}


def with_keys(scenario: Scenario, keys: Mapping[str, object]) -> Scenario:
    """``scenario`` with each dotted path of ``keys`` set to its value in its
    scenario file, read by the file reader in one parse. A path walks mappings
    by key and lists by index, copying them so that no caller's value changes;
    its last part may be a key's alternative, which drops the key
    (``target.value_kw``). Raises ``UnknownPathError`` for any other path, and
    ``StructuralError`` with the reader's reason for a file that it refuses."""
    data = scenario_to_mapping(scenario)
    for path, value in keys.items():
        node, parts = data, path.split(".")
        for depth, part in enumerate(parts, 1):
            if isinstance(node, list) and part.isdecimal() and int(part) < len(node):
                key = int(part)
            elif isinstance(node, dict) and (part in node or depth == len(parts)
                                             and _ALTERNATIVES.get(part) in node):
                key = part
            else:
                raise UnknownPathError(f"no key {path!r} in the scenario file")
            if depth < len(parts):
                node[key] = copy.copy(node[key])
                node = node[key]
        if isinstance(node, dict):
            node.pop(_ALTERNATIVES.get(key), None)
        node[key] = value
    try:
        return _parse_scenario(data, scenario.name)
    except _Invalid as exc:
        raise StructuralError(str(exc)) from None


def load_scenario(ref: str, relative_to: Path | None = None) -> Scenario:
    """Load a scenario from a builtin name or a YAML file path."""
    if ref in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[ref]()
    path = Path(ref)
    if relative_to is not None and not path.is_absolute() and not path.exists():
        candidate = relative_to / path
        if candidate.exists():
            path = candidate
    if not path.exists():
        raise ScenarioError(f"no such scenario file or builtin name: {ref!r}")
    return parse_scenario_mapping(_load_yaml(path), str(path))


def factor_cell(value) -> str:
    """A factor value as a results.csv cell, which identifies its design cell."""
    if isinstance(value, Mapping):
        return json.dumps(value, sort_keys=True)
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class ExperimentDesign:
    """Full factorial design over dotted scenario file paths. ``cells`` holds
    each cell's factor values and scenario in design order, built once with
    all its values set (``with_keys``), so the file's rules judge the cell;
    a cell that builds an earlier cell's scenario is refused. Every refusal
    is a ``DesignError``."""

    base_scenario: Scenario
    factors: tuple[tuple[str, tuple], ...] = ()
    replications: int = 1
    base_seed: int = 0
    cells: tuple[tuple[dict, Scenario], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise DesignError("replications must be at least 1", None, "replications")
        paths = [path for path, _ in self.factors]
        for i, (path, values) in enumerate(self.factors):
            if not values:
                raise DesignError(f"factor {path!r} has no values", i, "values")
            if path in paths[:i]:
                raise DesignError(f"factor {path!r} repeats an earlier factor's path", i, "path")
        cells, seen = [], []  # seen: each cell's scenario and value indices
        for index in itertools.product(*(range(len(values)) for _, values in self.factors)):
            cell = {path: values[k] for (path, values), k in zip(self.factors, index)}
            try:
                scenario = with_keys(self.base_scenario, cell)
            except StructuralError as exc:
                raise self._locate(cell, exc) from None
            earlier = next((k for other, k in seen if other == scenario), None)
            if earlier is not None:  # name the first factor whose value differs
                f = next(f for f, k in enumerate(index) if k != earlier[f])
                path, values = self.factors[f]
                raise DesignError(f"factor {path!r} repeats the value "
                                  f"{factor_cell(values[index[f]])}", f, "values")
            seen.append((scenario, index))
            cells.append((cell, scenario))
        object.__setattr__(self, "cells", tuple(cells))

    def _locate(self, cell: dict, refusal: StructuralError) -> DesignError:
        """The refusal of ``cell`` at the first of its values, in factor
        order, that the base refuses alone; at ``factors``, with every value
        named, when the base takes each alone."""
        for i, (path, value) in enumerate(cell.items()):
            try:
                with_keys(self.base_scenario, {path: value})
            except UnknownPathError as exc:
                return DesignError(str(exc), i, "path")
            except StructuralError as exc:
                return DesignError(f"factor {path!r} value {value!r}: {exc}", i, "values")
        named = ", ".join(f"factor {p!r} value {v!r}" for p, v in cell.items())
        return DesignError(f"{named}: {refusal}", None, "factors")


def load_design(path_str: str) -> ExperimentDesign:
    path = Path(path_str)
    data = _load_yaml(path)
    try:
        values = _read(data, _DESIGN, "design")
        values["base_scenario"] = load_scenario(values["base_scenario"], relative_to=path.parent)
        try:
            return ExperimentDesign(**values)
        except DesignError as exc:
            block = data if exc.factor is None else data["factors"][exc.factor]
            raise _Invalid(str(exc), block, exc.key) from None
    except _Invalid as exc:
        raise exc.at(str(path)) from None
