"""The record formats: every field of every record the package reads, with
its JSON type and domain, in one table, and the decoding rules that read it.

A field's JSON type is matched exactly, so only a JSON integer is an
integer: not a bool, not a float such as 4.9 or 2.0, not a string of
digits. A record that breaks its shape fails as a DataFormatError (a
ProtocolError for a solver reply) that names its first bad field by path:

    field `objects[0].x`: expected an integer, got 4.9

Valid records take a fast path. A decoder indexes the record directly and
decodes each leaf value through a cache keyed by the value and its type,
which checks a value against the table only when it misses. Only once a
record has failed does `_decode` walk the table field by field to name the
field at fault.
"""

from __future__ import annotations

import functools
import json
from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import DataFormatError, SupportgenError
from .grammar import parse, parse_command_string
from .world import (COLORS, DECODE_CACHE_SIZE, SHAPES, SIZES, Action, Heading, WorldState,
                    _agent_pose, _object_spec, _shared_actions)


class Split(Enum):
    """The split of an example; its value is the record's `split` field."""

    TRAIN = "train"
    A = "a"
    B = "b"
    C = "c"
    D = "d"
    E = "e"
    F = "f"
    G = "g"
    H = "h"


class Field(NamedTuple):
    """One row of the table: a field's JSON type (`kind`, a type or a tuple
    of types) and its domain.

    `domain` is one of: None, any value of the type; a range, tuple or dict
    of the allowed values (a dict also maps each to its decoded value);
    GRID, a grid size of at least 1; CELL, a coordinate on the grid that the
    nearest enclosing GRID field sets; for an object, its shape (a dict of
    field name to Field); or a callable that decodes the value and raises
    ValueError or a SupportgenError naming what is wrong with it. `items`
    is the row of each element of an array, or of each value of an object
    used as a map, and is checked before the domain. A field that is not
    `required` may be absent."""

    kind: type | tuple[type, ...]
    domain: object = None
    items: "Field | None" = None
    required: bool = True

    @property
    def kinds(self) -> tuple[type, ...]:
        return self.kind if isinstance(self.kind, tuple) else (self.kind,)


#: How a message names each JSON type.
_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "true or false", type(None): "null"}
#: Every JSON type, for a field that takes any value.
ANY = tuple(_TYPE_NAMES)

#: Domain markers: a grid size, and a coordinate on that grid.
GRID = "grid"
CELL = "cell"


# ---------------------------------------------------------------------------
# Action names
# ---------------------------------------------------------------------------

#: Each action by its name: the spelling of dataset and support targets.
ACTION_NAMES = {action.name: action for action in Action}
#: The original environment's spellings, upper-cased: the action names plus
#: "turn left" and "turn right".
EXTERNAL_ACTION_NAMES = {**ACTION_NAMES, "TURN LEFT": Action.LTURN, "TURN RIGHT": Action.RTURN}


def decode_actions(names: Iterable[str], any_case: bool = False,
                   spellings: Mapping[str, Action] = ACTION_NAMES) -> tuple[Action, ...]:
    """The actions `names` spell. Each name is a key of `spellings`, or with
    `any_case` its upper-case form is; any other name raises
    DataFormatError."""
    actions = []
    for name in names:
        action = spellings.get(name.upper() if any_case else name)
        if action is None:
            raise DataFormatError(f"unknown action {name!r}")
        actions.append(action)
    return tuple(actions)


def _target_actions(target: str) -> tuple[Action, ...]:
    """The actions of a comma-joined target string of exact names, as their
    shared tuple."""
    return _shared_actions(decode_actions(name for name in target.split(",") if name))


#: The actions of a solver reply's action names, in any case.
reply_actions = functools.partial(decode_actions, any_case=True)


def external_actions(commands: str) -> tuple[Action, ...]:
    """The actions of the original environment's comma-joined
    target_commands, in its spellings and any case."""
    return decode_actions((name.strip() for name in commands.split(",") if name.strip()),
                          any_case=True, spellings=EXTERNAL_ACTION_NAMES)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

def _apart(cell: Callable[[dict], tuple[int, int]]) -> Callable:
    """The domain of an array, or a map, of entries no two of which lie on
    one cell, the (x, y) that `cell` gives."""
    def check(entries: list | dict) -> list | dict:
        seen = {}
        for key, entry in entries.items() if type(entries) is dict else enumerate(entries):
            first = seen.setdefault(cell(entry), key)
            if first != key:
                x, y = cell(entry)
                raise ValueError(f"entries {first} and {key} share the cell x={x}, y={y}")
        return entries
    return check


#: Each split by its record value.
SPLITS = {split.value: split for split in Split}
#: Each heading by its record code.
HEADINGS = {int(heading): heading for heading in Heading}

AGENT = {"x": Field(int, CELL), "y": Field(int, CELL), "d": Field(int, HEADINGS)}
OBJECT = {"shape": Field(str, SHAPES), "color": Field(str, COLORS), "size": Field(int, SIZES),
          "x": Field(int, CELL), "y": Field(int, CELL)}
#: A state record; objects lie on distinct cells.
STATE = {"grid_size": Field(int, GRID), "agent": Field(dict, AGENT),
         "objects": Field(list, _apart(lambda o: (o["x"], o["y"])), items=Field(dict, OBJECT))}
#: A dataset record, and the query of a support-file line.
EXAMPLE = {**STATE, "command": Field(str, parse_command_string),
           "target": Field(str, _target_actions), "split": Field(str, SPLITS)}
#: A support: a null or absent target is a support the solver could not
#: solve. Its other keys are the strategy's provenance.
SUPPORT = {**STATE, "command": EXAMPLE["command"],
           "target": Field((str, type(None)), _target_actions, required=False)}
#: One line of a support file.
SUPPORT_LINE = {"query": Field(dict, EXAMPLE), "strategy": Field(str, required=False),
                "meta": Field(dict, required=False),
                "supports": Field(list, items=Field(dict, SUPPORT))}

_POSITION = {"row": Field(int, CELL), "column": Field(int, CELL)}
_PLACED = {"object": Field(dict, {name: OBJECT[name] for name in ("shape", "color", "size")}),
           "position": Field(dict, _POSITION)}
#: The situation of the original environment's records: rows are y and
#: columns x. `placed_objects` is a map or a list of entries.
SITUATION = {"grid_size": STATE["grid_size"], "agent_position": Field(dict, _POSITION),
             "agent_direction": Field(int, HEADINGS),
             "placed_objects": Field(
                 (dict, list), _apart(lambda e: (e["position"]["column"], e["position"]["row"])),
                 items=Field(dict, _PLACED), required=False)}
#: A record of the original environment, read by import_external_record.
EXTERNAL = {"situation": Field(dict, SITUATION), "command": EXAMPLE["command"],
            "target_commands": Field(str, external_actions),
            "split": Field(str, SPLITS, required=False)}

#: An external-solver request; its `id` is echoed back as it came.
SOLVER_REQUEST = {"state": Field(dict, STATE),
                  "instruction": Field(list, parse, items=Field(str))}
#: An external-solver reply with actions, and one that reports an error.
SOLVER_REPLY = {"id": Field(int),
                "actions": Field(list, reply_actions, items=Field(str))}
SOLVER_ERROR = {"id": Field(int), "error": Field(ANY)}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _show(value) -> str:
    """A value as JSON, cut to 60 characters."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


def _expected_type(row: Field, value) -> str:
    return f"expected {' or '.join(_TYPE_NAMES[kind] for kind in row.kinds)}, got {_show(value)}"


def _leaf(value, domain, grid: int | None):
    """`value` decoded by a leaf domain (see Field); raises ValueError
    naming what the domain allows. A CELL is not bounded without a grid."""
    if domain is None:
        return value
    if domain is GRID:
        if value < 1:
            raise ValueError(f"expected an integer >= 1, got {value}")
        return value
    if domain is CELL:
        if grid is None:
            return value
        domain = range(grid)
    if isinstance(domain, (range, tuple, dict)):
        if value in domain:
            return domain[value] if isinstance(domain, dict) else value
        allowed = (f"an integer in {domain.start}..{domain.stop - 1}" if isinstance(domain, range)
                   else "one of " + ", ".join(_show(v) for v in domain))
        raise ValueError(f"expected {allowed}, got {_show(value)}")
    return domain(value)


def _fault(value, row: Field, path: str, grid: int | None) -> str | None:
    """The first fault of `value` against `row` at `path`, as
    "field `path`: reason", or None when it has none."""
    if type(value) not in row.kinds:
        reason = _expected_type(row, value)
    else:
        reason = None
        if row.items is not None:
            pairs = value.items() if type(value) is dict else enumerate(value)
            mark = "{}.{}" if type(value) is dict else "{}[{}]"
            for key, item in pairs:
                reason = _fault(item, row.items, mark.format(path, key), grid)
                if reason is not None:
                    return reason
        if type(value) is dict and isinstance(row.domain, dict):
            for name, field in row.domain.items():
                at = f"{path}.{name}" if path else name
                if name not in value:
                    if field.required:
                        return f"field `{at}`: missing"
                    continue
                reason = _fault(value[name], field, at, grid)
                if reason is not None:
                    return reason
                if field.domain is GRID:
                    grid = value[name]
            return None
        if value is not None:
            try:
                _leaf(value, row.domain, grid)
            except (ValueError, SupportgenError) as exc:
                reason = str(exc)
    if reason is None or not path:
        return reason
    return f"field `{path}`: {reason}"


def fault(record, shape: Mapping[str, Field]) -> str | None:
    """The first field of `record` that `shape` rejects, as "field `path`:
    reason", or None when the record fits the shape."""
    return _fault(record, Field(dict, shape), "", None)


def _decode(build: Callable, record, shape: Mapping[str, Field]):
    """`build(record)`, the fast path. A record that it cannot build raises
    DataFormatError naming the first field that `shape` rejects."""
    try:
        return build(record)
    except (LookupError, TypeError, ValueError, SupportgenError):
        reason = fault(record, shape)
        if reason is None:
            raise  # build enforces a rule that the table lacks
        raise DataFormatError(reason) from None


def _leaf_value(value, row: Field):
    """`value` decoded by a leaf row, its type and domain checked; a CELL
    value is left for the state to bound."""
    if type(value) not in row.kinds:
        raise DataFormatError(_expected_type(row, value))
    return _leaf(value, row.domain, None)


def check_values(shape: Mapping[str, Field], values: tuple) -> None:
    """Check the values of the leaf fields of `shape`, in its order: what
    world's part caches run on a miss."""
    for row, value in zip(shape.values(), values):
        _leaf_value(value, row)


def _cached(row: Field) -> Callable:
    """A cache of one leaf field's decoded values that checks a value on a
    miss only. Its key holds the value's type unless the field is a string,
    which no other JSON value equals."""
    return functools.lru_cache(maxsize=DECODE_CACHE_SIZE, typed=row.kind is not str)(
        functools.partial(_leaf_value, row=row))


# ---------------------------------------------------------------------------
# Decoders
# ---------------------------------------------------------------------------

#: The decoded value of each leaf field of the fast path besides the agent's
#: and the objects' (world's part caches), shared by every record that
#: holds an equal value of the same type.
command_of = _cached(EXAMPLE["command"])
target_of = _cached(EXAMPLE["target"])
split_of = _cached(EXAMPLE["split"])
_grid_of = _cached(STATE["grid_size"])


def _array(value) -> list:
    """`value`, which a fast path iterates, when it is a JSON array: a map or
    a string would iterate without an error."""
    if type(value) is not list:
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


def _build_state(record) -> WorldState:
    """The state of a state record, on the fast path: equal agent poses and
    object specs of different records are one shared object. A record that
    breaks STATE raises some error; _decode names its field."""
    agent = record["agent"]
    return WorldState(
        _grid_of(record["grid_size"]),
        _agent_pose(agent["x"], agent["y"], agent["d"]),
        tuple([_object_spec(o["shape"], o["color"], o["size"], o["x"], o["y"])
               for o in _array(record["objects"])]),
    )


def _check_field(value, row: Field):
    """`value` when it fits `row`, else DataFormatError: the check of a
    field read once per support-file line, too seldom to cache."""
    reason = _fault(value, row, "", None)
    if reason is not None:
        raise DataFormatError(reason)
    return value
