"""Reading and writing ``.haig.json`` game documents.

A document is a single UTF-8 JSON object with top-level keys
``format_version`` (currently ``"1"``), ``game``, and optionally
``ground_truth`` and ``policies``.

The ``game`` object:

* ``states``: either an integer count or a list of distinct state labels.
* ``ai_actions`` / ``human_actions`` / ``observations``: lists of distinct
  labels.
* ``transition``: dense nested arrays indexed ``[z][a_ai][a_h][o]`` whose
  entries are next states, or a sparse object
  ``{"default": <state or "self">, "entries": [[z, a_ai, a_h, o, next], ...]}``.
  Anywhere a state, action, or observation is expected, both integer
  indices and declared labels are accepted; labels resolve at parse time
  and all in-memory data uses indices only.
* ``observation_probs``: dense ``[z][a_ai][a_h][o]`` probabilities. May be
  omitted when there is exactly one observation.
* ``margin``: one number per state, negative exactly on failure states.
* ``action_bound``: per state, a non-empty list of admissible human actions.
* optionally ``scenario`` (free-form tag) and ``annotations`` (per-state
  lists of strings, carried verbatim; nothing computes on them).

``ground_truth`` mirrors :class:`haig.model.GroundTruthSystem`;
``policies`` holds named deterministic per-state action tables under
``task`` and ``human``.

Parsing checks JSON types, array shapes and label references, and refuses
a game that declares more than ``MAX_JOINT_ENTRIES`` joint (state, ai
action, human action, observation) entries before allocating any array.
An error inside a nested array names the full index path of the entry,
such as ``game.observation_probs[1][0][1][0]``.  Every rule on values
(finite margins, non-empty action bounds, annotation arity, index ranges,
probability rows, ground-truth consistency) is owned by
:func:`haig.model.validate_model`, which ``parse_spec`` runs on the
assembled document.  The first error it reports is raised as
``DistributionError`` for code ``distribution``, ``SpecReferenceError`` for
code ``range`` and ``SchemaError`` for every other code.

``serialize`` is canonical: keys sorted, arrays dense, entries in index
order, floats in shortest round-trip form, ASCII output, one trailing
newline.  Structurally equal documents serialize to identical bytes, and
``parse_spec(serialize(doc)) == doc``.  NaN and infinity are rejected in
both directions.

One writer, ``canonical_json``, emits both documents and the value files of
``haig solve``, in the layout of ``json.dumps(payload, sort_keys=True,
indent=2, allow_nan=False)`` plus a newline, byte for byte.  It renders
each regular numeric or boolean array from its shape and its leaves, which
the C encoder converts in one call.  Parsing likewise walks a nested
array's levels once, checking a whole level by the sets of its nodes'
types and lengths, and converts the leaves with one ``np.array`` call when
they all have the JSON type their reader expects; other leaves go through
the reader one at a time, and an index path is formatted only for an
error.

``parse_spec`` runs with the cyclic garbage collector paused, from
``json.loads`` through ``validate_model`` (see ``_collector_paused``): the
parsed JSON tree holds no reference cycles, so reference counting frees
it as before.

Every file haig writes (documents, value files, traces, CSV summaries)
goes through one writer, ``_overwrite``: it writes the new bytes over the
old ones in place and then truncates the file to their length, with no
``fsync``.  Truncating to zero first (``open(path, "w")``) makes ext4 start
a writeback when the file closes, and the next re-write of the path waits
for it.  An interrupted write leaves the part of the new bytes written so
far followed by the rest of the old ones, where truncating first left that
part alone.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import stat
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import (
    DistributionError,
    HaigError,
    SchemaError,
    SerializationError,
    SpecReferenceError,
    SpecSyntaxError,
)
from .model import MAX_JOINT_ENTRIES, GameSpec, GroundTruthSystem, _bad_bound_rows, _fields_equal, validate_model

FORMAT_VERSION = "1"
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
# Leaf types whose JSON text the C encoder writes exactly as the indenting one does.
_LEAF_TYPES = {int, float, bool}
# Exception raised for a validate_model error code; other codes raise SchemaError.
_ERROR_CLASSES = {"distribution": DistributionError, "range": SpecReferenceError}


@dataclass(frozen=True, eq=False)
class SpecDocument:
    game: GameSpec
    ground_truth: GroundTruthSystem | None = None
    task_policies: dict[str, tuple[int, ...]] = field(default_factory=dict)
    human_policies: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "task_policies", {k: tuple(int(a) for a in v) for k, v in self.task_policies.items()}
        )
        object.__setattr__(
            self, "human_policies", {k: tuple(int(a) for a in v) for k, v in self.human_policies.items()}
        )

    __eq__ = _fields_equal


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _collector_paused(fn):
    """``fn`` run with the cyclic garbage collector paused, and resumed after if it was running.

    For calls that build many container objects, none of them in a
    reference cycle: a parsed JSON tree, or a rollout's per-state rows.
    With the collector running, every few hundred of them would set off a
    young collection that only moves them on, and now and then a full
    collection would rescan everything the process holds: a call would
    cost more the more the process holds besides, and more in one call
    than the next by chance.  The one young collection they are due runs
    at the caller's next allocation, over what is still alive then.
    Reference counting still frees what the call drops, so a huge or
    malformed document takes no more memory.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        running = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if running:
                gc.enable()

    return paused


@_collector_paused
def parse_spec(data: bytes | str) -> SpecDocument:
    """Parse and fully validate a document.

    Raises:
        SpecSyntaxError: malformed JSON or a NaN/Infinity literal.
        SchemaError: missing/mistyped keys, wrong arity, a game above
            ``MAX_JOINT_ENTRIES``, or a model error other than those below.
        SpecReferenceError: an unknown label or out-of-range index.
        DistributionError: a bad observation probability row.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecSyntaxError(f"document is not valid UTF-8: {exc}") from None

    def _constant(token):
        raise SpecSyntaxError(f"forbidden JSON constant {token!r}")

    try:
        raw = json.loads(data, parse_constant=_constant)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from None

    root = _mapping(raw, "document")
    version = _require(root, "format_version", "document")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}")
    _known_keys(root, {"format_version", "game", "ground_truth", "policies"}, "top-level")

    game = _parse_game(_mapping(_require(root, "game", "document"), "game"))
    ground_truth = None
    if "ground_truth" in root:
        ground_truth = _parse_ground_truth(_mapping(root["ground_truth"], "ground_truth"), game)
    task_policies, human_policies = _parse_policies(root.get("policies"), game)

    errors = validate_model(game, ground_truth).errors
    if errors:
        raise _ERROR_CLASSES.get(errors[0].code, SchemaError)(errors[0].message)

    return SpecDocument(
        game=game,
        ground_truth=ground_truth,
        task_policies=task_policies,
        human_policies=human_policies,
    )


def load_spec(path) -> SpecDocument:
    with open(path, "rb") as fh:
        return parse_spec(fh.read())


def _mapping(value, path):
    if not isinstance(value, dict):
        raise SchemaError(f"{path} must be an object, got {type(value).__name__}")
    return value


def _require(obj, key, path):
    if key not in obj:
        raise SchemaError(f"{path} is missing required key {key!r}")
    return obj[key]


def _known_keys(obj, known, what) -> None:
    extra = sorted(set(obj) - known)
    if extra:
        raise SchemaError(f"unknown {what} keys: {extra}")


def _label_list(value, path) -> tuple[str, ...]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path} must be a non-empty array of labels")
    if any(not isinstance(v, str) for v in value):
        raise SchemaError(f"{path} entries must be strings")
    if len(set(value)) != len(value):
        raise SchemaError(f"{path} labels must be distinct")
    return tuple(value)


class _Resolver:
    """Resolves index-or-label references for one entity kind."""

    def __init__(self, kind: str, size: int, labels: tuple[str, ...] | None):
        self.kind = kind
        self.size = size
        self.by_label = {lab: i for i, lab in enumerate(labels)} if labels else {}

    def __call__(self, value, path) -> int:
        if isinstance(value, bool):
            raise SchemaError(f"{path}: {self.kind} reference must be an integer or label")
        if isinstance(value, int):
            if not 0 <= value < self.size:
                raise SpecReferenceError(
                    f"{path}: {self.kind} index {value} out of range [0, {self.size})"
                )
            return value
        if isinstance(value, str):
            if value not in self.by_label:
                raise SpecReferenceError(f"{path}: unknown {self.kind} name {value!r}")
            return self.by_label[value]
        raise SchemaError(f"{path}: {self.kind} reference must be an integer or label")


def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{path} is beyond the range of a 64-bit float") from None


def _integer(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path} must be an integer")
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise SchemaError(f"{path} is beyond the range of a 64-bit integer")
    return value


def _boolean(value, path) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{path} must be one of the booleans true and false")
    return value


def _dense(raw, shape, path, read, dtype) -> np.ndarray:
    """Read the nested JSON array ``raw`` into an array of ``shape`` and ``dtype``.

    Every level must be an array of the declared length, and every leaf must
    pass ``read(value, path)``.  One walk down the levels checks each level
    by the sets of its nodes' types and lengths, and looks for the first bad
    node only to name it.  ``_read_typed`` converts the leaves at C speed;
    when it declines, each leaf goes through ``read``, and after an error
    through it again, naming each entry, to find the culprit.
    """
    nodes = [raw]
    for depth, size in enumerate(shape):
        if set(map(type, nodes)) != {list} or set(map(len, nodes)) != {size}:
            i = next(i for i, node in enumerate(nodes) if type(node) is not list or len(node) != size)
            raise SchemaError(f"{path}{_index_path(i, shape[:depth])} must be an array of length {size}")
        nodes = list(chain.from_iterable(nodes))
    try:
        values = _read_typed(nodes, read)
    except OverflowError:  # read names the entry beyond int64 or float range
        values = None
    if values is None:
        try:
            values = np.array([read(value, path) for value in nodes], dtype=dtype)
        except HaigError:
            for i, value in enumerate(nodes):
                read(value, path + _index_path(i, shape))
            raise
    return values.reshape(shape)


def _read_typed(leaves, read) -> np.ndarray | None:
    """``leaves`` as a flat array if each has the one JSON type ``read`` accepts unchanged, else None.

    The array equals the one ``read`` gives leaf by leaf, bit for bit, in
    the dtype that goes with ``read``: a JSON integer becomes the float that
    ``float()`` rounds it to.  A value that ``read`` would refuse makes this
    return None (out of a resolver's range) or raise ``OverflowError``
    (beyond int64 or float range).
    """
    kinds = set(map(type, leaves))
    if read is _number:  # np.array raises OverflowError for an int exactly where float() does
        return np.array(leaves, dtype=np.float64) if kinds <= {int, float} else None
    if read is _boolean:
        return np.array(leaves, dtype=bool) if kinds == {bool} else None
    if kinds != {int}:  # _integer or a _Resolver; beyond int64, np.array raises OverflowError
        return None
    values = np.array(leaves, dtype=np.int64)
    if isinstance(read, _Resolver) and (values.min() < 0 or values.max() >= read.size):
        return None
    return values


def check_joint_entries(shape) -> None:
    """Refuse a game of ``shape`` (states, ai actions, human actions, observations) above ``MAX_JOINT_ENTRIES``."""
    entries = math.prod(shape)
    if entries > MAX_JOINT_ENTRIES:
        raise SchemaError(
            f"game declares {entries} (state, ai action, human action, observation) "
            f"entries, more than the limit of {MAX_JOINT_ENTRIES}"
        )


def _index_path(flat: int, shape) -> str:
    return "".join(f"[{i}]" for i in np.unravel_index(flat, shape))


def _parse_game(game: dict) -> GameSpec:
    states = _require(game, "states", "game")
    if isinstance(states, bool):
        raise SchemaError("game.states must be a count or a label array")
    if isinstance(states, int):
        if states <= 0:
            raise SchemaError(f"game.states must be positive, got {states}")
        num_states, state_labels = states, None
    elif isinstance(states, list):
        state_labels = _label_list(states, "game.states")
        num_states = len(state_labels)
    else:
        raise SchemaError("game.states must be a count or a label array")

    ai_actions = _label_list(_require(game, "ai_actions", "game"), "game.ai_actions")
    human_actions = _label_list(_require(game, "human_actions", "game"), "game.human_actions")
    observations = _label_list(_require(game, "observations", "game"), "game.observations")

    shape = (num_states, len(ai_actions), len(human_actions), len(observations))
    check_joint_entries(shape)

    res_state = _Resolver("state", num_states, state_labels)
    res_ai = _Resolver("ai action", len(ai_actions), ai_actions)
    res_human = _Resolver("human action", len(human_actions), human_actions)
    res_obs = _Resolver("observation", len(observations), observations)

    transitions = _parse_transition(
        _require(game, "transition", "game"), shape, res_state, res_ai, res_human, res_obs
    )
    probs_raw = game.get("observation_probs")
    if probs_raw is None:
        if len(observations) != 1:
            raise SchemaError("game.observation_probs may be omitted only with a single observation")
        observation_probs = np.ones(shape)
    else:
        observation_probs = _dense(probs_raw, shape, "game.observation_probs", _number, np.float64)

    margins = _dense(
        _require(game, "margin", "game"), (num_states,), "game.margin", _number, np.float64
    )

    bound_raw = _require(game, "action_bound", "game")
    if not isinstance(bound_raw, list) or len(bound_raw) != num_states:
        raise SchemaError(f"game.action_bound must be an array of {num_states} rows")
    bound = _bound_typed(bound_raw, res_human)
    if bound is None:
        bound = []
        for z, row in enumerate(bound_raw):
            path = f"game.action_bound[{z}]"
            if not isinstance(row, list):
                raise SchemaError(f"{path} must be an array")
            bound.append(tuple(sorted({res_human(b, path) for b in row})))

    annotations = None
    if "annotations" in game:
        ann_raw = game["annotations"]
        if not isinstance(ann_raw, list):
            raise SchemaError("game.annotations must be an array of rows")
        for z, row in enumerate(ann_raw):
            if not isinstance(row, list) or any(not isinstance(a, str) for a in row):
                raise SchemaError(f"game.annotations[{z}] must be an array of strings")
        annotations = tuple(tuple(row) for row in ann_raw)

    scenario = game.get("scenario")
    if scenario is not None and not isinstance(scenario, str):
        raise SchemaError("game.scenario must be a string")

    _known_keys(game, {
        "states", "ai_actions", "human_actions", "observations", "transition",
        "observation_probs", "margin", "action_bound", "scenario", "annotations",
    }, "game")

    return GameSpec(
        num_states=num_states,
        ai_actions=ai_actions,
        human_actions=human_actions,
        observations=observations,
        transitions=transitions,
        observation_probs=observation_probs,
        margins=margins,
        action_bound=tuple(bound),
        state_labels=state_labels,
        scenario=scenario,
        annotations=annotations,
    )


def _bound_typed(rows, resolver):
    """The action bound's rows as sorted distinct indices when every entry is an in-range index, else None.

    Only the rows that ``_bad_bound_rows`` finds not strictly increasing are
    sorted and deduplicated.
    """
    if set(map(type, rows)) != {list}:
        return None
    entries = list(chain.from_iterable(rows))
    if set(map(type, entries)) != {int} or min(entries) < 0 or max(entries) >= resolver.size:
        return None
    bound = list(map(tuple, rows))
    for z in _bad_bound_rows(bound, resolver.size):
        bound[z] = tuple(sorted(set(bound[z])))
    return bound


def _parse_transition(raw, shape, res_state, res_ai, res_human, res_obs) -> np.ndarray:
    if not isinstance(raw, dict):
        return _dense(raw, shape, "game.transition", res_state, np.int64)
    _known_keys(raw, {"default", "entries"}, "sparse transition")
    entries = _require(raw, "entries", "game.transition")
    if not isinstance(entries, list):
        raise SchemaError("game.transition.entries must be an array")
    out = np.empty(shape, dtype=np.int64)
    filled = np.zeros(shape, dtype=bool)
    for i, entry in enumerate(entries):
        path = f"game.transition.entries[{i}]"
        if not isinstance(entry, list) or len(entry) != 5:
            raise SchemaError(f"{path} must be [state, ai_action, human_action, observation, next]")
        z = res_state(entry[0], path)
        a = res_ai(entry[1], path)
        b = res_human(entry[2], path)
        o = res_obs(entry[3], path)
        if filled[z, a, b, o]:
            raise SchemaError(f"{path} duplicates an earlier entry")
        out[z, a, b, o] = res_state(entry[4], path)
        filled[z, a, b, o] = True
    if "default" in raw:
        default = raw["default"]
        if default == "self":
            fill = np.arange(shape[0]).reshape(-1, 1, 1, 1)
        else:
            fill = res_state(default, "game.transition.default")
        np.copyto(out, fill, where=~filled)
    elif not filled.all():
        missing = np.argwhere(~filled)[0]
        raise SchemaError(
            "sparse transition without default leaves "
            f"(z={missing[0]}, a_ai={missing[1]}, a_h={missing[2]}, o={missing[3]}) undefined"
        )
    return out


def _parse_ground_truth(gt: dict, game: GameSpec) -> GroundTruthSystem:
    def _count(key):
        value = _require(gt, key, "ground_truth")
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise SchemaError(f"ground_truth.{key} must be a positive integer")
        return value

    ns = _count("world_states")
    nh = _count("human_states")
    noh = _count("human_observations")
    na, nb = game.num_ai_actions, game.num_human_actions

    def _array(key, shape, read=_integer, dtype=np.int64):
        return _dense(_require(gt, key, "ground_truth"), shape, f"ground_truth.{key}", read, dtype)

    world_transitions = _array("world_dynamics", (ns, na, nb))
    human_transitions = _array("human_dynamics", (nh, na, nb, noh))
    human_observation = _array("human_observation", (ns,))
    ai_observation = _array("ai_observation", (ns, na, nb))
    projection = _array("projection", (ns, nh))
    failure = _array("privileged_failure", (ns, nh), _boolean, bool)

    _known_keys(gt, {
        "world_states", "human_states", "human_observations", "world_dynamics",
        "human_dynamics", "human_observation", "ai_observation", "privileged_failure",
        "projection",
    }, "ground_truth")

    return GroundTruthSystem(
        num_world_states=ns,
        num_human_states=nh,
        num_human_observations=noh,
        world_transitions=world_transitions,
        human_transitions=human_transitions,
        human_observation=human_observation,
        ai_observation=ai_observation,
        failure=failure,
        projection=projection,
    )


def _parse_policies(raw, game: GameSpec):
    if raw is None:
        return {}, {}
    raw = _mapping(raw, "policies")
    _known_keys(raw, {"task", "human"}, "policies")

    res_ai = _Resolver("ai action", game.num_ai_actions, game.ai_actions)
    res_human = _Resolver("human action", game.num_human_actions, game.human_actions)

    def _tables(key, resolver):
        section = raw.get(key)
        if section is None:
            return {}
        section = _mapping(section, f"policies.{key}")
        tables = {}
        for name, table in section.items():
            path = f"policies.{key}[{name!r}]"
            if not isinstance(table, list) or len(table) != game.num_states:
                raise SchemaError(f"{path} must list one action per state")
            tables[name] = tuple(resolver(a, path) for a in table)
        return tables

    return _tables("task", res_ai), _tables("human", res_human)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize(doc: SpecDocument) -> bytes:
    """Canonical bytes for ``doc``. See the module docstring for the form."""
    payload = {"format_version": FORMAT_VERSION, "game": _game_payload(doc.game)}
    if doc.ground_truth is not None:
        payload["ground_truth"] = _ground_truth_payload(doc.ground_truth)
    if doc.task_policies or doc.human_policies:
        policies = {}
        if doc.task_policies:
            policies["task"] = {k: list(v) for k, v in doc.task_policies.items()}
        if doc.human_policies:
            policies["human"] = {k: list(v) for k, v in doc.human_policies.items()}
        payload["policies"] = policies
    return canonical_json(payload).encode("utf-8")


def save_spec(doc: SpecDocument, path) -> None:
    _overwrite(path, serialize(doc))


def _overwrite(path, data: bytes) -> None:
    """Write ``data`` to ``path`` over its old bytes, then cut a regular file to ``len(data)``.

    As with ``open(path, "wb")``, a symlink is written through, a re-written
    file keeps its inode, mode and hard links, and a new file gets mode
    ``0o666 & ~umask``; only the truncation to zero at open is left out.
    Only a regular file is truncated afterwards, so ``os.devnull`` and a
    FIFO take the bytes as before.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _game_payload(game: GameSpec) -> dict:
    payload = {
        "states": list(game.state_labels) if game.state_labels is not None else game.num_states,
        "ai_actions": list(game.ai_actions),
        "human_actions": list(game.human_actions),
        "observations": list(game.observations),
        "transition": game.transitions,
        "observation_probs": game.observation_probs,
        "margin": game.margins,
        "action_bound": [list(row) for row in game.action_bound],
    }
    if game.scenario is not None:
        payload["scenario"] = game.scenario
    if game.annotations is not None:
        payload["annotations"] = [list(row) for row in game.annotations]
    return payload


def _ground_truth_payload(gt: GroundTruthSystem) -> dict:
    return {
        "world_states": gt.num_world_states,
        "human_states": gt.num_human_states,
        "human_observations": gt.num_human_observations,
        "world_dynamics": gt.world_transitions,
        "human_dynamics": gt.human_transitions,
        "human_observation": gt.human_observation,
        "ai_observation": gt.ai_observation,
        "privileged_failure": gt.failure,
        "projection": gt.projection,
    }


def canonical_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)`` plus a newline.

    The text is the same, byte for byte, but the regular numeric and boolean
    arrays in ``payload`` (numpy arrays, and nested lists whose levels each
    hold lists of one length) are rendered at C speed: one ``json.dumps``
    call converts all of an array's leaves, and the brackets, commas and
    indents between two leaves are looked up by how many dimensions close
    there.  Dicts, ragged lists, strings and scalars are written one item at
    a time, as ``json`` does.

    Raises:
        SerializationError: ``payload`` holds a NaN or an infinity; the
            message names the first one's path, such as ``game.margin[2]``.
    """
    parts = []
    try:
        _write(payload, 0, parts)
    except ValueError:  # json.dumps refuses NaN and infinity; nothing else here raises it
        path, value = _first_non_finite(payload, "")
        raise SerializationError(f"cannot write the non-finite number {value!r} at {path}") from None
    parts.append("\n")
    return "".join(parts)


def _write(value, level, parts) -> None:
    """Append the indented JSON text of ``value``, whose first line sits at ``level``, to ``parts``."""
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        pad = "\n" + "  " * (level + 1)
        sep = "{" + pad
        for key, item in sorted(value.items()):
            parts.append(sep + _quote(key) + ": ")
            _write(item, level + 1, parts)
            sep = "," + pad
        parts.append("\n" + "  " * level + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        grid = _grid(value)
        if grid is not None:
            parts.append(_render_grid(*grid, level))
        elif not len(value):
            parts.append("[]")
        else:
            pad = "\n" + "  " * (level + 1)
            sep = "[" + pad
            for item in value.tolist() if isinstance(value, np.ndarray) else value:
                parts.append(sep)
                _write(item, level + 1, parts)
                sep = "," + pad
            parts.append("\n" + "  " * level + "]")
    elif isinstance(value, str):
        parts.append(_quote(value))
    else:
        parts.append(json.dumps(value, allow_nan=False))


def _grid(value):
    """``(shape, leaf texts)`` of a non-empty regular array of numbers or booleans, else None.

    The texts are in row-major order.
    """
    if isinstance(value, np.ndarray):
        if value.ndim == 0 or value.size == 0 or value.dtype.kind not in "biuf":
            return None
        return value.shape, _leaf_texts(value.ravel())
    if type(value) is not list:
        return None
    shape, nodes = [], [value]
    while True:
        kinds = set(map(type, nodes))
        if kinds != {list}:
            break
        lengths = set(map(len, nodes))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        nodes = list(chain.from_iterable(nodes))
    if kinds == {float}:
        return tuple(shape), _leaf_texts(np.array(nodes))
    return (tuple(shape), _leaf_texts(nodes)) if kinds <= _LEAF_TYPES else None


def _leaf_texts(flat) -> list[str]:
    """JSON text of each entry of ``flat``, a list of plain numbers and booleans or a 1-D array.

    The C encoder converts every leaf in one call.  A float's repr is the
    slow part, and value tables repeat a few margins many times over, so a
    float64 array formats each distinct bit pattern (-0.0 is not 0.0) once.
    """
    if isinstance(flat, np.ndarray) and flat.dtype == np.float64:
        distinct, inverse = np.unique(flat.view(np.int64), return_inverse=True)
        texts = json.dumps(distinct.view(np.float64).tolist(), allow_nan=False)[1:-1].split(", ")
        return np.array(texts, dtype=object)[inverse].tolist()
    if isinstance(flat, np.ndarray):
        flat = flat.tolist()
    return json.dumps(flat, allow_nan=False)[1:-1].split(", ")


def _render_grid(shape, texts, level) -> str:
    """The indented JSON array of ``shape`` whose leaves read ``texts``, opening at ``level``."""
    k = len(shape)
    pads = ["\n" + "  " * i for i in range(level + k + 1)]
    # closes[j] ends the j innermost open arrays; opens[j] starts j new ones
    # and the line of the next leaf.
    closes = ["".join(pads[level + k - 1 - m] + "]" for m in range(j)) for j in range(k + 1)]
    opens = ["".join(pads[level + k - j + m] + "[" for m in range(j)) + pads[level + k] for j in range(k)]
    seps = []  # the separators between the leaves of one sub-array, innermost first
    for d in range(k - 1, -1, -1):
        seps = (seps + [closes[k - 1 - d] + "," + opens[k - 1 - d]]) * shape[d]
        seps.pop()
    out = [""] * (2 * len(texts) - 1)
    out[0::2] = texts
    out[1::2] = seps
    return "[" + opens[k - 1] + "".join(out) + closes[k]


def _first_non_finite(value, path):
    """``(path, value)`` of the first NaN or infinity in ``value`` in document order, else None."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in sorted(value.items()))
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return (path, value) if isinstance(value, float) and not math.isfinite(value) else None
    for item_path, item in items:
        found = _first_non_finite(item, item_path)
        if found is not None:
            return found
    return None
