from __future__ import annotations

import dataclasses
import gc
import json
import os
import stat
import time

import numpy as np
import pytest

from haig import (
    DistributionError,
    GameSpec,
    GroundTruthSystem,
    HaigError,
    SchemaError,
    SerializationError,
    SpecDocument,
    SpecReferenceError,
    SpecSyntaxError,
    build_chain,
    build_dialogue,
    load_spec,
    parse_spec,
    random_game,
    save_spec,
    serialize,
    validate_model,
)
from haig import specfile
from haig.solver import solution_payload, value_iteration
from haig.specfile import (
    MAX_JOINT_ENTRIES, _boolean, _game_payload, _ground_truth_payload, _integer, _number,
    _Resolver, canonical_json,
)
from test_acceptance import _oracle_corpus, _scenario_docs, _stochastic_corpus, _verify_corpus

_MINIMAL = {
    "format_version": "1",
    "game": {
        "states": ["safe", "doom"],
        "ai_actions": ["stay", "go"],
        "human_actions": ["stay", "go"],
        "observations": ["none"],
        "transition": [
            [[[0], [0]], [[0], [1]]],
            [[[1], [1]], [[1], [1]]],
        ],
        "margin": [1.0, -1.0],
        "action_bound": [[0, 1], [0, 1]],
    },
}


def _payload(**game_overrides) -> dict:
    payload = json.loads(json.dumps(_MINIMAL))
    payload["game"].update(game_overrides)
    return payload


def _parse(payload) -> SpecDocument:
    return parse_spec(json.dumps(payload))


def _corpus() -> list[SpecDocument]:
    return [
        build_chain(5),
        build_chain(5, 2),
        build_chain(6, 3, 2),
        build_dialogue(),
        build_dialogue(conservative_bound=True),
        random_game(0),
        random_game(11, states=9, ai_actions=2, human_actions=4, observations=3),
        random_game(42, states=3, failure_fraction=1.0),
    ]


def test_round_trip_is_identity():
    for doc in _corpus():
        data = serialize(doc)
        back = parse_spec(data)
        assert back == doc, doc.game.scenario
        assert serialize(back) == data, doc.game.scenario


def test_a_document_has_no_version_of_its_own():
    """Every document serializes as ``FORMAT_VERSION``, the one version ``parse_spec`` reads back."""
    with pytest.raises(TypeError):
        SpecDocument(game=build_chain(3).game, format_version="2")
    assert json.loads(serialize(build_chain(3)))["format_version"] == specfile.FORMAT_VERSION


def test_serialization_is_canonical():
    data = serialize(build_chain(5))
    assert data.endswith(b"\n")
    assert data == data.strip() + b"\n"
    data.decode("ascii")
    obj = json.loads(data)
    assert list(obj) == sorted(obj)
    assert list(obj["game"]) == sorted(obj["game"])


def test_minimal_document_parses():
    doc = _parse(_MINIMAL)
    assert doc.game.num_states == 2
    assert doc.game.state_labels == ("safe", "doom")
    assert doc.game.margins.tolist() == [1.0, -1.0]
    # single observation lets observation_probs default to certainty
    assert doc.game.observation_probs.tolist() == np.ones((2, 2, 2, 1)).tolist()
    assert doc.ground_truth is None
    assert doc.task_policies == {}


def test_states_as_count_round_trips_without_labels():
    doc = _parse(_payload(states=2))
    assert doc.game.state_labels is None
    assert json.loads(serialize(doc))["game"]["states"] == 2
    back = parse_spec(serialize(doc))
    assert back == doc


def test_labels_resolve_everywhere():
    payload = _payload(
        transition={"default": "self", "entries": [["safe", "go", "go", "none", "doom"]]},
        action_bound=[["stay", "go"], ["stay", 1]],
    )
    payload["policies"] = {"task": {"cautious": ["stay", "stay"]}, "human": {"bold": ["go", "go"]}}
    doc = _parse(payload)
    assert doc.game.transitions[0, 1, 1, 0] == 1
    assert doc.game.transitions[0, 0, 0, 0] == 0  # default: self
    assert doc.game.action_bound == ((0, 1), (0, 1))
    assert doc.task_policies == {"cautious": (0, 0)}
    assert doc.human_policies == {"bold": (1, 1)}


def test_sparse_and_dense_transitions_agree():
    dense = _parse(_MINIMAL)
    sparse = _parse(
        _payload(
            transition={
                "default": 0,
                "entries": [
                    [0, 1, 1, 0, 1],
                    [1, 0, 0, 0, 1],
                    [1, 0, 1, 0, 1],
                    [1, 1, 0, 0, 1],
                    [1, 1, 1, 0, 1],
                ],
            }
        )
    )
    assert sparse.game == dense.game
    # canonical output is always dense
    assert serialize(sparse) == serialize(dense)


def test_sparse_transition_errors():
    with pytest.raises(SchemaError, match="undefined"):
        _parse(_payload(transition={"entries": [[0, 0, 0, 0, 0]]}))
    with pytest.raises(SchemaError, match="duplicates"):
        _parse(_payload(transition={"default": 0, "entries": [[0, 0, 0, 0, 0], [0, 0, 0, 0, 1]]}))
    with pytest.raises(SchemaError, match="unknown sparse"):
        _parse(_payload(transition={"default": 0, "entries": [], "extra": 1}))
    with pytest.raises(SchemaError, match="must be \\[state"):
        _parse(_payload(transition={"default": 0, "entries": [[0, 0, 0, 0]]}))


def test_reference_errors():
    with pytest.raises(SpecReferenceError, match="out of range"):
        _parse(_payload(transition={"default": 0, "entries": [[0, 0, 0, 0, 7]]}))
    with pytest.raises(SpecReferenceError, match="unknown state name"):
        _parse(_payload(transition={"default": "nowhere", "entries": []}))
    with pytest.raises(SpecReferenceError, match="unknown human action"):
        _parse(_payload(action_bound=[["sprint"], [0]]))
    with pytest.raises(SchemaError, match="must be an integer or label"):
        _parse(_payload(transition={"default": True, "entries": []}))


def test_syntax_errors_carry_position():
    with pytest.raises(SpecSyntaxError) as info:
        parse_spec('{"format_version": "1",\n  "game": }')
    assert info.value.line == 2
    assert info.value.column is not None
    with pytest.raises(SpecSyntaxError, match="NaN"):
        parse_spec('{"format_version": "1", "game": {"margin": [NaN]}}')
    with pytest.raises(SpecSyntaxError, match="Infinity"):
        parse_spec('{"x": -Infinity}')
    with pytest.raises(SpecSyntaxError, match="UTF-8"):
        parse_spec(b"\xff\xfe{}")


def test_schema_errors():
    with pytest.raises(SchemaError, match="format_version"):
        parse_spec("{}")
    with pytest.raises(SchemaError, match="unsupported format_version"):
        _parse({"format_version": "2", "game": _MINIMAL["game"]})
    with pytest.raises(SchemaError, match="unknown top-level"):
        _parse({**_MINIMAL, "bonus": 1})
    with pytest.raises(SchemaError, match="must be an object"):
        parse_spec("[1, 2, 3]")
    with pytest.raises(SchemaError, match="unknown game keys"):
        _parse(_payload(surprise=True))
    with pytest.raises(SchemaError, match="game.states"):
        _parse(_payload(states=True))
    with pytest.raises(SchemaError, match="must be positive"):
        _parse(_payload(states=0))
    with pytest.raises(SchemaError, match="distinct"):
        _parse(_payload(ai_actions=["a", "a"]))
    with pytest.raises(SchemaError, match="margin"):
        _parse(_payload(margin=[1.0]))
    # 1e999 overflows to inf while parsing without hitting the constant hook
    raw = json.dumps(_payload(margin=[123456789.0, -1.0])).replace("123456789.0", "1e999")
    with pytest.raises(SchemaError, match="finite"):
        parse_spec(raw)
    with pytest.raises(SchemaError, match="non-empty"):
        _parse(_payload(action_bound=[[], [0]]))


def test_distribution_errors():
    probs = [[[[0.5], [1.0]], [[1.0], [1.0]]], [[[1.0], [1.0]], [[1.0], [1.0]]]]
    with pytest.raises(DistributionError, match="sums to 0.5"):
        _parse(_payload(observation_probs=probs))
    probs2 = json.loads(json.dumps(probs))
    probs2[0][0][0] = [-0.5]
    with pytest.raises(DistributionError):
        _parse(_payload(observation_probs=probs2))


def test_observation_probs_required_with_multiple_observations():
    payload = _payload(observations=["ping", "pong"])
    payload["game"]["transition"] = [
        [[[0, 0], [0, 0]], [[0, 0], [1, 1]]],
        [[[1, 1], [1, 1]], [[1, 1], [1, 1]]],
    ]
    with pytest.raises(SchemaError, match="omitted only with a single observation"):
        _parse(payload)
    payload["game"]["observation_probs"] = [
        [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
        [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
    ]
    doc = _parse(payload)
    assert not doc.game.is_deterministic()


def test_action_bound_deduplicates():
    doc = _parse(_payload(action_bound=[["go", "go", "stay"], [1]]))
    assert doc.game.action_bound == ((0, 1), (1,))


def test_action_bound_rows_parse_sorted_and_distinct():
    """Index rows out of order or repeated parse, like label rows, to sorted distinct rows."""
    payload = _payload(states=4, human_actions=["a", "b", "c"], transition={"default": "self", "entries": []},
                       margin=[1.0, 2.0, -1.0, 3.0], action_bound=[[2, 0, 2], [1], [0, 1, 2], [2, 1, 1]])
    assert _parse(payload).game.action_bound == ((0, 2), (1,), (0, 1, 2), (1, 2))


def test_parse_runs_with_the_collector_paused(monkeypatch):
    """Paused during a parse, running again after it, also when it raises; a paused collector stays paused."""
    running = []

    def recording(game, ground_truth):
        running.append(gc.isenabled())
        return validate_model(game, ground_truth)

    monkeypatch.setattr(specfile, "validate_model", recording)
    assert gc.isenabled()
    _parse(_MINIMAL)
    assert gc.isenabled()
    with pytest.raises(SpecSyntaxError):
        parse_spec('{"format_version": "1",\n  "game": }')
    assert gc.isenabled()
    with pytest.raises(SchemaError, match="non-empty"):
        _parse(_payload(action_bound=[[], [0]]))
    assert running == [False, False]
    assert gc.isenabled()
    gc.disable()
    try:
        _parse(_MINIMAL)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_policies_errors():
    payload = _payload()
    payload["policies"] = {"task": {"bad": ["stay"]}}
    with pytest.raises(SchemaError, match="one action per state"):
        _parse(payload)
    payload["policies"] = {"referee": {}}
    with pytest.raises(SchemaError, match="unknown policies keys"):
        _parse(payload)
    payload["policies"] = {"human": {"odd": ["go", "sprint"]}}
    with pytest.raises(SpecReferenceError, match="sprint"):
        _parse(payload)


def test_ground_truth_round_trip_and_errors():
    doc = build_chain(4)
    raw = json.loads(serialize(doc))
    assert "ground_truth" in raw
    assert parse_spec(json.dumps(raw)) == doc

    bad = json.loads(json.dumps(raw))
    bad["ground_truth"]["projection"][0][0] = 99
    with pytest.raises(SpecReferenceError, match="projection"):
        parse_spec(json.dumps(bad))

    bad = json.loads(json.dumps(raw))
    bad["ground_truth"]["privileged_failure"][0][0] = "yes"
    with pytest.raises(SchemaError, match="booleans"):
        parse_spec(json.dumps(bad))

    bad = json.loads(json.dumps(raw))
    bad["ground_truth"]["spare"] = 1
    with pytest.raises(SchemaError, match="unknown ground_truth keys"):
        parse_spec(json.dumps(bad))

    bad = json.loads(json.dumps(raw))
    bad["ground_truth"]["world_states"] = 0
    with pytest.raises(SchemaError, match="positive integer"):
        parse_spec(json.dumps(bad))


def test_model_level_validation_applies_at_parse():
    """Consistency checks run on the assembled document, not only on JSON shape."""
    raw = json.loads(serialize(build_chain(4)))
    raw["ground_truth"]["world_dynamics"][2][2][1] = 0  # in range, but the game steps to 3
    with pytest.raises(SchemaError, match="does not commute"):
        parse_spec(json.dumps(raw))


@pytest.mark.parametrize(
    "path, value, error",
    [
        (("game", "margin", 1), "1e999", SchemaError),
        (("game", "action_bound", 2), [], SchemaError),
        (("game", "annotations"), [["a"]] * 4, SchemaError),
        (("ground_truth", "world_dynamics", 1, 0, 2), 5, SpecReferenceError),
        (("ground_truth", "human_dynamics", 0, 2, 1, 0), 1, SpecReferenceError),
        (("ground_truth", "human_observation", 3), -1, SpecReferenceError),
        (("ground_truth", "ai_observation", 4, 1, 1), 1, SpecReferenceError),
        (("ground_truth", "projection", 0, 0), 5, SpecReferenceError),
        (("ground_truth", "projection", 0, 0), 2**63, SchemaError),
        (("ground_truth", "human_observation", 3), -(2**63) - 1, SchemaError),
        (("game", "margin", 1), 10**400, SchemaError),
    ],
)
def test_value_rules_raise_their_error_class_at_parse(path, value, error):
    """Rules that validate_model owns reach parse_spec with their error class."""
    raw = json.loads(serialize(build_chain(4)))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    # json.dumps writes inf as Infinity, so 1e999 goes in as a string and is unquoted here
    with pytest.raises(error):
        parse_spec(json.dumps(raw).replace('"1e999"', "1e999"))


def test_nested_array_errors_name_the_full_index_path():
    payload = _payload(observations=["ping", "pong"])
    payload["game"]["transition"] = [[[[0, 0]] * 2] * 2, [[[1, 1]] * 2] * 2]
    probs = [[[[1.0, 0.0] for _ in range(2)] for _ in range(2)] for _ in range(2)]
    probs[1][0][1][0] = "most"
    payload["game"]["observation_probs"] = probs
    with pytest.raises(SchemaError, match=r"game\.observation_probs\[1\]\[0\]\[1\]\[0\] must be a number"):
        _parse(payload)
    probs[1][0][1] = [1.0]
    with pytest.raises(SchemaError, match=r"game\.observation_probs\[1\]\[0\]\[1\] must be an array of length 2"):
        _parse(payload)

    raw = json.loads(serialize(build_chain(4)))
    raw["ground_truth"]["human_dynamics"][0][2][1][0] = 0.5
    with pytest.raises(SchemaError, match=r"ground_truth\.human_dynamics\[0\]\[2\]\[1\]\[0\] must be an integer"):
        parse_spec(json.dumps(raw))
    raw["ground_truth"]["human_dynamics"][0][2][1][0] = 0
    raw["ground_truth"]["projection"][1][0] = 10**30
    with pytest.raises(SchemaError, match=r"ground_truth\.projection\[1\]\[0\] is beyond the range of a 64-bit integer"):
        parse_spec(json.dumps(raw))
    raw["ground_truth"]["projection"][1][0] = 0
    raw["game"]["margin"][2] = 10**400
    with pytest.raises(SchemaError, match=r"game\.margin\[2\] is beyond the range of a 64-bit float"):
        parse_spec(json.dumps(raw))


def test_oversized_game_is_refused_before_allocation():
    payload = _payload(
        states=1_000_000_000,
        transition={"default": "self", "entries": []},
        margin=[],
        action_bound=[],
    )
    start = time.perf_counter()
    with pytest.raises(SchemaError, match=f"limit of {MAX_JOINT_ENTRIES}"):
        _parse(payload)
    assert time.perf_counter() - start < 1.0


def _wide_ground_truth_doc(size):
    """A one-state game with 8x8 actions and a ground truth of ``size`` world and ``size`` human states."""
    game = GameSpec(
        num_states=1,
        ai_actions=tuple(f"a{i}" for i in range(8)),
        human_actions=tuple(f"b{i}" for i in range(8)),
        observations=("none",),
        transitions=np.zeros((1, 8, 8, 1), dtype=np.int64),
        observation_probs=np.ones((1, 8, 8, 1)),
        margins=np.array([1.0]),
        action_bound=(tuple(range(8)),),
    )
    steps = np.arange(size * 64).reshape(size, 8, 8) % size
    gt = GroundTruthSystem(
        num_world_states=size,
        num_human_states=size,
        num_human_observations=1,
        world_transitions=steps,
        human_transitions=steps[..., None],
        human_observation=np.zeros(size, dtype=np.int64),
        ai_observation=np.zeros((size, 8, 8), dtype=np.int64),
        failure=np.zeros((size, size), dtype=bool),
        projection=np.zeros((size, size), dtype=np.int64),
    )
    return SpecDocument(game=game, ground_truth=gt)


def test_ground_truth_above_the_tuple_limit_is_refused():
    """The commutation check covers every tuple; past the limit it is a size error, not a MemoryError."""
    doc = _wide_ground_truth_doc(257)
    assert 257 * 257 * 64 == 4_227_136 > MAX_JOINT_ENTRIES
    items = validate_model(doc.game, doc.ground_truth).items
    assert [(i.severity, i.code) for i in items] == [("error", "size")]
    assert "4227136" in items[0].message and f"limit of {MAX_JOINT_ENTRIES}" in items[0].message
    with pytest.raises(SchemaError, match=f"4227136 .* limit of {MAX_JOINT_ENTRIES}"):
        parse_spec(serialize(doc))

    doc = _wide_ground_truth_doc(256)
    assert 256 * 256 * 64 == MAX_JOINT_ENTRIES
    assert parse_spec(serialize(doc)) == doc


def test_serialize_rejects_non_finite():
    game = build_chain(3).game
    broken = GameSpec(
        num_states=game.num_states,
        ai_actions=game.ai_actions,
        human_actions=game.human_actions,
        observations=game.observations,
        transitions=game.transitions,
        observation_probs=game.observation_probs,
        margins=np.array([np.nan, 0.0, 1.0, 2.0]),
        action_bound=game.action_bound,
    )
    with pytest.raises(SerializationError, match=r"non-finite number nan at game\.margin\[0\]$"):
        serialize(SpecDocument(game=broken))
    with pytest.raises(SerializationError, match=r"-inf at ground_truth\.x\[1\]\[0\]$"):
        canonical_json({"ground_truth": {"x": [[1.0], [-np.inf]]}, "y": 2})


def _reference_text(payload) -> str:
    """The canonical layout as ``json`` writes it, arrays given as lists."""
    def listed(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {key: listed(item) for key, item in value.items()}
        return value
    return json.dumps(listed(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _edge_document() -> SpecDocument:
    """The dialogue with edge-case floats, non-ASCII labels, ground truth, policies and annotations."""
    doc = build_dialogue()
    margins = np.array([-0.0, 5e-324, 1e16, 2**53 + 1, -1e-7, 1.5e300, 0.1, -1.0])
    game = dataclasses.replace(
        doc.game, margins=margins, state_labels=("café", "naïve", "日本", "🚀", "a, b", "x\"y", "\\", "\n"),
        scenario="Ünïcode", annotations=((), ("é",), (), (), (), (), ("a", "b, c"), ()),
    )
    return dataclasses.replace(doc, game=game)


def _single_state_document() -> SpecDocument:
    ones = np.ones((1, 1, 1, 1))
    game = GameSpec(
        num_states=1, ai_actions=("a",), human_actions=("b",), observations=("o",),
        transitions=np.zeros((1, 1, 1, 1), dtype=np.int64), observation_probs=ones,
        margins=np.array([2**53 + 1.0]), action_bound=((0,),),
    )
    return SpecDocument(game=game, task_policies={"only": (0,)})


def test_canonical_writer_matches_json_on_documents_and_value_files():
    docs = [*_scenario_docs(), *_oracle_corpus()[::5], *_verify_corpus()[::10], *_stochastic_corpus(),
            _edge_document(), _single_state_document()]
    for doc in docs:
        payload = {"format_version": "1", "game": _game_payload(doc.game)}
        if doc.ground_truth is not None:
            payload["ground_truth"] = _ground_truth_payload(doc.ground_truth)
        policies = {key: {name: list(table) for name, table in tables.items()}
                    for key, tables in (("task", doc.task_policies), ("human", doc.human_policies)) if tables}
        if policies:
            payload["policies"] = policies
        assert serialize(doc) == _reference_text(payload).encode("ascii"), doc.game.scenario
        values = solution_payload(value_iteration(doc.game))
        assert canonical_json(values) == _reference_text(values), doc.game.scenario


@pytest.mark.parametrize("payload", [
    {},
    {"a": []},
    {"a": [[], []], "b": {}, "c": None, "d": "x, y", "e": ["a, b", "c"], "f": (1, (2, 3))},
    {"ragged": [[1], [2, 3]], "mixed": [[1, 2.5], [True, 0]], "deep": [[[[[0.5]]]]]},
    {"ints": [2**53 + 1, -(2**70), 0], "floats": [-0.0, 0.0, 5e-324, 1e16, 1e-5, 123456789.0]},
    {"array": np.array([[-0.0, 0.0], [5e-324, 2.0**53 + 1]]), "int64": np.array([2**53 + 1, -1]),
     "bools": np.array([[True], [False]]), "empty": np.zeros((2, 0)), "strings": np.array(["a", "b"])},
    {"nested": {"z": [1.0, 1.0, 1.0], "a": [[0.1, 0.1], [0.2, 0.1]]}, "list_of_dicts": [{"k": [1]}, {}]},
])
def test_canonical_writer_matches_json_on_edge_payloads(payload):
    assert canonical_json(payload) == _reference_text(payload)


def test_save_and_load(tmp_path):
    path = tmp_path / "game.haig.json"
    doc = build_dialogue()
    save_spec(doc, path)
    assert load_spec(path) == doc
    assert path.read_bytes() == serialize(doc)


def test_overwrite_cuts_a_longer_file_and_keeps_its_inode_and_mode(tmp_path):
    path, link = tmp_path / "out.json", tmp_path / "hard-link.json"
    path.write_bytes(b"old bytes, longer than the new ones\n" * 100)
    path.chmod(0o640)
    os.link(path, link)
    before = path.stat()
    specfile._overwrite(path, b"new\n")
    after = path.stat()
    assert path.read_bytes() == link.read_bytes() == b"new\n"
    assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)
    specfile._overwrite(path, b"")
    assert path.read_bytes() == b""


def test_overwrite_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"x" * 4096)
    link.symlink_to(target)
    specfile._overwrite(link, b"through\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"through\n"


def test_overwrite_creates_a_file_with_the_umask_applied(tmp_path):
    path = tmp_path / "new.json"
    old_umask = os.umask(0o027)
    try:
        specfile._overwrite(path, b"fresh\n")
    finally:
        os.umask(old_umask)
    assert path.read_bytes() == b"fresh\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027


def test_overwrite_writes_to_the_null_device():
    specfile._overwrite(os.devnull, b"discarded\n")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_every_mutation_is_rejected_with_a_haig_error():
    """A sweep of corruptions must all fail loudly, never parse quietly."""
    base = json.loads(serialize(build_chain(4)))

    def mutate(fn):
        payload = json.loads(json.dumps(base))
        fn(payload)
        return json.dumps(payload)

    mutations = [
        lambda p: p.pop("format_version"),
        lambda p: p.update(format_version="0"),
        lambda p: p["game"].pop("transition"),
        lambda p: p["game"].pop("margin"),
        lambda p: p["game"].pop("action_bound"),
        lambda p: p["game"]["transition"][0][0][0].__setitem__(0, 99),
        lambda p: p["game"]["margin"].append(0.0),
        lambda p: p["game"]["margin"].__setitem__(0, "low"),
        lambda p: p["game"]["observation_probs"][0][0][0].__setitem__(0, 0.25),
        lambda p: p["game"]["action_bound"].__setitem__(0, []),
        lambda p: p["game"]["human_actions"].pop(),
        lambda p: p["ground_truth"].pop("projection"),
        lambda p: p["ground_truth"]["ai_observation"][0][0].__setitem__(0, 3),
        lambda p: p["policies"]["task"]["press_on"].pop(),
    ]
    for i, fn in enumerate(mutations):
        with pytest.raises(HaigError):
            parse_spec(mutate(fn))


def _parse_outcome(text):
    """What ``parse_spec`` makes of ``text``: the error's class and message, or every array bit for bit."""
    try:
        doc = parse_spec(text)
    except HaigError as exc:
        return type(exc), str(exc)
    arrays = [doc.game.transitions, doc.game.observation_probs, doc.game.margins]
    gt = doc.ground_truth
    arrays += [gt.world_transitions, gt.human_transitions, gt.human_observation, gt.ai_observation,
               gt.failure, gt.projection]
    return doc.game.action_bound, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("path, value", [
    (None, None),
    (("ground_truth", "human_dynamics", 0, 1, 2, 0), True),
    (("ground_truth", "human_dynamics", 0, 1, 2, 0), 0.0),
    (("game", "transition", 0, 0, 0, 0), True),
    (("game", "transition", 3, 1, 2, 0), "metal_in_microwave"),
    (("game", "transition", 3, 1, 2, 0), "nowhere"),
    (("game", "transition", 7, 2, 3, 0), 8),
    (("game", "transition", 7, 2, 3, 0), -1),
    (("game", "transition", 2, 1), [[0], [0]]),
    (("game", "transition", 2, 1, 0), 5),
    (("ground_truth", "projection", 5, 0), 10**30),
    (("ground_truth", "projection", 7, 0), 2**63),
    (("ground_truth", "privileged_failure", 0, 0), 1),
    (("game", "margin", 2), 10**400),
    (("game", "margin", 2), "1e999"),
    (("game", "margin", 2), True),
    (("game", "margin", 5), 2**53 + 1),
    (("game", "margin", 5), 2**63 + 1),
    (("game", "margin", 5), 10**30 + 1),
    (("game", "margin", 5), 2**1024 - 2**970 - 1),
    (("game", "margin", 5), -(2**1024 - 2**970)),
    (("game", "observation_probs", 1, 1, 1, 0), 1),
    (("game", "action_bound", 3), ["grab_glass", 0, 0]),
    (("game", "action_bound", 7), [3, 1, 1, 0]),
    (("game", "action_bound", 7), [4]),
    (("game", "action_bound", 7), [-1]),
    (("game", "action_bound", 7), [True]),
    (("game", "action_bound", 2), []),
    (("game", "action_bound", 2), 3),
    (("game", "action_bound"), [[]] * 8),
])
def test_typed_parse_agrees_with_the_per_leaf_readers(monkeypatch, path, value):
    """Arrays bit for bit, or the same error class, message and index path, with or without the fast paths."""
    raw = json.loads(serialize(build_dialogue()))
    raw["game"]["margin"] = [1e-300 * (i + 1) * (-1) ** (i == 7) for i in range(8)]  # floats, not ints
    if path is not None:
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    text = json.dumps(raw).replace('"1e999"', "1e999")
    typed = _parse_outcome(text)
    monkeypatch.setattr(specfile, "_read_typed", lambda *args: None)
    monkeypatch.setattr(specfile, "_bound_typed", lambda *args: None)
    assert typed == _parse_outcome(text)


def test_typed_parse_reads_well_formed_arrays():
    """The fast path accepts every array of a well-formed document, so the per-leaf readers never run."""
    raw = json.loads(serialize(build_dialogue()))
    game, gt = raw["game"], raw["ground_truth"]
    labels = _Resolver("state", 8, tuple(game["states"]))
    cases = [
        (game["transition"], (8, 3, 4, 1), labels, np.int64),
        (game["observation_probs"], (8, 3, 4, 1), _number, np.float64),
        (game["margin"], (8,), _number, np.float64),
        (gt["human_dynamics"], (1, 3, 4, 1), _integer, np.int64),
        (gt["privileged_failure"], (8, 1), _boolean, bool),
    ]
    for nodes, shape, read, dtype in cases:
        leaves = np.array(nodes, dtype=object).ravel().tolist()
        assert len(leaves) == np.prod(shape)
        fast = specfile._read_typed(leaves, read)
        slow = np.array([read(value, "x") for value in leaves], dtype=dtype)
        assert fast is not None and fast.dtype == slow.dtype and fast.tobytes() == slow.tobytes()
    assert specfile._bound_typed(game["action_bound"], _Resolver("human action", 4, None)) is not None
