"""Seeded fuzz of the command line, run in-process through ``cli.main``.

Mutated netlists and byte-mutated stimulus traces go through ``simulate``
(the traces also through ``waveform --stimulus``), and extreme numeric
values through the flags of ``analyze``, ``spf-sweep`` and ``waveform``.
Every run must end in a documented exit code, never in a traceback.
"""

import copy
import json
import random

import pytest

from involution.cli import main

DOCUMENTED = {0, 2, 3, 4, 5}

NETLIST = {
    "ports": [{"name": "i", "direction": "in"}, {"name": "o", "direction": "out"}],
    "gates": [
        {"name": "g", "function": "NOT", "arity": 1, "initial": 1},
        {"name": "h", "function": "XOR", "arity": 2, "initial": 0},
    ],
    "channels": [
        {"name": "c0", "from": "i", "to": "g.0", "kind": "inertial", "params": {"d": 0.5, "window": 0.2}},
        {
            "name": "c1",
            "from": "g",
            "to": "h.0",
            "kind": "eta_involution",
            "params": {"exp": {"tau": 1.0, "t_p": 0.5, "vth": 0.5}},
            "eta": {"plus": 0.05, "minus": 0.05},
            "strategy": {"variant": "uniform_random", "seed": 3},
        },
        {
            "name": "c2",
            "from": "h",
            "to": "h.1",
            "kind": "eta_involution",
            "params": {"exp": {"tau": 1.0, "t_p": 0.6, "vth": 0.5}},
            "eta": {"plus": 0.02, "minus": 0.01},
            "strategy": {"variant": "worst_case_shrink"},
        },
        {"name": "c3", "from": "h", "to": "o", "kind": "involution", "params": {"exp": {"tau": 2.0, "t_p": 0.2, "vth": 0.6}}},
    ],
}
STIMULUS = b"signal,time,value\ni,-inf,0\ni,1.0,1\ni,2.5,0\ni,4.0,1\ni,4.3,0\n"

# values a netlist field may be replaced with, of every JSON type and at the edges of the floats
ODD_VALUES = [
    None, True, -1, 0, 2, 10**30, -0.0, 5e-324, 1e-300, 1e308, float("nan"), float("inf"), 0.5,
    "", "x", "i", "g", "h.5", "h.-1", "g.0", "in", "out", "NOT", "pure", "inertial", "zero", "uniform_random",
    "fixed_sequence", [], [1], {}, {"a": 1},
]
ODD_BYTES = [b",", b"\n", b"-", b"e", b"9", b"inf", b"nan", b"1e308", b"5e-324", b"i", b"0", b"\x00", b"\xff", b'"']
# flag values at the edges of the floats, outside every flag's range, or not numbers
EXTREMES = [
    "5e-324", "1e-310", "1e-154", "1e-20", "0.5", "1", "7", "1e20", "1e154", "1.7976931348623157e308",
    "0", "-0.0", "-1", "nan", "inf", "0.9999999999999999",
]


def _exit(capsys, argv) -> tuple[int, str]:
    """main's exit code, checked to be a documented one, and its stderr."""
    try:
        rc = main(argv)
    except Exception as exc:  # main lets only an undocumented failure through
        pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err
    assert rc in DOCUMENTED and "Traceback" not in err, (argv, rc, err)
    return rc, err


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*path, key))


def _mutated_document(rng: random.Random) -> dict:
    doc = copy.deepcopy(NETLIST)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice([p for p in _paths(doc) if p])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        r = rng.random()
        if r < 0.15 and isinstance(parent, dict):
            del parent[path[-1]]
        elif r < 0.25 and isinstance(parent, list):
            parent.append(copy.deepcopy(rng.choice(parent)))
        else:
            parent[path[-1]] = copy.deepcopy(rng.choice(ODD_VALUES))
    return doc


def _mutated_bytes(rng: random.Random, data: bytes) -> bytes:
    b = bytearray(data)
    for _ in range(rng.randint(1, 2)):
        r, k = rng.random(), rng.randrange(len(b) + 1)
        if r < 0.3 and k < len(b):
            b[k] = rng.randrange(256)
        elif r < 0.5:
            b[k:k] = rng.choice(ODD_BYTES)
        elif r < 0.7:
            del b[k : k + rng.randint(1, 5)]
        else:
            lines = bytes(b).split(b"\n")
            lines.insert(rng.randrange(len(lines)), rng.choice(lines))
            b = bytearray(b"\n".join(lines))
    return bytes(b)


@pytest.mark.parametrize("seed", range(4))
def test_mutated_netlists_end_in_a_documented_exit(tmp_path, capsys, seed):
    rng = random.Random(seed)
    netlist, stimulus = tmp_path / "n.json", tmp_path / "s.csv"
    stimulus.write_bytes(STIMULUS)
    argv = ["simulate", str(netlist), str(stimulus), "--horizon", "20", "--events-max", "5000", "--out", str(tmp_path / "o")]
    for k in range(100):
        if k % 3:
            netlist.write_text(json.dumps(_mutated_document(rng)))
        else:
            netlist.write_bytes(_mutated_bytes(rng, json.dumps(NETLIST).encode()))
        _exit(capsys, argv)


@pytest.mark.parametrize("seed", range(4))
def test_byte_mutated_stimuli_end_in_a_documented_exit(tmp_path, capsys, seed):
    rng = random.Random(seed)
    netlist, stimulus = tmp_path / "n.json", tmp_path / "s.csv"
    netlist.write_text(json.dumps(NETLIST))
    simulate = ["simulate", str(netlist), str(stimulus), "--horizon", "20", "--events-max", "5000"]
    waveform = ["waveform", "--tau", "1", "--t-p", "0.5", "--vth", "0.6", "--amplitude", "0.01"]
    waveform += ["--stimulus", str(stimulus), "--horizon", "10"]
    for k in range(60):
        stimulus.write_bytes(_mutated_bytes(rng, STIMULUS))
        _exit(capsys, [*(waveform if k % 4 == 0 else simulate), "--out", str(tmp_path / "o")])


def _flags(rng: random.Random, defaults: dict) -> list[str]:
    """``defaults`` as flags, each value replaced by an extreme one with probability 0.2."""
    out = []
    for flag, values in defaults.items():
        out += [flag, *(rng.choice(EXTREMES) if rng.random() < 0.2 else v for v in values)]
    return out


DELAY = {"--tau": ["1"], "--t-p": ["0.5"], "--vth": ["0.6"]}
ETA = {"--eta-plus": ["0.01"], "--eta-minus": ["0.01"]}
# the grids stay within a few points, so that a sweep stays short
GRIDS = [
    ["0.3", "0.6", "0.3"], ["5e-324", "5e-324", "5e-324"], ["1e-300", "1e-300", "1"], ["1e300", "1e300", "1e300"],
    ["0.5", "1.7976931348623157e308", "1e308"], ["0.1", "0.1", "1e-300"], ["1e9", "1e9", "1"], ["0.3", "0.1", "0.1"],
]


@pytest.mark.parametrize("seed", range(4))
def test_extreme_numeric_flags_end_in_a_documented_exit(tmp_path, capsys, seed):
    rng = random.Random(seed)
    stimulus = tmp_path / "s.csv"
    stimulus.write_bytes(STIMULUS)
    out = ["--out", str(tmp_path / "o")]
    for _ in range(40):
        _exit(capsys, ["analyze", *_flags(rng, {**DELAY, **ETA})])
        sweep = {**DELAY, **ETA, "--horizon": ["20"], "--events-max": [rng.choice(["1", "2000", "2000", "0"])]}
        strategy = rng.choice(["zero", "worst", "random"])
        grid = rng.choice(GRIDS)
        _exit(capsys, ["spf-sweep", *_flags(rng, sweep), "--grid", *grid, "--strategy", strategy, "--seeds", "1", *out])
        amplitude = rng.choice(["0", "0.01", "0.2", "5e-324"])
        wave = {**DELAY, "--amplitude": [amplitude], "--period": ["1"], "--eta-plus": ["0.001"], "--horizon": ["10"]}
        _exit(capsys, ["waveform", *_flags(rng, wave), "--stimulus", str(stimulus), *out])


@pytest.mark.parametrize("period", ["1e-154", "1e-310", "5e-324"])
def test_a_period_too_short_for_the_rail_phase_is_a_constraint_error(tmp_path, capsys, period):
    # the rail's sine overflowed (1e-154), took an infinite phase (1e-310) or
    # divided by a grid step of 0 (5e-324), and main raised
    argv = ["waveform", "--tau", "1", "--t-p", "0.5", "--vth", "0.6", "--amplitude", "0.01", "--period", period]
    rc, err = _exit(capsys, [*argv, "--out", str(tmp_path / "o")])
    assert rc == 4 and "--period" in err
