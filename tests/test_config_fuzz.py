"""Derandomized fuzz of the config boundary.

Each example changes one entry of a shipped config (its type, shape,
finiteness, range or presence), or inserts a key that no section knows
into one section, and runs one command in-process.  Whatever the change,
the command exits 0, 2 or 3 without a traceback; exit 2 ends stderr with
the JSON error object naming an invariant; and a failed command leaves no
artifact.  An inserted key exits 2 with ``<section>-unknown``.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from platedecay.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# coarse meshes, short horizons and few sweep points keep a run in tens of
# milliseconds; the drawn values keep h and refinements far from the
# mesh-size guard, which refuses before meshing anyway
MESH_H = {"square": 0.5, "lens": 0.3}
COMMANDS = ("check", "mesh", "simulate", "spectrum", "resolvent")


def coarse(name):
    data = json.loads((CONFIGS / f"{name}.json").read_text())
    data["mesh"]["h"] = MESH_H[name]
    data.setdefault("sim", {}).update(dt=0.01, T=0.05)
    data.setdefault("spectral", {})["points"] = 12
    return data


BASES = {name: coarse(name) for name in MESH_H}


def entries(node, path=()):
    """Paths of every section, list and value below the root."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from entries(child, path + (key,))


def variants(value):
    """Replacement values: other types, other shapes, non-finite numbers
    and out-of-range numbers."""
    out = ["x", True, None, {}, [], [value], math.nan, math.inf, -math.inf]
    if isinstance(value, list) and value:
        out += [value[:-1], value + value[-1:]]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [-value, -1, 0, 2 * value, 1e-3 * value, 1.5]
    return out


DROP = object()
# removed keys and misspellings: no section takes any of them
UNKNOWN_KEYS = ("mu_", "J", "corner_gains", "poisson_ratio", "scheme", "d_1",
                "lable", "conditon_g_policy", "hh")


def section_name(path):
    """The name of the section at ``path`` in its ``-unknown`` invariant."""
    if not path:
        return "config"
    return "edge" if path[-2:-1] == ("edges",) else path[-1]


def node_at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def mutations(draw):
    """(config, command, the invariant it must exit 2 with, or None)."""
    name = draw(st.sampled_from(sorted(BASES)))
    data = json.loads(json.dumps(BASES[name]))
    expect = None
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(entries(data))))
        node = node_at(data, path[:-1])
        value = draw(st.sampled_from(variants(node[path[-1]]) + [DROP]))
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    else:
        path = draw(st.sampled_from(
            [()] + [p for p in entries(data)
                    if isinstance(node_at(data, p), dict)]))
        node_at(data, path)[draw(st.sampled_from(UNKNOWN_KEYS))] = 0
        expect = f"{section_name(path)}-unknown"
    return data, draw(st.sampled_from(COMMANDS)), expect


def with_entry(name, path, value):
    """A copy of base config ``name`` with the entry at ``path`` set."""
    data = json.loads(json.dumps(BASES[name]))
    node_at(data, path[:-1])[path[-1]] = value
    return data


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(mutations())
@example((with_entry("square", ("sim", "snapshot_stride"), -3), "simulate",
          "snapshot_stride-range"))
def test_config_fuzz(case):
    data, command, expect = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg_path),
                         "--out", str(out)])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            last = json.loads(err.getvalue().strip().splitlines()[-1])
            assert last["exit_code"] == 2 and last["invariant"] is not None
        if expect is not None:
            assert code == 2 and last["invariant"] == expect
        if code != 0:
            assert not out.exists() or not any(out.iterdir())
