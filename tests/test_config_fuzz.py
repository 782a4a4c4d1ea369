"""Derandomized fuzz of the config boundary.

Each example changes one entry of a shipped config (its type, shape,
finiteness, range or presence) and runs one command in-process.  Whatever
the change, the command exits 0, 2 or 3 without a traceback; exit 2 ends
stderr with the JSON error object naming an invariant; and a failed
command leaves no artifact.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

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


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    data = json.loads(json.dumps(BASES[name]))
    path = draw(st.sampled_from(list(entries(data))))
    node = data
    for key in path[:-1]:
        node = node[key]
    value = draw(st.sampled_from(variants(node[path[-1]]) + [DROP]))
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data, draw(st.sampled_from(COMMANDS))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(mutations())
def test_config_fuzz(case):
    data, command = case
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
        if code != 0:
            assert not out.exists() or not any(out.iterdir())
