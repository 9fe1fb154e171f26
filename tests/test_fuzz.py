"""A seeded fuzz of the documented input schemas through cli.main.

Each request starts from a valid one of measures, purify, dist, convert
or distill and mutates one of its JSON files or one numeric option.  Bad
input must end in exit code 1 (or 2, argparse's usage error or a
contract violation), with one "error: " line on stderr and no traceback
or warning.
"""

import contextlib
import copy
import io
import json
import math
import random
import warnings

from coherence_forge import cli
from coherence_forge.linalg import array_to_json

SEED = 20261020
REQUESTS = 400

_R = 1.0 / math.sqrt(2.0)
_U = 1.0 / math.sqrt(3.0)
FILES = {
    "cbit": array_to_json([_R, _R]),
    "u023": array_to_json([_U, 0.0, _U, _U]),
    "rho": array_to_json([[0.5, 0.3], [0.3, 0.5]]),
    "h2": {"levels_in_2pi_over_tau": [0, 1], "tau": 2.0 * math.pi},
    "h4": {"levels_in_2pi_over_tau": [0, 1, 2, 3]},
    "hb": {"levels_in_2pi_over_tau": [1, 0],
           "basis": array_to_json([[_R, _R], [_R, -_R]])},
    "hz": array_to_json([[0.5, 0.0], [0.0, -0.5]]),
}

# (argv, the options whose values may be mutated); a file is named by key
BASES = [
    (["measures", "--state", "rho", "--ham", "hz", "--alpha", "2.0"],
     ["--alpha"]),
    (["measures", "--state", "cbit", "--ham", "hb"], []),
    (["purify", "--state", "rho", "--ham", "h2", "--ensemble"], []),
    (["dist", "--state", "u023", "--ham", "h4", "--copies", "3"],
     ["--copies"]),
    (["dist", "--state", "cbit", "--ham", "hz", "--tau", "6.0"],
     ["--tau"]),
    (["convert", "--in", "cbit", "h2", "--out", "cbit", "hb", "--rate",
      "0.9", "--copies", "4,8"], ["--rate", "--copies"]),
    (["distill", "--in", "rho", "h2", "--target", "cbit", "hb",
      "--copies", "2"], ["--copies"]),
    (["distill", "--in", "rho", "hz", "--target", "u023", "h4"], []),
]

VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320, 2 ** 63,
          True, False, "x", [], [[1.0], 2.0], None]
OPTIONS = ["nan", "inf", "-inf", "1e308", "1e-320", str(2 ** 63), "true",
           "x", "", "0", "-1", "2.5"]


def _nodes(obj, path=()):
    """Every (path, value) inside obj, obj itself first."""
    yield path, obj
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutated(obj, rng):
    """A copy of obj with one node replaced, dropped, shortened or
    given an extra key."""
    obj = copy.deepcopy(obj)
    path, node = rng.choice(list(_nodes(obj)))
    kind = rng.choice(["value", "value", "value", "drop", "extra", "short"])
    if kind == "extra" and isinstance(node, dict):
        node[rng.choice(["extra", "dim", "tau", "basis"])] = rng.choice(VALUES)
        return obj
    if kind == "short" and isinstance(node, list) and node:
        node.pop()
        return obj
    if not path:
        return rng.choice(VALUES)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop" and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(VALUES)
    return obj


def _request(rng, tmp_path, i):
    argv, options = copy.deepcopy(rng.choice(BASES))
    files = [k for k, a in enumerate(argv) if a in FILES]
    if options and rng.random() < 0.25:
        at = argv.index(rng.choice(options)) + 1
        argv[at] = rng.choice(OPTIONS)
    else:
        at = rng.choice(files)
        argv[at] = json.dumps(_mutated(FILES[argv[at]], rng))
    for k in files:
        text = argv[k] if k == at else json.dumps(FILES[argv[k]])
        path = tmp_path / f"{i}-{k}.json"
        path.write_text(text)
        argv[k] = str(path)
    return argv


def test_mutated_requests_exit_with_one_error_line(tmp_path):
    rng = random.Random(SEED)
    codes = []
    for i in range(REQUESTS):
        argv = _request(rng, tmp_path, i)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse's usage error
                code = exc.code
        lines = [ln for ln in err.getvalue().splitlines() if "error: " in ln]
        assert code in (0, 1, 2), argv
        assert len(lines) == (code != 0), (argv, err.getvalue())
        codes.append(code)
    # the mutations reach past the parsers: some requests still succeed
    assert codes.count(0) > 0 and codes.count(1) > REQUESTS // 2
