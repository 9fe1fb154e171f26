"""A seeded fuzz of the documented input schemas through cli.main.

Each request starts from a valid one of measures, purify, dist, convert,
distill, qubit-bound or proptest and either mutates one of its JSON
files, at random, or sets one of its options to each bad value in turn.
Bad input must end in exit code 1 (or 2, argparse's usage error or a
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
    (["qubit-bound", "--lambda", "0.6", "--n", "3"], ["--lambda", "--n"]),
    (["proptest", "--measure", "renyi", "--alpha", "1.5", "--trials", "2",
      "--seed", "5"], ["--measure", "--alpha", "--trials", "--seed"]),
]

VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320, 2 ** 63,
          True, False, "x", [], [[1.0], 2.0], None]
OPTIONS = ["nan", "inf", "-inf", "1e308", "1e-320", str(2 ** 63), "true",
           "x", "", "0", "-1", "2.5"]
# a huge count is a valid long run, not bad input
COUNTS = {"--trials", "--n"}
BAD_COUNTS = ["0", "-1", "x", "2.5", ""]


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


def _written(argv, tmp_path, tag, texts):
    """argv with each file key replaced by the path of a file holding
    texts[k] at argv index k, else the key's JSON."""
    argv = list(argv)
    for k, a in enumerate(argv):
        if a in FILES:
            path = tmp_path / f"{tag}-{k}.json"
            path.write_text(texts.get(k, json.dumps(FILES[a])))
            argv[k] = str(path)
    return argv


def _request(rng, tmp_path, i):
    """A base with one of its JSON files mutated."""
    argv, _ = rng.choice([b for b in BASES if set(b[0]) & FILES.keys()])
    at = rng.choice([k for k, a in enumerate(argv) if a in FILES])
    return _written(argv, tmp_path, i,
                    {at: json.dumps(_mutated(FILES[argv[at]], rng))})


def _option_requests(tmp_path):
    """Every base with one of its options set to each value of OPTIONS,
    or of BAD_COUNTS for a count."""
    for i, (argv, options) in enumerate(BASES):
        for option in options:
            at = argv.index(option) + 1
            for value in BAD_COUNTS if option in COUNTS else OPTIONS:
                yield _written(argv[:at] + [value] + argv[at + 1:],
                               tmp_path, f"option-{i}", {})


def _exit_code(argv):
    """cli.main's exit code on argv, which has to be 0 with no error
    line, or 1 or 2 with one, and no traceback or warning."""
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
    return code


def test_mutated_requests_exit_with_one_error_line(tmp_path):
    rng = random.Random(SEED)
    codes = [_exit_code(_request(rng, tmp_path, i)) for i in range(REQUESTS)]
    # the mutations reach past the parsers: some requests still succeed
    assert codes.count(0) > 0 and codes.count(1) > REQUESTS // 2


def test_every_bad_option_exits_with_one_error_line(tmp_path):
    for argv in _option_requests(tmp_path):
        _exit_code(argv)
