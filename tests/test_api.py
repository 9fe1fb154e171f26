"""Every function the package exports is referenced by the package's code.

A function whose name appears as a code token in no module but at its
own def (and in the __init__ export) serves only its own tests; a name
inside a string, a docstring or a comment does not count.  Such a
function stays in the package only for a reason listed in KEPT.
"""

import inspect
import io
import pathlib
import tokenize

import coherence_forge

SRC = pathlib.Path(coherence_forge.__file__).parent

KEPT = {
    "period_respecting_ensemble":
        "the finite-copy coherence cost (ROADMAP item 3) is to sample its "
        "members",
    "dephase": "the reference that test_distill checks omega_state against",
    "is_ti":
        "the oracle test_twirl_output_is_ti_and_idempotent checks twirl's "
        "output against",
    "superoperator":
        "the oracle test_twirl_equals_discrete_time_average compares twirl "
        "with",
    "optimal_aux_hamiltonian":
        "the oracle test_optimal_purification_hits_quarter_qfi checks the "
        "purification's auxiliary Hamiltonian against",
    "single_sector":
        "the one-sector reference test_sector_solve_matches_full_space_solve "
        "solves the full space with",
}


def _code_names(source):
    """NAME tokens of source, less the name of each module-level def.

    Strings, docstrings and comments are tokens of their own kinds, so a
    name that appears only there is not counted.
    """
    names, prev = [], None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME and not (
                prev is not None and prev.string == "def"
                and prev.start[1] == 0):
            names.append(tok.string)
        prev = tok
    return names


def test_code_names_skip_strings_and_comments():
    src = ('def f():\n'
           '    """Calls g."""\n'
           '    # g again\n'
           '    return "g"\n'
           '\n'
           'def g():\n'
           '    return f()\n')
    names = _code_names(src)
    assert names.count("g") == 0
    assert names.count("f") == 1


def test_every_exported_function_is_referenced():
    names = [name for p in SRC.glob("*.py") if p.name != "__init__.py"
             for name in _code_names(p.read_text())]
    exported = {name for name, obj in vars(coherence_forge).items()
                if inspect.isfunction(obj) and not name.startswith("_")}
    assert KEPT.keys() <= exported
    unreferenced = exported - set(names)
    assert sorted(unreferenced - KEPT.keys()) == []
    # a kept name that gains a reference no longer needs its exception
    assert sorted(KEPT.keys() - unreferenced) == []
