"""Every function the package exports is referenced by the package itself.

A function whose name appears in no module but at its own def (and in
the __init__ export) serves only its own tests; it stays in the package
only for a reason listed in KEPT.
"""

import inspect
import pathlib
import re

import coherence_forge

SRC = pathlib.Path(coherence_forge.__file__).parent

KEPT = {
    "period_respecting_ensemble":
        "the permutation-reduced distillation SDP is to consume it",
    "dephase": "the reference that test_distill checks omega_state against",
}


def _references(name, texts):
    """Whole-word occurrences of name, less its module-level def."""
    return sum(len(re.findall(rf"\b{name}\b", t))
               - len(re.findall(rf"^def {name}\b", t, re.M)) for t in texts)


def test_every_exported_function_is_referenced():
    texts = [p.read_text() for p in SRC.glob("*.py")
             if p.name != "__init__.py"]
    exported = {name for name, obj in vars(coherence_forge).items()
                if inspect.isfunction(obj) and not name.startswith("_")}
    assert KEPT.keys() <= exported
    unreferenced = {name for name in exported
                    if _references(name, texts) == 0}
    assert sorted(unreferenced - KEPT.keys()) == []
    # a kept name that gains a reference no longer needs its exception
    assert sorted(KEPT.keys() - unreferenced) == []
