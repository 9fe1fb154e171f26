"""Every function and class of the package is referenced by the
package's code, and every tolerance is read by it and documented.

Every name a package module imports (other than in __init__, and other
than a __future__ feature) is used in that module's code.

A module-level function or class, public or private, whose name appears
as a code token in no module but at its own def or class line (and in
the __init__ export) serves only its own tests; a name inside a string,
a docstring or a comment does not count.  The CLI's cmd_* handlers count
as referenced, since main dispatches them by name.  Any other such name
stays in the package only for a reason listed in KEPT.  Every method and
property of a package class, dunders aside, is read as an attribute
(x.name) somewhere in the package's code.  Every error
class but the common base is raised somewhere in the package.  Every
field of config.Tolerances is read as DEFAULT.<field> in the package's
code and named in the README's Tolerances table.  Every package name the
README quotes in backticks, as module.name or as a call name(...)
holding an underscore, is defined, and the README's Library quick start
runs and gives the numbers its comments show.
"""

import ast
import dataclasses
import importlib
import inspect
import io
import pathlib
import re
import tokenize

import coherence_forge
from coherence_forge import config, errors

SRC = pathlib.Path(coherence_forge.__file__).parent
README = SRC.parent.parent / "README.md"

CHANNEL_API = ("the public channel API: the per-trial reference of the "
               "monotonicity suite calls it, while the suite runs its "
               "private core")
KEPT = {
    "period_respecting_ensemble":
        "the finite-copy coherence cost (ROADMAP item 8) is to sample its "
        "members",
    "random_channel": CHANNEL_API,
    "twirl": CHANNEL_API,
    "apply": CHANNEL_API,
}


def _code_names(source):
    """NAME tokens of source, less the name of each module-level def or
    class.

    Strings, docstrings and comments are tokens of their own kinds, so a
    name that appears only there is not counted.
    """
    names, prev = [], None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME and not (
                prev is not None and prev.string in ("def", "class")
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
           '    return f()\n'
           '\n'
           'class C:\n'
           '    def h(self):\n'
           '        return C\n')
    names = _code_names(src)
    assert names.count("g") == 0
    assert names.count("f") == 1
    assert names.count("C") == 1


def _imported_names(source):
    """Names bound by the import statements of source, less __future__
    features, and source with those statements blanked out."""
    lines = source.splitlines(keepends=True)
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines[node.lineno - 1:node.end_lineno] = (
                ["\n"] * (node.end_lineno - node.lineno + 1))
            if getattr(node, "module", None) != "__future__":
                names += [(a.asname or a.name).split(".")[0]
                          for a in node.names]
    return names, "".join(lines)


def test_imported_names_blank_the_imports():
    src = ('from __future__ import annotations\n'
           'import numpy as np\n'
           'from .a import (b,\n'
           '                c)\n'
           'x = np.zeros(b)\n')
    names, rest = _imported_names(src)
    assert names == ["np", "b", "c"]
    assert [n for n in names if n not in _code_names(rest)] == ["c"]


def test_every_import_is_used():
    unused = []
    for p in SRC.glob("*.py"):
        if p.name == "__init__.py":
            continue
        names, rest = _imported_names(p.read_text())
        used = set(_code_names(rest))
        unused += [f"{p.stem}: {n}" for n in names if n not in used]
    assert unused == []


def test_no_exported_function_takes_a_tolerance_table():
    # every cutoff is read from config.DEFAULT; none is set per call
    takes_tols = [name for name, obj in vars(coherence_forge).items()
                  if inspect.isfunction(obj)
                  and "tols" in inspect.signature(obj).parameters]
    assert takes_tols == []
    assert not hasattr(coherence_forge, "Tolerances")


def _module_symbols():
    """Functions and classes defined at module level in the package, by
    name, private ones too."""
    out = set()
    for p in SRC.glob("*.py"):
        if p.stem.startswith("_"):
            continue
        module = importlib.import_module(f"coherence_forge.{p.stem}")
        out |= {name for name, obj in vars(module).items()
                if (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__}
    return out


def test_every_exported_function_is_referenced():
    names = [name for p in SRC.glob("*.py") if p.name != "__init__.py"
             for name in _code_names(p.read_text())]
    # a private name counts too, so that no helper is kept for tests only
    symbols = {name for name in _module_symbols()
               if not name.startswith("cmd_")}
    assert KEPT.keys() <= symbols
    unreferenced = symbols - set(names)
    assert sorted(unreferenced - KEPT.keys()) == []
    # a kept name that gains a reference no longer needs its exception
    assert sorted(KEPT.keys() - unreferenced) == []


def _class_members(source):
    """Names of the methods and properties defined in the class bodies of
    source, dunders aside."""
    return {f.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) for f in node.body
            if isinstance(f, ast.FunctionDef)
            and not (f.name.startswith("__") and f.name.endswith("__"))}


def _attribute_reads(source):
    """Names read as an attribute, x.name, in the code of source."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}


def test_members_and_attribute_reads_come_from_the_syntax_tree():
    src = ('class C:\n'
           '    def __init__(self):\n'
           '        self.x = g.h\n'
           '\n'
           '    @property\n'
           '    def p(self):\n'
           '        return "q.r"  # s.t\n'
           '\n'
           'def f(d_in):\n'
           '    return d_in\n')
    assert _class_members(src) == {"p"}
    assert _attribute_reads(src) == {"x", "h"}


def test_every_method_is_read_as_an_attribute():
    # a bare name does not count: a local variable may share it
    sources = [p.read_text() for p in SRC.glob("*.py")]
    members = set().union(*map(_class_members, sources))
    reads = set().union(*map(_attribute_reads, sources))
    assert sorted(members - reads) == []


def _raised_names(source):
    """Names in the exception of each raise statement of source: the
    NAME tokens after raise, up to a parenthesis, from or the line end."""
    names, raising = [], False
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.string == "raise":
            raising = True
        elif tok.string in ("(", "from") or tok.type == tokenize.NEWLINE:
            raising = False
        elif raising and tok.type == tokenize.NAME:
            names.append(tok.string)
    return names


def test_raised_names_read_raise_statements_only():
    src = ('try:\n'
           '    raise errors.A("B")\n'
           'except C as exc:\n'
           '    raise D from exc\n')
    assert _raised_names(src) == ["errors", "A", "D"]


def test_every_error_class_is_raised():
    raised = {name for p in SRC.glob("*.py")
              for name in _raised_names(p.read_text())}
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    assert "CoherenceForgeError" in classes
    assert sorted(classes - raised - {"CoherenceForgeError"}) == []


def _default_reads(source):
    """Field names read as DEFAULT.<field> in the code of source."""
    toks = [tok.string for tok in
            tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type in (tokenize.NAME, tokenize.OP)]
    return {b for a, dot, b in zip(toks, toks[1:], toks[2:])
            if a == "DEFAULT" and dot == "."}


def test_default_reads_skip_strings_and_comments():
    src = ('x = DEFAULT.herm  # DEFAULT.psd\n'
           'y = "DEFAULT.norm"\n')
    assert _default_reads(src) == {"herm"}


def _readme_tolerances():
    """Names in backticks in the first cell of each row of the README's
    Tolerances table."""
    section = README.read_text().split("## Tolerances\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return {name for line in section.splitlines()
            if line.startswith("| `")
            for name in line.split("|")[1].replace("`", " ").replace(
                ",", " ").split()}


def test_every_tolerance_is_read_and_documented():
    fields = {f.name for f in dataclasses.fields(config.Tolerances)}
    reads = set().union(*(_default_reads(p.read_text())
                          for p in SRC.glob("*.py")))
    assert sorted(fields - reads) == []
    assert _readme_tolerances() == fields


def _readme_references(text):
    """(module, name) pairs quoted in backticks in text, outside fenced
    blocks: each module.name whose module is the package or one of its
    modules, and each name( whose name holds an underscore, with module
    None (any package module)."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    modules = {p.stem for p in SRC.glob("*.py")}
    refs = []
    for span in re.findall(r"`([^`]+)`", text):
        dotted = re.match(r"([A-Za-z_]\w*(?:\.\w+)+)(?:\(|$)", span)
        call = re.match(r"(\w*_\w*)\(", span)
        if dotted:
            head, rest = dotted.group(1).split(".", 1)
            if head in modules:
                refs.append((f"coherence_forge.{head}", rest))
            elif head == "coherence_forge":
                refs.append((head, rest))
        elif call:
            refs.append((None, call.group(1)))
    return refs


def test_readme_references_read_backticked_names():
    text = ("`distill.iid_fidelity` and `np.add.at` and `pyproject.toml`,\n"
            "```sh\n`linalg.gone`\n```\n"
            "`coherence_forge.config.DEFAULT`, `kkt_residual(pur, H_S)`,\n"
            "`F(ρ, H)` and `distill._splits(σ, H)`")
    assert _readme_references(text) == [
        ("coherence_forge.distill", "iid_fidelity"),
        ("coherence_forge", "config.DEFAULT"), (None, "kkt_residual"),
        ("coherence_forge.distill", "_splits")]


def _defines(module, dotted):
    obj = module
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_names_exist():
    modules = [importlib.import_module(f"coherence_forge.{p.stem}")
               for p in SRC.glob("*.py") if not p.stem.startswith("_")]
    missing = []
    for where, name in _readme_references(README.read_text()):
        if where is None:
            found = any(name in vars(m) for m in modules)
        else:
            found = _defines(importlib.import_module(where), name)
        if not found:
            missing.append(name if where is None else f"{where}.{name}")
    assert missing == []


def _quick_start():
    """The fenced python block under the README's Library quick start."""
    section = README.read_text().split("## Library quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)


def test_readme_quick_start_runs_and_prints_its_numbers():
    # each expression with a trailing "# <number>" comment evaluates to
    # that number at the digits written there
    source = _quick_start()
    numbers = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        found = re.match(r"#\s*(-?\d+\.(\d+))\b", tok.string)
        if tok.type == tokenize.COMMENT and found:
            numbers[tok.start[0]] = found.groups()
    scope, checked = {}, []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr) and node.end_lineno in numbers:
            text, digits = numbers[node.end_lineno]
            value = eval(compile(ast.Expression(node.value), "README",
                                 "eval"), scope)
            checked.append(text)
            assert abs(value - float(text)) <= 0.5 * 10.0 ** -len(digits), (
                ast.unparse(node), value, text)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), scope)
    assert checked == ["0.36", "0.5625", "0.09", "0.8", "0.99549"]
