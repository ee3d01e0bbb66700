"""Static checks on the package source."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ncgram"


def test_package_source_has_no_assert_statements():
    # `python -O` strips assert statements, so no check in the package may
    # rely on one; raise an exception instead.
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_source_parses_at_the_python_floor():
    # pyproject's requires-python is the oldest Python the package claims;
    # syntax newer than it would fail only there, where no test runs
    pyproject = (SOURCE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert found
    floor = (int(found[1]), int(found[2]))
    files = sorted(SOURCE.glob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
    if floor < (3, 11):  # the check sees syntax past the floor: exception groups are 3.11
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)


def test_every_exported_name_resolves():
    # a stale __all__ entry only fails on `from ncgram import *`
    import ncgram

    missing = [name for name in ncgram.__all__ if not hasattr(ncgram, name)]
    assert missing == []


def test_importing_the_package_loads_no_numeric_library():
    # the package is pure Python: numpy or gmpy2, where installed, would add
    # their import time to every process that imports ncgram
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    script = "import sys, ncgram; print(sorted({m.split('.')[0] for m in sys.modules}))"
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(ast.literal_eval(out))
    assert "ncgram" in loaded
    assert loaded & {"numpy", "gmpy2"} == set()


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds in one module that nothing else in it mentions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        # a name listed in __all__ is re-exported, so it counts as used
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            ):
                used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


def test_package_source_has_no_unused_imports():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    assert [entry for path in files for entry in _unused_imports(path)] == []


def _references(tree: ast.AST, names: set[str], scope: str = "<module>"):
    """(innermost enclosing function, name) for each mention of one of names."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _references(node, names, node.name)
            continue
        if isinstance(node, ast.Name) and node.id in names:
            yield scope, node.id
        elif isinstance(node, ast.Attribute) and node.attr in names:
            yield scope, node.attr
        elif isinstance(node, ast.alias) and node.name in names:
            yield scope, node.name
        yield from _references(node, names, scope)


def test_only_gram_reaches_the_elimination_kernel():
    # every determinant and rank goes through gram's budget checks and
    # shape checks, so no caller can eliminate a matrix past them: the two
    # entry points each read the bits of an integer matrix off its entries
    found = {
        f"{path.name}:{scope}"
        for path in sorted(SOURCE.glob("*.py"))
        for scope, _ in _references(
            ast.parse(path.read_text(encoding="utf-8"), str(path)), {"det_exact", "rank_exact"}
        )
    }
    assert found == {"gram.py:determinant", "gram.py:rank", "gram.py:_det_by_substitution"}
    gram = ast.parse((SOURCE / "gram.py").read_text(encoding="utf-8"))
    checked = {scope for scope, _ in _references(gram, {"_check_entry_bits"})}
    assert checked == {"determinant", "rank"}


def _raises(tree: ast.AST, scope: str = "<module>"):
    """(innermost enclosing function, raised expression) for each raise."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(node, node.name)
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            yield scope, ast.unparse(node.exc)
        yield from _raises(node, scope)


def test_only_the_one_refusal_rule_raises_the_budget_error():
    # every budget refuses through `refuse_past`, from sizes stepped up to
    # the first one past it, so no call site can refuse by a rule of its own
    found = [
        f"{path.name}:{scope}"
        for path in sorted(SOURCE.glob("*.py"))
        for scope, raised in _raises(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if "BudgetError" in raised
    ]
    assert found == ["errors.py:refuse_past"]


def _appends(tree: ast.AST, scope: str = "<module>"):
    """(innermost enclosing function, receiver) for each `name.append(...)`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _appends(node, node.name)
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Name)
        ):
            yield scope, node.func.value.id
        yield from _appends(node, scope)


def test_each_case_family_is_one_rule():
    # the four corner rotations are one rule read off the corner, so the
    # refusal of an empty row is raised at one site; the three polynomial
    # families are one recurrence, so one helper extends every cache
    found = [
        f"{path.name}:{scope}"
        for path in sorted(SOURCE.glob("*.py"))
        for scope, raised in _raises(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if "RotationUndefined" in raised
    ]
    assert found == ["partitions.py:rotate"]
    polynomials = ast.parse((SOURCE / "polynomials.py").read_text(encoding="utf-8"))
    extenders = [scope for scope, receiver in _appends(polynomials) if "cache" in receiver]
    assert extenders == ["_family"]


def _status_setters(tree: ast.AST, scope: str = "<module>"):
    """The innermost enclosing function of each dict display, assignment or
    update call that gives a "status" of "pass" or "fail"."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _status_setters(node, node.name)
            continue
        if isinstance(node, ast.Dict):
            values = [v for k, v in zip(node.keys, node.values) if _is_constant(k, "status")]
        elif isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
            values = [node.value] if any(_is_constant(t.slice, "status") for t in targets) else []
        elif isinstance(node, ast.Call):
            values = [kw.value for kw in node.keywords if kw.arg == "status"]
        else:
            values = []
        constants = [c.value for v in values for c in ast.walk(v) if isinstance(c, ast.Constant)]
        if {"pass", "fail"} & set(constants):
            yield scope
        yield from _status_setters(node, scope)


def _is_constant(node, value: str) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def test_only_the_law_runner_sets_a_law_status():
    # every law report is built by one runner, so no check reports by a rule
    # of its own; the command line defines no check and binds none of the
    # diagram operations the checks read
    found = {
        f"{path.name}:{scope}"
        for path in sorted(SOURCE.glob("*.py"))
        for scope in _status_setters(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    }
    assert found == {"tensor_model.py:_run_law"}
    cli = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    operations = {"compose", "involution", "refines", "tensor", "count_partitions"}
    assert _mentions(cli) & (operations | {"enumerate_partitions", "Partition"}) == set()
    assert [
        node.name
        for node in ast.walk(cli)
        if isinstance(node, ast.FunctionDef) and ("check" in node.name or "invariant" in node.name)
    ] == []


def test_only_the_one_generator_skips_the_canonical_check():
    # `_generated` builds a partition without checking its RGS, which only
    # the generator behind every class and every stratum may rely on
    found = {
        f"{path.name}:{scope}"
        for path in sorted(SOURCE.glob("*.py"))
        for scope, _ in _references(
            ast.parse(path.read_text(encoding="utf-8"), str(path)), {"_generated"}
        )
    }
    assert found == {"partitions.py:_enumerate"}
    # the slot setters it fills a partition through bypass the check too
    setters = {"_set_upper", "_set_lower", "_set_rgs"}
    found = {
        f"{path.name}:{scope}"
        for path in sorted(SOURCE.glob("*.py"))
        for scope, _ in _references(ast.parse(path.read_text(encoding="utf-8"), str(path)), setters)
    }
    assert found == {"partitions.py:<module>", "partitions.py:_generated"}


def test_only_in_W_touches_the_level_memo():
    # the memo of the last partition's level is right only while the one
    # function that reads it is also the only one that writes it, whole
    found = {
        f"{path.name}:{scope}"
        for path in sorted(SOURCE.glob("*.py"))
        for scope, _ in _references(
            ast.parse(path.read_text(encoding="utf-8"), str(path)), {"_last_level"}
        )
    }
    assert found == {"tutte.py:<module>", "tutte.py:in_W"}
    tutte = ast.parse((SOURCE / "tutte.py").read_text(encoding="utf-8"))
    at_module = [
        node.lineno
        for node in tutte.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and "_last_level" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    ]
    assert len(at_module) == 1  # its one definition


def test_the_union_find_is_gone_from_the_package():
    # every loop count goes through the bitmask join kernel; the union-find
    # it replaced lives on only as a test oracle (tests/test_join_kernel.py)
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "PairForest" in line or "block_forest" in line
    ]
    assert found == []


def test_the_tensor_model_imports_no_fractions():
    # the basis expansion is Möbius inversion over ℤ; the Fraction layer
    # loop it replaced lives on only as a test oracle
    # (tests/test_tensor_model.py)
    tree = ast.parse((SOURCE / "tensor_model.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    ]
    assert found == []


def test_one_reader_turns_the_exponent_table_into_every_matrix():
    # the Gram matrix is level 0 of the level matrices: one function reads
    # any level-r table, so no second route from a pair to its entry exists
    found = {
        f"{path.name}:{scope}"
        for path in sorted(SOURCE.glob("*.py"))
        for scope, _ in _references(
            ast.parse(path.read_text(encoding="utf-8"), str(path)), {"_exponent_table"}
        )
    }
    assert found == {"gram.py:_table_matrix"}


def _powers_over_a_range(tree: ast.AST) -> list[int]:
    """Lines of the comprehensions that raise to a power of an index drawn
    from a range, such as [N**e for e in range(top + 1)]."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            continue
        indices = {
            name.id
            for gen in node.generators
            if isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None) == "range"
            for name in ast.walk(gen.target)
            if isinstance(name, ast.Name)
        }
        if any(
            isinstance(sub, ast.BinOp)
            and isinstance(sub.op, ast.Pow)
            and any(isinstance(x, ast.Name) and x.id in indices for x in ast.walk(sub.right))
            for sub in ast.walk(node)
        ):
            found.append(node.lineno)
    return found


def test_one_powers_table_serves_every_matrix():
    # N^0..N^top is formed once per matrix, one multiplication each, by
    # `gram._powers`: no comprehension raises to the powers of a range, and
    # the symbolic determinant reads X^(e − e_min) off its table with no
    # shifted copy of the matrix
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SOURCE.glob("*.py"))
    }
    found = {name: _powers_over_a_range(tree) for name, tree in trees.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _powers_over_a_range(ast.parse("[N**e for e in range(top + 1)]")) == [1]
    readers = {scope for scope, _ in _references(trees["gram.py"], {"_powers"})}
    assert readers == {"evaluate", "_table_matrix", "_det_by_substitution"}
    imported = {
        alias.name
        for node in ast.walk(trees["gram.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "replace" not in imported


def test_one_labelled_walk_reaches_the_join_closure():
    # a composition, a single entry with its flaw and a structure each read
    # the canonical component labels of one `join_labels` walk over the
    # `block_masks` of the pair, so no other walk over the join's
    # components exists; the walk grows each component itself, on the
    # nodes the blocks cover, and takes no width (the closures it
    # replaced live on only as test oracles, tests/test_join_kernel.py)
    def callers(name: str) -> list[str]:
        return sorted(
            f"{path.name}:{scope}"
            for path in sorted(SOURCE.glob("*.py"))
            for scope, _ in _references(
                ast.parse(path.read_text(encoding="utf-8"), str(path)), {name}
            )
            if scope != "<module>"
        )

    readers = ["gram.py:_pair_exponent", "partitions.py:compose", "tutte.py:classify_structure"]
    assert callers("join_labels") == readers
    assert sorted(set(callers("block_masks"))) == readers  # once for each partition
    tree = ast.parse((SOURCE / "partitions.py").read_text(encoding="utf-8"))
    (walk,) = (
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "join_labels"
    )
    assert [arg.arg for arg in walk.args.args] == ["up", "lo", "nodes"]


def test_every_determinant_ends_in_the_one_exact_finish():
    # the checked quotient of two balanced products is written once, as
    # `polynomials.power_product`: both elimination loops, the recursion and
    # the pair formula hand it their factors, and no other function divides
    # a product by its scale; kernels imports it, and polynomials imports
    # nothing from kernels
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SOURCE.glob("*.py"))
    }
    defined = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in {"power_product", "_product", "_exact_quotient"}
    ]
    assert defined == ["polynomials.py:power_product"]
    finishes = [
        f"{name}:{scope}"
        for name, tree in trees.items()
        for scope, raised in _raises(tree)
        if "scale" in raised
    ]
    assert finishes == ["polynomials.py:power_product"]
    callers = {
        f"{name}:{scope}"
        for name, tree in trees.items()
        for scope, _ in _references(tree, {"power_product"})
        if scope != "<module>"
    }
    assert callers == {
        "kernels.py:_eliminate_upper",
        "kernels.py:_eliminate_rows",
        "tutte.py:recursion_trace",
        "formulas.py:difrancesco_det",
    }
    assert "prod" not in _mentions(trees["kernels.py"])
    assert "kernels" not in _mentions(trees["polynomials.py"])


def _coefficient_reversals(tree: ast.AST, scope: str = "<module>"):
    """The innermost enclosing function of each `x.coeffs[::-1]`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _coefficient_reversals(node, node.name)
            continue
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "coeffs"
            and isinstance(node.slice, ast.Slice)
            and ast.unparse(node.slice) == "::-1"
        ):
            yield scope
        yield from _coefficient_reversals(node, scope)


def test_one_function_evaluates_the_bases_of_both_closed_forms():
    # the reversed Beraha values c_k are the bases of Tutte's recursion at N
    # and of the pair formula at N², formed by `polynomials.beraha_bases`
    # alone: no other function reverses a polynomial's coefficients, and
    # the pair formula forms no U_i(N) and divides by no power of N
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SOURCE.glob("*.py"))
    }
    reversals = [
        f"{name}:{scope}" for name, tree in trees.items() for scope in _coefficient_reversals(tree)
    ]
    assert reversals == ["polynomials.py:beraha_bases"]
    readers = {
        f"{name}:{scope}"
        for name, tree in trees.items()
        for scope, _ in _references(tree, {"beraha_bases"})
        if scope != "<module>"
    }
    assert readers == {
        "tutte.py:recursion_trace",
        "tutte.py:F_r_value",
        "formulas.py:powers",
        "polynomials.py:beraha_nonzero_at",
    }
    assert "chebyshev_dilated" not in _mentions(trees["formulas.py"])
    assert not any(isinstance(node, ast.FloorDiv) for node in ast.walk(trees["formulas.py"]))
    assert list(_coefficient_reversals(ast.parse("def f(): return p.coeffs[::-1]"))) == ["f"]


def _beraha_evaluations(tree: ast.AST, scope: str = "<module>"):
    """The innermost enclosing function of each `.evaluate(...)` call on a
    polynomial built from a `beraha(...)` call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _beraha_evaluations(node, node.name)
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "evaluate"
            and any(
                isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "beraha"
                for sub in ast.walk(node.func.value)
            )
        ):
            yield scope
        yield from _beraha_evaluations(node, scope)


def test_only_the_base_function_evaluates_the_beraha_family():
    # β_k(1/N) is c_k(N)/N^{⌊(k−1)/2⌋}, so the column combination and the
    # zero report read the values of `beraha_bases` as every closed form
    # does; no other function evaluates a Beraha polynomial, and tutte
    # does not import the family
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SOURCE.glob("*.py"))
    }
    found = [f"{name}:{scope}" for name, tree in trees.items() for scope in _beraha_evaluations(tree)]
    assert found == ["polynomials.py:beraha_bases"]
    assert "beraha" not in _mentions(trees["tutte.py"])
    assert list(_beraha_evaluations(ast.parse("def f(z): return beraha(3).evaluate(z)"))) == ["f"]


def test_each_class_is_sized_in_one_place():
    # a class's count and its block total are read off one closed-form
    # pass, `partitions._class_sizes`, by the count and by both class
    # budgets: gram defines no size, total or step function of its own and
    # names no class member but build_gram's default
    from ncgram.partitions import PartitionClass

    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SOURCE.glob("*.py"))
    }
    gram = trees["gram.py"]
    defined = [node.name for node in ast.walk(gram) if isinstance(node, ast.FunctionDef)]
    assert [name for name in defined if re.search("step|size|total|count", name)] == []
    members = {member.name for member in PartitionClass}
    assert [scope for scope, _ in _references(gram, members)] == ["build_gram"]
    constants = {node.value for node in ast.walk(gram) if isinstance(node, ast.Constant)}
    assert constants & {member.value for member in PartitionClass} == set()
    readers = {
        f"{name}:{scope}"
        for name, tree in trees.items()
        for scope, _ in _references(tree, {"_class_sizes"})
        if scope != "<module>"
    }
    assert readers == {
        "partitions.py:count_partitions",
        "gram.py:_check_class_budget",
        "gram.py:_check_det_bits",
    }
    catalan = {
        f"{name}:{scope}" for name, tree in trees.items() for scope, _ in _references(tree, {"_catalan"})
    }
    assert catalan == {"partitions.py:_class_sizes"}


def test_the_pair_graph_objects_and_tag_classes_are_gone_from_the_package():
    # a pair reaches its loop count through the join kernel alone, and the
    # structures are the paper's brackets (i,), (i, i + 1) and (0,)
    removed = (
        "PairGraph",
        "_stacked",
        "pair_graph",
        "cut_graph",
        "Structure",
        "StructI",
        "StructPair",
        "StructZero",
        "_level_matrix",
        "_exponent_row",
        "_exponents",
        "join_components",
        "component_labels",
        "_node_pairs",
        "_exact_quotient",
        "spreader",
        "join_closure",
        "stacked_spreader",
    )
    found = [
        f"{path.name}:{lineno} {name}"
        for path in sorted(SOURCE.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for name in removed
        if re.search(rf"(?<!\w){name}(?!\w)", line)
    ]
    assert found == []
    # level 0 is the Gram level; no level is spelled None
    assert "r: int | None" not in (SOURCE / "gram.py").read_text(encoding="utf-8")


def test_only_the_two_entry_points_reach_the_primitive_row_loop():
    # det_exact and rank_exact are the only callers of `eliminate`, and
    # `eliminate` is the only caller of each function in kernels.py that
    # runs a loop: it picks the upper-triangle loop or the row-swapping
    # one, and each works on its own copy, so no caller can eliminate a
    # matrix it still holds, nor reach a loop past the symmetry check
    found = {
        f"{path.name}:{scope}"
        for path in sorted(SOURCE.glob("*.py"))
        for scope, _ in _references(
            ast.parse(path.read_text(encoding="utf-8"), str(path)), {"eliminate"}
        )
    }
    assert found == {"kernels.py:det_exact", "kernels.py:rank_exact"}
    kernels = ast.parse((SOURCE / "kernels.py").read_text(encoding="utf-8"))
    loops = {
        node.name
        for node in kernels.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(inner, (ast.For, ast.While)) for inner in ast.walk(node))
    }
    assert {"_eliminate_upper", "_eliminate_rows"} <= loops
    assert "eliminate" not in loops
    callers = {name: set() for name in loops}
    for path in sorted(SOURCE.glob("*.py")):
        for scope, name in _references(ast.parse(path.read_text(encoding="utf-8"), str(path)), loops):
            callers[name].add(f"{path.name}:{scope}")
    assert callers == {name: {"kernels.py:eliminate"} for name in loops}


def _mentions(tree: ast.AST) -> set[str]:
    """Every name, attribute, import alias and string constant in a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found |= {node.name, node.asname}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_package_definition_is_mentioned_somewhere():
    # a function, class or method that nothing in the package, the tests or
    # the benchmark mentions is dead code; Python calls dunder methods itself
    root = SOURCE.parent.parent
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for folder in ("src", "tests", "ncbench")
        for path in sorted((root / folder).rglob("*.py"))
    }
    mentioned = set().union(*map(_mentions, trees.values()))
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.parent == SOURCE
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in mentioned
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert unused == []
