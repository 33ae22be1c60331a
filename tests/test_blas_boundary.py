"""Where a BLAS build may round: the active-set solver, nowhere else.

cone._nnls_stack takes its products from cone._MATMUL on problems of 64
payoff entries or more and from cone._EINSUM below.  Every other product
of the package has one BLAS-free form, so its bits do not depend on the
OpenBLAS kernel.  The AST guard keeps a BLAS product from coming back
outside the solver; the cross-kernel test runs _kernel_probe.py under
several kernels and asks for one hash of everything it computes.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = Path(__file__).resolve().parent / "_kernel_probe.py"
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot", "vecdot", "matvec", "vecmat"}
# "" leaves the choice to OpenBLAS; the others are forced, as CI forces
# Prescott and Haswell on every x86-64 runner
CORETYPES = ["", "Prescott", "Haswell", "Nehalem", "Zen"]


def blas_uses(source: str, module: str) -> list[str]:
    """Every product in source that may go through BLAS, as "module:line
    what": an @ outside cone._MATMUL, any use of a BLAS product's name,
    np.linalg other than norm with an axis, and an einsum told to
    optimize (which may hand its product to tensordot)."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node
    allowed = set()
    for node in tree.body if module == "cone" else []:
        if [getattr(t, "id", None) for t in getattr(node, "targets", [])] == ["_MATMUL"]:
            allowed.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        where = f"{module}:{getattr(node, 'lineno', 0)}"
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                and id(node) not in allowed):
            found.append(f"{where} @")
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name in BLAS_CALLS:
            found.append(f"{where} {name}")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("linalg" in n or n.split(".")[-1] in BLAS_CALLS for n in names):
                found.append(f"{where} import of {' '.join(names).strip()}")
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            norm = node.parent
            call = getattr(norm, "parent", None)
            if not (isinstance(norm, ast.Attribute) and norm.attr == "norm"
                    and isinstance(call, ast.Call) and call.func is norm
                    and any(k.arg == "axis" for k in call.keywords)):
                found.append(f"{where} linalg")
        if (isinstance(node, ast.Call) and "einsum" in ast.unparse(node.func)
                and any(k.arg == "optimize" for k in node.keywords)):
            found.append(f"{where} einsum optimize")
    return found


def test_blas_products_stay_inside_the_solver():
    modules = sorted((SRC / "deflator").glob("*.py"))
    assert len(modules) >= 10
    found = [use for path in modules
             for use in blas_uses(path.read_text(), path.stem)]
    assert found == []
    # what the guard lets through in cone is _MATMUL's three products
    cone = (SRC / "deflator" / "cone.py").read_text()
    assert [use.split()[1] for use in blas_uses(cone, "elsewhere")] == ["@"] * 3


def test_the_guard_sees_each_kind_of_blas_product():
    cases = {
        "y = a @ b": ["m:1 @"],
        "y = a\ny @= b": ["m:2 @"],
        "y = np.dot(a, b)": ["m:1 dot"],
        "y = a.dot(b)": ["m:1 dot"],
        "from numpy import matmul": ["m:1 import of numpy matmul"],
        "y = np.tensordot(a, b, 1) + np.vdot(a, b)": ["m:1 tensordot", "m:1 vdot"],
        "y = np.linalg.solve(a, b)": ["m:1 linalg"],
        "y = np.linalg.norm(a)": ["m:1 linalg"],
        "y = np.linalg.norm(a, axis=1)": [],
        "import numpy.linalg": ["m:1 import of numpy.linalg"],
        "from numpy.linalg import norm": ["m:1 import of numpy.linalg norm"],
        "y = np.einsum('ij,j->i', a, b, optimize=True)": ["m:1 einsum optimize"],
        "y = np.einsum('ij,j->i', a, b)": [],
        "_MATMUL = lambda a, b: a @ b": ["m:1 @"],
    }
    for source, want in cases.items():
        assert blas_uses(source, "m") == want, source
    assert blas_uses("_MATMUL = lambda a, b: a @ b", "cone") == []
    assert blas_uses("_EINSUM = lambda a, b: a @ b", "cone") == ["cone:1 @"]


def test_outputs_are_the_same_under_every_openblas_kernel():
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    hashes = {}
    for core in CORETYPES:
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("OPENBLAS_CORETYPE", None)
        if core:
            env["OPENBLAS_CORETYPE"] = core
        run = subprocess.run([sys.executable, str(PROBE)], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        hashes[core or "unset"] = dict(line.split() for line in run.stdout.splitlines())
    want = hashes["unset"]
    assert len(want) == 9
    for core, got in hashes.items():
        assert got == want, (core, sorted(q for q in want if got.get(q) != want[q]))
