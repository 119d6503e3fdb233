"""Mutation audit: which changes to the package's Python code the tests miss.

Exports a commit with ``git archive`` into a temporary directory and builds
the compiled kernel in place there.  Each mutant then rewrites one module of
that copy, runs the tests and puts the module back; the working tree is never
touched.  The operators (``--ops``):

- ``if-false``, ``if-true``: the test of an ``if`` statement becomes False,
  or True;
- ``pass``: an assignment or expression statement (not a docstring) becomes
  ``pass``;
- ``arith``: a binary ``+`` becomes ``-`` and back, ``*`` becomes ``/`` and
  back;
- ``compare``: ``<`` becomes ``<=`` and back, ``>`` becomes ``>=`` and back;
- ``const``: a float literal is scaled by 1.001.

A mutated module is written as ``ast.unparse`` of its changed tree; before
the mutants run, the tests must pass with every audited module unparsed
unchanged.  A mutant whose source equals that unparsed form is not run.  Each
mutant runs the fast test files with ``-x`` first, and
``tests/test_scan_cli.py`` only when it survives them.  A failing test or a
timeout kills it.  The kill table goes to stdout, one line per module and
operator, then each survivor with its line.  It is a long run (seconds per
mutant), so ``--site`` and ``--sample`` select mutants:

    python benchmarks/mutants.py [--rev HEAD] [--ops if-false,if-true,pass]
        [--modules core,symmetric] [--site symmetric.py:190 ...]
        [--sample 45 --seed 7] [--timeout 180] [--list]
"""

import argparse
import ast
import os
import random
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "cayleyphase"
SLOW_TESTS = "tests/test_scan_cli.py"
ALL_MODULES = ("cli", "core", "dynamics", "ferro", "partition", "scan", "symmetric", "verify", "_trajectory_py")
SWAP_MODULES = ("core", "symmetric", "ferro", "partition", "dynamics", "scan", "verify", "_trajectory_py")
MODULES = {
    "if-false": ALL_MODULES,
    "if-true": ALL_MODULES,
    "pass": ("core", "symmetric", "ferro", "partition", "dynamics", "scan"),
    "arith": SWAP_MODULES,
    "compare": SWAP_MODULES,
    "const": SWAP_MODULES,
}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def candidates(tree: ast.Module, op: str) -> list:
    """The sites of ``op`` in ``tree``, in a fixed order, as what ``mutate`` takes."""
    out = []
    for node in ast.walk(tree):
        if op in ("if-false", "if-true") and isinstance(node, ast.If):
            out.append((node.lineno, node))
        elif op == "pass":
            for field in ("body", "orelse", "finalbody"):
                stmts = getattr(node, field, None)
                for k, stmt in enumerate(stmts if isinstance(stmts, list) else ()):  # not an IfExp's
                    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr)) and not _is_docstring(stmt):
                        out.append((stmt.lineno, (node, field, k)))
        elif op == "arith" and isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            out.append((node.lineno, node))
        elif op == "compare" and isinstance(node, ast.Compare):
            out += [(node.lineno, (node, k)) for k, o in enumerate(node.ops) if type(o) in SWAPS]
        elif op == "const" and isinstance(node, ast.Constant) and type(node.value) is float:
            out.append((node.lineno, node))
    return out


def mutate(op: str, site) -> None:
    if op in ("if-false", "if-true"):
        site.test = ast.Constant(op == "if-true")
    elif op == "pass":
        node, field, k = site
        getattr(node, field)[k] = ast.Pass()
    elif op == "arith":
        site.op = SWAPS[type(site.op)]()
    elif op == "compare":
        node, k = site
        node.ops[k] = SWAPS[type(node.ops[k])]()
    else:
        site.value *= 1.001


def mutants(source: str, op: str):
    """``(line, mutated source)`` of each site of ``op``, skipping no-op mutants."""
    plain = ast.unparse(ast.parse(source))
    for k in range(len(candidates(ast.parse(source), op))):
        tree = ast.parse(source)
        line, site = candidates(tree, op)[k]
        mutate(op, site)
        text = ast.unparse(ast.fix_missing_locations(tree))
        if text != plain:
            yield line, text


def run_tests(copy: Path, files: list[str], timeout: float) -> str:
    """"killed", "timeout" or "survived": pytest with ``-x`` on ``files``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    child = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                             start_new_session=True)
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout"
    finally:
        try:  # the suite's own children, if any outlived it
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return "survived" if code == 0 else "killed"


def export(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    build = subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"], cwd=into,
                           capture_output=True, text=True)
    if build.returncode != 0 or not list((into / PACKAGE).glob("_trajectory*.so")):
        raise SystemExit(f"cannot build the compiled kernel in the copy:\n{build.stderr}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rev", default="HEAD", help="the commit to audit")
    parser.add_argument("--ops", default=",".join(MODULES), help="comma-separated operators")
    parser.add_argument("--modules", help="comma-separated modules (default: each operator's audit set)")
    parser.add_argument("--site", action="append", default=[], metavar="MODULE.py:LINE",
                        help="only the mutants at this line (repeatable)")
    parser.add_argument("--sample", type=int, help="run a random sample of this many mutants")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--timeout", type=float, default=180.0, help="seconds per test run; a timeout kills")
    parser.add_argument("--list", action="store_true", help="list the selected mutants without running them")
    args = parser.parse_args(argv)
    ops = args.ops.split(",")
    if unknown := set(ops) - set(MODULES):
        parser.error(f"unknown operators {sorted(unknown)}")
    sites = {(s.rsplit(":", 1)[0].removesuffix(".py"), int(s.rsplit(":", 1)[1])) for s in args.site}

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        export(args.rev, copy)
        tests = sorted(str(p.relative_to(copy)) for p in (copy / "tests").glob("test_*.py"))
        fast = [t for t in tests if t != SLOW_TESTS]
        sources = {m: (copy / PACKAGE / f"{m}.py").read_text() for m in ALL_MODULES}
        selected = []
        for op in ops:
            for module in args.modules.split(",") if args.modules else MODULES[op]:
                for line, text in mutants(sources[module], op):
                    if not sites or (module, line) in sites:
                        selected.append((module, op, line, text))
        if args.sample is not None:
            selected = sorted(random.Random(args.seed).sample(selected, min(args.sample, len(selected))),
                              key=selected.index)
        if args.list:
            for module, op, line, _ in selected:
                print(f"{module}.py:{line} {op}: {sources[module].splitlines()[line - 1].strip()}")
            return 0

        touched = sorted({m for m, *_ in selected})
        for module in touched:
            (copy / PACKAGE / f"{module}.py").write_text(ast.unparse(ast.parse(sources[module])))
        if run_tests(copy, tests, 4 * args.timeout) != "survived":
            raise SystemExit("the tests fail on the unmutated, unparsed modules: no mutant can be judged")

        counts, survivors = Counter(), []
        for n, (module, op, line, text) in enumerate(selected, 1):
            path = copy / PACKAGE / f"{module}.py"
            path.write_text(text)
            outcome = run_tests(copy, fast, args.timeout)
            if outcome == "survived":
                outcome = run_tests(copy, [SLOW_TESTS], args.timeout)
            path.write_text(ast.unparse(ast.parse(sources[module])))
            counts[module, op, outcome] += 1
            if outcome == "survived":
                survivors.append(f"{module}.py:{line} {op}: {sources[module].splitlines()[line - 1].strip()}")
            print(f"[{n}/{len(selected)}] {module}.py:{line} {op}: {outcome}", file=sys.stderr)

    print(f"{'module':<16}{'operator':<10}{'mutants':>8}{'killed':>8}{'timeout':>8}{'survived':>9}")
    for module, op in sorted({(m, o) for m, o, _ in counts}):
        row = [counts[module, op, k] for k in ("killed", "timeout", "survived")]
        print(f"{module:<16}{op:<10}{sum(row):>8}{row[0]:>8}{row[1]:>8}{row[2]:>9}")
    total = [sum(v for (_, _, k), v in counts.items() if k == key) for key in ("killed", "timeout", "survived")]
    print(f"{'total':<26}{sum(total):>8}{total[0]:>8}{total[1]:>8}{total[2]:>9}")
    for line in survivors:
        print(f"survived  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
