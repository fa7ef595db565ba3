"""Print each module's code lines under src/hyperobs and their total.

A code line holds a token, less comments, blank lines and docstrings: the
count the roadmap's simplicity target reads.  Run from the repository root:

    python .github/code_lines.py
    python .github/code_lines.py REF

Given a git ref, it also counts each module at REF (read with
``git show REF:path``) and prints each module's count there, here and the
change, and the same for the total; a module on one side only counts 0 on
the other.
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: bytes) -> int:
    docs = set()
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, DEFS) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def git(*args: str) -> bytes:
    return subprocess.run(("git",) + args, check=True, capture_output=True).stdout


here = {str(path): code_lines(path.read_bytes())
        for path in sorted(Path("src/hyperobs").glob("*.py"))}
for path, count in here.items():
    print(f"{count:6d} {path}  (code lines)")
print(f"{sum(here.values()):6d} total  (code lines)")

if len(sys.argv) > 1:
    ref = sys.argv[1]
    names = git("ls-tree", "--name-only", ref, "src/hyperobs/").decode().split()
    there = {path: code_lines(git("show", f"{ref}:{path}"))
             for path in names if path.endswith(".py")}
    print(f"code lines at {ref}, here, change:")
    for path in sorted(here.keys() | there.keys()):
        old, new = there.get(path, 0), here.get(path, 0)
        print(f"{old:6d} {new:6d} {new - old:+6d} {path}")
    old, new = sum(there.values()), sum(here.values())
    print(f"{old:6d} {new:6d} {new - old:+6d} total")
