"""Print each module's code lines under src/hyperobs and their total.

A code line holds a token, less comments, blank lines and docstrings: the
count the roadmap's simplicity target reads.  Run from the repository root:

    python .github/code_lines.py
"""

import ast
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
total = 0
for path in sorted(Path("src/hyperobs").glob("*.py")):
    docs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        first = node.body[0] if isinstance(node, DEFS) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    count = len(lines - docs)
    total += count
    print(f"{count:6d} {path}  (code lines)")
print(f"{total:6d} total  (code lines)")
