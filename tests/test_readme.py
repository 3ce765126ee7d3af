"""The README's library tour runs, and gives the values its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_tour():
    tour = library_tour()
    scope, shown = {}, []
    for stmt in ast.parse(tour).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
    member, digest, involution = shown
    reading = {
        u: v if v == 0 else set(v) for u, v in scope["phi"].assignment.items()
    }
    # each value, and the comment in the tour that states it
    assert scope["taut"].text() == "[;1]" and "# PropClass [;1]" in tour
    assert member is True and "# True: witness p=1" in tour
    assert reading == {1: 0, 2: {1}, 3: {1, 2}} and f"# {reading}" in tour
    assert re.fullmatch("[0-9a-f]{64}", digest)
    assert involution is True and "# True: involution" in tour
