import ast
from pathlib import Path

import podlab


class TestNoUnusedImports:
    """Every name a module of the package imports at module level is used
    in that module."""

    def test_module_level_imports_are_used(self):
        unused = []
        for path in sorted(Path(podlab.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            bound = {}
            for node in tree.body:
                if isinstance(node, ast.Import):
                    for a in node.names:
                        bound[a.asname or a.name.split(".")[0]] = node.lineno
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    for a in node.names:
                        bound[a.asname or a.name] = node.lineno
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            unused += [f"{path.name}:{line}: {name}" for name, line in bound.items()
                       if name not in used]
        assert unused == []
