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


class TestNoScipy:
    """numpy is the package's only runtime dependency: no module of it
    imports scipy, at module level or inside a function."""

    def test_no_scipy_import(self):
        imports = []
        for path in sorted(Path(podlab.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                imports += [
                    f"{path.name}:{node.lineno}: {n}" for n in names if n.split(".")[0] == "scipy"
                ]
        assert imports == []


class TestPoddesignAngles:
    """poddesign takes its angles from math.atan alone.  numpy's arctan is a
    SIMD kernel whose last bit depends on the CPU's features, so one call of
    it would tie the design's bits, and the bitwise references of the tests,
    to the machine."""

    def test_no_numpy_arctan(self):
        path = Path(podlab.__file__).parent / "poddesign.py"
        tree = ast.parse(path.read_text())
        # attributes (np.arctan), names and imported aliases (from numpy import arctan2)
        names = [
            getattr(node, field)
            for node in ast.walk(tree)
            for field in ("attr", "id", "name")
            if str(getattr(node, field, "")).startswith("arctan")
        ]
        assert names == []
        atan = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "atan"
            and isinstance(node.value, ast.Name) and node.value.id == "math"
        ]
        assert atan
