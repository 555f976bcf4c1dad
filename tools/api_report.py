"""Compare the public names of the `lfsim` package in two source trees.

    python3 tools/api_report.py BASE_SRC HEAD_SRC

Reads each `lfsim/*.py` under BASE_SRC and HEAD_SRC with `ast`, without
importing it.  A module's public names are its `__all__`; the package's are
its `__all__` or, when `__init__.py` has none, the names it imports from its
own modules.  Prints a Markdown report of the names removed and added.  It
is a report: it exits 0 whatever it finds.
"""

import ast
import glob
import os
import sys


def public_names(path: str) -> set[str]:
    """The `__all__` of the module at `path`, or for a package `__init__.py`
    without one, the names it imports relatively."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    if os.path.basename(path) != "__init__.py":
        return set()
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def api(src: str) -> dict[str, set[str]]:
    """{qualified module name: public names} of the `lfsim` under `src`."""
    out = {}
    for path in sorted(glob.glob(os.path.join(src, "lfsim", "*.py"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        out["lfsim" if stem == "__init__" else f"lfsim.{stem}"] = \
            public_names(path)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = api(argv[0]), api(argv[1])
    print("### Public API against the base\n")
    for label, tree in (("base", base), ("head", head)):
        print(f"{label}: {sum(map(len, tree.values()))} public names in "
              f"{len(tree)} modules\n")
    lines = []
    for module in sorted(set(base) | set(head)):
        removed = sorted(base.get(module, set()) - head.get(module, set()))
        added = sorted(head.get(module, set()) - base.get(module, set()))
        if module not in head:
            lines.append(f"- `{module}`: module removed")
        elif module not in base:
            lines.append(f"- `{module}`: module added")
        for label, names in (("removed", removed), ("added", added)):
            if names:
                lines.append(f"- `{module}` {label}: "
                             + ", ".join(f"`{n}`" for n in names))
    print("\n".join(lines) if lines else "No public name removed or added.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
