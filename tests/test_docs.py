"""The README's Python examples run as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_readme_python_blocks_run():
    # the blocks build on each other, so they run in order in one namespace
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(),
                            re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
    u, grid = namespace["u"], namespace["grid"]
    assert u.values.shape == (grid.n_nodes(),)


def test_readme_public_api_matches_all():
    # the README's list is the contract: a name added to or dropped from
    # adaptfd.__all__ must be added to or dropped from the list too
    import adaptfd
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Public API\n")[1].split("\n## ")[0]
    bullets = [line for line in section.splitlines()
               if line.startswith(("* ", "  "))]
    listed = re.findall(r"`([A-Za-z_]\w*)`", "\n".join(bullets))
    assert sorted(listed) == sorted(adaptfd.__all__)


def test_readme_key_table_matches_known_keys():
    # the parser accepts exactly the keys the table lists: a key added to
    # or dropped from harness._KNOWN_KEYS must get or lose its row too
    from adaptfd.harness import _KNOWN_KEYS
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Configuration keys\n")[1]
    section = section.split("\n## ")[0]
    cells = [line.split("|")[1] for line in section.splitlines()
             if line.startswith("| `")]
    listed = re.findall(r"`([\w.]+)`", "\n".join(cells))
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(_KNOWN_KEYS)
