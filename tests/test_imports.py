"""The import boundary: commands that only read diagrams never load numpy,
and the modules that do load it are compiled before it.

Without cached bytecode every module is compiled at import, and a module
compiled after numpy is loaded adds its compile peak to numpy's memory.  A
module is compiled as soon as it is found, before its own imports run, so it
is compiled before numpy loads exactly when its import begins before numpy's.
The probe records the order in which imports begin with a finder at the head
of `sys.meta_path` (`sys.modules` lists modules in the order they finish).
Each case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

import augcusp
from augcusp import catalog

SRC = os.path.dirname(os.path.dirname(augcusp.__file__))
NUMPY_LAYERS = ("numpy", "augcusp.packing", "augcusp.geometry", "augcusp.render")


def loaded_after(code: str, cwd) -> list[str]:
    """numpy and the augcusp modules that running `code` in a fresh
    interpreter imports, in the order their imports began."""
    probe = (
        "import json, sys\n"
        "begun = []\n"
        "class Begun:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' or name.startswith('augcusp'):\n"
        "            begun.append(name)\n"
        "sys.meta_path.insert(0, Begun())\n"
        f"{code}\n"
        "print(json.dumps([m for m in begun if m in sys.modules]))\n"
    )
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    r = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def run_main(argv: list[str], code: int = 0) -> str:
    """Run `cli.main(argv)`, asserting its exit code (argparse's exit too)."""
    return (
        "from augcusp import cli\n"
        "try:\n"
        f"    code = cli.main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"assert code == {code}, code\n"
    )


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    (root / "pretzel-5432.json").write_text(catalog.pretzel_link([5, 4, 3, 2]).to_json())
    (root / "chain-5.json").write_text(catalog.two_bridge_chain(5).to_json())
    return root


@pytest.mark.parametrize(
    "argv, code",
    [
        (["twists", "pretzel-5432.json"], 0),
        (["augment", "pretzel-5432.json", "--roundtrip"], 0),
        (["cusp", "--family", "longitude", "5"], 0),
        (["--tol", "nan", "cusp", "chain-5.json"], 2),
        (["--help"], 0),
    ],
    ids=["twists", "augment-roundtrip", "cusp-longitude", "usage-error", "help"],
)
def test_combinatorial_commands_load_no_numpy(work, argv, code):
    loaded = loaded_after(run_main(argv, code), work)
    assert "augcusp.cli" in loaded
    assert not set(NUMPY_LAYERS) & set(loaded)


def assert_compiled_before_numpy(loaded: list[str]) -> None:
    assert {"numpy", "augcusp.packing", "augcusp.geometry"} <= set(loaded)
    after = loaded[loaded.index("numpy") + 1:]
    assert not [m for m in after if m.startswith("augcusp")]


@pytest.mark.parametrize(
    "argv",
    [
        ["cusp", "chain-5.json"],
        ["cusp", "--family", "twobridge", "1", "1", "--render", "out.svg"],
        ["verify", "--generate", "2"],
    ],
    ids=["cusp", "cusp-twobridge-render", "verify"],
)
def test_measuring_commands_compile_numpy_layers_first(work, argv):
    assert_compiled_before_numpy(loaded_after(run_main(argv), work))


@pytest.mark.parametrize(
    "code",
    ["import augcusp.render", "import augcusp; augcusp.analyze_cusp",
     "import augcusp; augcusp.build_nerve"],
)
def test_library_entries_compile_numpy_layers_first(tmp_path, code):
    assert_compiled_before_numpy(loaded_after(code, tmp_path))


def test_package_import_loads_no_numpy(tmp_path):
    loaded = loaded_after("import augcusp; assert 'analyze_cusp' not in vars(augcusp)", tmp_path)
    assert not set(NUMPY_LAYERS) & set(loaded)
    assert "augcusp.families" not in loaded


class TestLazyExports:
    def test_every_export_is_its_defining_module_attribute(self):
        for name in augcusp.__all__:
            value = getattr(augcusp, name)
            module = sys.modules[value.__module__]
            assert getattr(module, name) is value, name
            if name in augcusp._LAZY:
                assert value.__module__ == f"augcusp.{augcusp._LAZY[name]}"
                assert vars(augcusp)[name] is value  # cached after first use

    def test_dir_lists_every_export(self):
        assert set(augcusp.__all__) <= set(dir(augcusp))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'augcusp' has no attribute 'no_such_name'"):
            augcusp.no_such_name
        assert not hasattr(augcusp, "no_such_name")
