"""The benchmark tracer still finds every library name it patches.

``perfbench/tracing.py`` replaces module attributes by name (``getattr``),
so deleting or renaming one of them breaks ``perfbench/run.py --trace 1``
without failing any solver test.
"""

from dryout import cli, eos, interface, saturation, stefan

from helpers import perfbench_module


def _attributes(tracing):
    """(owner, name) -> current value of every attribute the tracer replaces."""
    modules = {"cli": cli, "interface": interface, "saturation": saturation,
               "stefan": stefan}
    names = [(modules[site], attr) for site, attr, _ in tracing.SPANNED]
    names.append((cli, "emit_csv"))
    names += [(modules[site], "find_root_bracketed") for site in tracing.ROOT_SITES]
    names += [(modules[site], "newton2d") for site in tracing.NEWTON_SITES]
    names += [(eos.EosModel, attr) for attr in vars(eos.EosModel) if not attr.startswith("_")]
    return {(owner, attr): getattr(owner, attr) for owner, attr in names}


def test_install_finds_every_name_and_uninstall_restores_it():
    tracing = perfbench_module("tracing")
    before = _attributes(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {(owner, attr) for owner, attr, _ in tracer._restore}
        assert patched <= set(before)
        assert all(getattr(owner, attr) is not before[owner, attr] for owner, attr in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is value for (owner, attr), value in before.items())
