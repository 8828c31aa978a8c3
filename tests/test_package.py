import qrngkit
from qrngkit import bitstring, config, errors, exact, extractors, fileio, simulate, stats, streams

MODULES = (bitstring, config, errors, exact, extractors, fileio, simulate, stats, streams)


def test_package_exports_exactly_its_modules_public_names():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(set(declared)) == len(declared), "a name is public in two modules"
    assert len(set(qrngkit.__all__)) == len(qrngkit.__all__)
    assert set(qrngkit.__all__) == set(declared) | {"__version__"}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qrngkit, name) is getattr(module, name), f"{module.__name__}.{name}"

