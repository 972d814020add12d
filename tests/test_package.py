import types

import starsketch


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(starsketch).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(starsketch.__all__) - {"__version__"}
    assert len(starsketch.__all__) == len(set(starsketch.__all__))
    for name in starsketch.__all__:
        assert hasattr(starsketch, name), name
