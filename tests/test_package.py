import types

import sct


def test_all_lists_api_names_only():
    assert len(set(sct.__all__)) == len(sct.__all__)
    for name in sct.__all__:
        assert not isinstance(getattr(sct, name), types.ModuleType), name
