"""The package's public names."""

import mpoq

#: Lifts and group builders folded into ``controlled_mpo`` and the sequences.
REMOVED = ("qft_group_mpo", "inverse_qft_group_mpo", "single_qubit_mpo")


def test_star_import_binds_every_public_name_once():
    namespace = {}
    exec("from mpoq import *", namespace)
    assert len(set(mpoq.__all__)) == len(mpoq.__all__)
    assert [name for name in mpoq.__all__ if name not in namespace] == []
    assert [name for name in REMOVED if name in mpoq.__all__ or hasattr(mpoq, name)] == []
