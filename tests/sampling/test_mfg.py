"""MFG datatype validation tests."""

import numpy as np
import pytest

from repro.distributed.wire import (
    WireError, decode_dataclass, pack_obj, unpack_obj)
from repro.sampling import MFG, MFGBlock


def make_block(num_src=5, num_dst=2):
    return MFGBlock(dst_ptr=np.array([0, 2, 4]),
                    src_index=np.array([2, 3, 0, 4]),
                    num_src=num_src, num_dst=num_dst)


class TestMFGBlock:
    def test_basic(self):
        blk = make_block()
        assert blk.num_edges == 4
        assert list(blk.neighbor_counts()) == [2, 2]

    def test_rejects_bad_ptr_length(self):
        with pytest.raises(ValueError, match="dst_ptr length"):
            MFGBlock(np.array([0, 2]), np.array([0, 1]), num_src=3, num_dst=2)

    def test_rejects_ptr_total_mismatch(self):
        with pytest.raises(ValueError, match="dst_ptr\\[-1\\]"):
            MFGBlock(np.array([0, 1, 3]), np.array([0]), num_src=3, num_dst=2)

    def test_rejects_dst_exceeding_src(self):
        with pytest.raises(ValueError, match="prefix"):
            MFGBlock(np.array([0, 0, 0]), np.empty(0, dtype=np.int64),
                     num_src=1, num_dst=2)

    def test_rejects_src_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            MFGBlock(np.array([0, 1]), np.array([9]), num_src=3, num_dst=1)

    @pytest.mark.parametrize("dst_ptr,msg", [
        ([0, 3, 2, 4], r"non-decreasing, got dst_ptr\[2\] = 2 < "
                       r"dst_ptr\[1\] = 3"),
        ([1, 2, 3, 4], r"start at 0, got dst_ptr\[0\] = 1"),
    ])
    def test_rejects_a_malformed_dst_ptr(self, dst_ptr, msg):
        """Either one used to build: ``[0, 3, 2, 4]`` gave destination 1 no
        neighbours and destination 2 sources 2-3 in ``sage_conv``."""
        with pytest.raises(ValueError, match=msg):
            MFGBlock(dst_ptr=dst_ptr, src_index=[0, 1, 2, 3], num_src=4,
                     num_dst=3)

    def test_a_decoded_block_is_checked_too(self):
        """What the sampler process and the workers send is rebuilt through
        the same constructor."""
        mfg = MFG(n_id=np.arange(5), blocks=[make_block()],
                  seeds=np.arange(2))
        fields = unpack_obj(pack_obj(mfg))
        assert decode_dataclass(MFG, fields).blocks[0].dst_ptr.tolist() == \
            [0, 2, 4]
        fields["blocks"][0]["dst_ptr"] = np.array([0, 3, 4])
        fields["blocks"][0]["src_index"] = np.array([2, 3, 0, 1])
        decode_dataclass(MFG, fields)  # well formed: fine
        fields["blocks"][0]["dst_ptr"] = np.array([0, 4, 3])
        fields["blocks"][0]["src_index"] = np.array([2, 3, 0])
        with pytest.raises(WireError, match=r"dst_ptr\[2\] = 3"):
            decode_dataclass(MFG, fields)


class TestMFG:
    def test_properties(self):
        blk = make_block()
        mfg = MFG(n_id=np.arange(5), blocks=[blk], seeds=np.arange(2))
        assert mfg.num_vertices == 5
        assert mfg.batch_size == 2
        assert mfg.num_edges == 4
        assert mfg.hop_sizes() == [2, 5]
        mfg.validate()

    def test_validate_catches_hop_mismatch(self):
        blk1 = make_block(num_src=5, num_dst=2)
        blk2 = MFGBlock(np.array([0, 1, 2, 3]), np.array([0, 1, 2]),
                        num_src=6, num_dst=3)  # expects prev hop size 5
        mfg = MFG(n_id=np.arange(6), blocks=[blk1, blk2], seeds=np.arange(2))
        with pytest.raises(AssertionError, match="previous hop"):
            mfg.validate()
