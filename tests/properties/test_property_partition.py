"""Property-based tests of the partitioner's structural invariants.

The partitioning scheme's central promises — every head and FFN column is
owned by exactly one chip, no weight byte is replicated, the imbalance is
bounded — must hold for *any* model shape and chip count, not just the
paper's configurations.  Hypothesis explores that space.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.partition import BlockPartition, partition_block, split_evenly
from repro.errors import PartitioningError
from repro.graph.transformer import TransformerConfig


@st.composite
def transformer_configs(draw):
    """Random but well-formed Transformer configurations."""
    num_heads = draw(st.integers(min_value=1, max_value=64))
    head_dim = draw(st.sampled_from([4, 8, 16, 32, 64]))
    embed_dim = draw(st.sampled_from([64, 128, 256, 512, 768]))
    ffn_dim = draw(st.integers(min_value=num_heads, max_value=4096))
    num_layers = draw(st.integers(min_value=1, max_value=32))
    return TransformerConfig(
        name="hypothesis-model",
        embed_dim=embed_dim,
        ffn_dim=ffn_dim,
        num_heads=num_heads,
        head_dim=head_dim,
        num_layers=num_layers,
        vocab_size=1000,
    )


@given(total=st.integers(min_value=0, max_value=100000),
       parts=st.integers(min_value=1, max_value=512))
def test_split_evenly_conserves_total_and_bounds_imbalance(total, parts):
    shares = split_evenly(total, parts)
    assert len(shares) == parts
    assert sum(shares) == total
    assert max(shares) - min(shares) <= 1
    assert all(share >= 0 for share in shares)


@settings(max_examples=60, deadline=None)
@given(config=transformer_configs(), data=st.data())
def test_partition_covers_everything_exactly_once(config, data):
    num_chips = data.draw(
        st.integers(min_value=1, max_value=min(config.num_heads, config.ffn_dim))
    )
    partition = partition_block(config, num_chips)

    # Heads and FFN columns are covered exactly once (validated internally,
    # re-checked explicitly here).
    assert sum(chip.num_heads for chip in partition.chips) == config.num_heads
    assert sum(chip.ffn_cols for chip in partition.chips) == config.ffn_dim

    head_ranges = sorted(
        (chip.head_offset, chip.head_offset + chip.num_heads)
        for chip in partition.chips
    )
    for (_, end), (next_start, _) in zip(head_ranges, head_ranges[1:]):
        assert end == next_start

    # No weight replication: per-chip slices sum to the full block.
    assert partition.total_weight_bytes() == config.block_weight_bytes

    # Exactly one reduction root.
    assert sum(chip.is_reduce_root for chip in partition.chips) == 1


@settings(max_examples=60, deadline=None)
@given(config=transformer_configs(), data=st.data())
def test_partition_weight_imbalance_is_bounded(config, data):
    num_chips = data.draw(
        st.integers(min_value=1, max_value=min(config.num_heads, config.ffn_dim))
    )
    partition = partition_block(config, num_chips)
    per_chip = partition.weight_bytes_per_chip()
    # With contiguous near-equal shares, the largest slice exceeds the
    # smallest by at most one head's worth of attention weights plus one
    # FFN column's worth of FFN weights.
    head_quantum = 4 * config.embed_dim * config.head_dim
    ffn_quantum = config.num_ffn_matrices * config.embed_dim
    assert max(per_chip) - min(per_chip) <= head_quantum + ffn_quantum


@settings(max_examples=30, deadline=None)
@given(config=transformer_configs())
def test_partition_is_deterministic(config):
    num_chips = min(config.num_heads, 8)
    first = partition_block(config, num_chips)
    second = partition_block(config, num_chips)
    assert first.weight_bytes_per_chip() == second.weight_bytes_per_chip()
    assert [chip.head_offset for chip in first.chips] == [
        chip.head_offset for chip in second.chips
    ]


def _walk_every_index(ranges, total, what):
    """The per-index coverage check the interval check must agree with."""
    covered = [False] * total
    for offset, length in ranges:
        for index in range(offset, offset + length):
            if index < 0 or index >= total:
                return f"{what} index {index} out of range"
            if covered[index]:
                return f"{what} {index} assigned to two chips"
            covered[index] = True
    if not all(covered):
        return f"{what} {covered.index(False)} assigned to no chip"
    return None


@settings(max_examples=300, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=24),
    ranges=st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=26),
            st.integers(min_value=-2, max_value=12),
        ),
        max_size=6,
    ),
)
def test_interval_coverage_check_matches_a_walk_of_every_index(total, ranges):
    try:
        BlockPartition._check_disjoint(ranges, total=total, what="head")
        message = None
    except PartitioningError as error:
        message = str(error)
    assert message == _walk_every_index(ranges, total, "head")


@settings(max_examples=100, deadline=None)
@given(total=st.integers(min_value=1, max_value=4096),
       parts=st.integers(min_value=1, max_value=64))
def test_contiguous_even_splits_pass_the_coverage_check(total, parts):
    shares = split_evenly(total, parts)
    offsets = [sum(shares[:index]) for index in range(parts)]
    # Any chip order: the check must not depend on ranges being sorted.
    ranges = list(zip(offsets, shares))[::-1]
    BlockPartition._check_disjoint(ranges, total=total, what="FFN column")
