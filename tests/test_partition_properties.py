"""Property tests: a Partition built from block masks is the Partition built
from the same coalitions, and masks that are not a partition are refused."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fedgame import Coalition, Partition, ValidationError

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)

MAX_PLAYERS = 8


@st.composite
def block_masks(draw):
    """The block masks of a random partition of 0..m-1, m <= MAX_PLAYERS,
    in a random order."""
    m = draw(st.integers(1, MAX_PLAYERS))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    blocks = {}
    for j, label in enumerate(labels):
        blocks[label] = blocks.get(label, 0) | 1 << j
    return draw(st.permutations(list(blocks.values())))


@PROPERTY_SETTINGS
@given(masks=block_masks(), data=st.data())
def test_a_partition_from_masks_is_the_partition_from_its_coalitions(masks, data):
    coalitions = data.draw(st.permutations([Coalition.from_mask(mask) for mask in masks]))
    built = Partition(tuple(coalitions))
    from_masks = Partition.from_masks(masks)
    assert from_masks == built and hash(from_masks) == hash(built)
    assert repr(from_masks) == repr(built)
    assert from_masks.coalitions == built.coalitions
    assert [c.members[0] for c in built.coalitions] == sorted(c.members[0] for c in coalitions)
    assert from_masks.player_count == built.player_count == sum(map(len, coalitions))
    lowest = [mask & -mask for mask in from_masks.masks]
    assert from_masks.masks == built.masks and lowest == sorted(lowest)
    assert from_masks.masks == tuple(c.mask for c in from_masks.coalitions)
    assert sorted(masks) == sorted(from_masks.masks)


@PROPERTY_SETTINGS
@given(masks=block_masks(), data=st.data())
def test_masks_that_are_not_a_partition_are_refused(masks, data):
    m = sum(bin(mask).count("1") for mask in masks)
    top = 1 << (m - 1)
    # a gap: every block moved up one player
    bad = [[mask << 1 for mask in masks]]
    # overlap: a block listed twice
    bad.append(masks + [masks[0]])
    if len(masks) > 1:
        # overlap: a block that takes in a player of another block
        outside = [j for j in range(m) if not masks[0] >> j & 1]
        bad.append([masks[0] | 1 << data.draw(st.sampled_from(outside))] + masks[1:])
        # a gap: a block below the top player dropped
        dropped = next(mask for mask in masks if not mask & top)
        bad.append([mask for mask in masks if mask != dropped])
    # a mask that is not a positive int, anywhere in the list
    at = data.draw(st.integers(0, len(masks)))
    for wrong in (0, -masks[0], -1, True, False, float(masks[0]), str(masks[0]), None):
        bad.append(masks[:at] + [wrong] + masks[at:])
    # ... or in place of the block of player 0 alone, where a bool would
    # pass the bit checks
    bad += [[True], [True, 2], [1.0], [1, 2.0]]
    bad.append([])
    for candidate in bad:
        with pytest.raises(ValidationError):
            Partition.from_masks(tuple(candidate))
