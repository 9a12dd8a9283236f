"""Property tests for the distributed wire protocol.

The frames carry campaign tags, header and blob CRC32s, zlib
compression above a threshold, and interned outcome tables — all of
which must be lossless, and the checksums must refuse any bit flipped in
flight.  Hypothesis drives random headers, payloads, and outcome streams
through the real encoder/decoder over a real socket pair.
"""

import pickle
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.protocol import (
    FrameIntegrityError,
    ProtocolError,
    encode_frame,
    encode_frame_ex,
    intern_outcomes,
    recv_message_ex,
    restore_outcomes,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: JSON-scalar values for header fields (headers are small and flat).
header_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)

#: Frame headers: always a typed object, plus random scalar fields
#: (excluding the reserved encoding keys the sender manages).
headers = st.fixed_dictionaries(
    {"type": st.sampled_from(["run", "result", "heartbeat", "context", "ping"])},
    optional={
        "campaign": st.text(min_size=1, max_size=12),
        "shard": st.integers(min_value=0, max_value=10_000),
        "start": st.integers(min_value=0, max_value=10_000),
        "count": st.integers(min_value=0, max_value=10_000),
        "worker": st.text(max_size=16),
    },
)

#: One answer tuple, as the samplers produce them.
answer_tuples = st.tuples(
    st.one_of(st.text(max_size=8), st.integers(min_value=-100, max_value=100))
)

#: One draw outcome: None (discarded draw) or a set/sequence of answers.
outcomes_strategy = st.lists(
    st.one_of(
        st.none(),
        st.frozensets(answer_tuples, max_size=6),
        st.lists(answer_tuples, max_size=6),  # unhashable outcome form
    ),
    max_size=40,
)

#: Payloads as shipped in result/context frames.
payloads = st.one_of(
    st.none(),
    st.dictionaries(
        st.text(min_size=1, max_size=10),
        st.one_of(
            st.integers(),
            st.text(max_size=50),
            st.binary(max_size=200),
            st.lists(st.integers(), max_size=30),
        ),
        max_size=5,
    ),
)


def _over_socket(frame: bytes):
    """Decode *frame* through the real receive path (a local socketpair)."""
    left, right = socket.socketpair()
    try:
        left.sendall(frame)
        left.shutdown(socket.SHUT_WR)
        return recv_message_ex(right)
    finally:
        left.close()
        right.close()


def _without_checksums(header: dict) -> dict:
    return {k: v for k, v in header.items() if k not in ("crc", "hcrc")}


class TestFrameRoundtrip:
    @given(header=headers, payload=payloads)
    @settings(max_examples=60, deadline=None)
    def test_plain_roundtrip(self, header, payload):
        frame = encode_frame(header, payload)
        received, received_payload, stats = _over_socket(frame)
        assert _without_checksums(received) == header
        assert ("crc" in received) == (payload is not None)
        assert received_payload == payload
        assert not stats.compressed

    @given(header=headers, payload=payloads)
    @settings(max_examples=60, deadline=None)
    def test_compressed_roundtrip(self, header, payload):
        # threshold=0: force the compression decision on every payload.
        frame, sent = encode_frame_ex(header, payload, threshold=0)
        received, received_payload, stats = _over_socket(frame)
        assert received_payload == payload
        assert stats.compressed == sent.compressed
        # The original header survives under the encoding bookkeeping.
        for key, value in header.items():
            assert received[key] == value
        if sent.compressed:
            assert received["enc"] == "zlib"
            assert received["raw"] == sent.payload_raw
        # Opportunistic compression never grows the blob.
        assert sent.payload_wire <= sent.payload_raw

    @given(header=headers, payload=payloads, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_flipped_bit_past_the_prefix_is_refused(
        self, header, payload, data
    ):
        # The 12-byte prefix (magic + lengths) is framing, not content;
        # every bit after it is covered by the header or blob CRC32.
        frame = bytearray(encode_frame(header, payload))
        header_end = 12 + int.from_bytes(frame[4:8], "big")
        offset = data.draw(st.integers(min_value=12, max_value=len(frame) - 1))
        frame[offset] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
        expected = FrameIntegrityError if offset >= header_end else ProtocolError
        with pytest.raises(expected):
            _over_socket(bytes(frame))


class TestInterningProperties:
    @given(outcomes=outcomes_strategy)
    @settings(max_examples=100, deadline=None)
    def test_intern_restore_is_identity(self, outcomes):
        assert restore_outcomes(intern_outcomes(outcomes)) == outcomes

    @given(outcomes=outcomes_strategy)
    @settings(max_examples=100, deadline=None)
    def test_table_holds_only_distinct_representations(self, outcomes):
        encoded = intern_outcomes(outcomes)
        table = encoded["table"]
        assert len(table) <= len(outcomes) or not outcomes
        # Distinct by *pickled representation*: equal-but-distinctly-typed
        # values (1 vs 1.0 vs True) must never share a table slot.
        pickles = [pickle.dumps(entry) for entry in table]
        assert len(set(pickles)) == len(pickles)
        assert all(0 <= code < len(table) for code in encoded["codes"])
        assert len(encoded["codes"]) == len(outcomes)

    def test_equal_but_differently_typed_values_keep_their_types(self):
        outcomes = [((1,),), ((1.0,),), ((True,),), ((1,),)]
        restored = restore_outcomes(intern_outcomes(outcomes))
        types = [type(outcome[0][0]) for outcome in restored]
        assert types == [int, float, bool, int]
        assert restored == outcomes

    @given(outcomes=outcomes_strategy)
    @settings(max_examples=60, deadline=None)
    def test_interned_campaign_result_frame_roundtrips_compressed(self, outcomes):
        # The full new-worker result path: interned + compressed + tagged.
        header = {"type": "result", "shard": 7, "campaign": "c42"}
        payload = {"outcomes_interned": intern_outcomes(outcomes), "cache_stats": {}}
        frame = encode_frame(header, payload)
        received, received_payload, _stats = _over_socket(frame)
        assert received["campaign"] == "c42"
        assert restore_outcomes(received_payload["outcomes_interned"]) == outcomes
