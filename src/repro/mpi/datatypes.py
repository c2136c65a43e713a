"""Payload sizing: how many bytes a message occupies on the wire.

The simulator moves real Python objects between ranks (so workloads
compute real answers) but charges network time by byte count.  This
module is the single place that decides how big an object is.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from typing import Any

import numpy as np

#: Fixed envelope overhead charged per message (headers, match bits).
ENVELOPE_OVERHEAD = 64


def payload_nbytes(payload: Any) -> int:
    """Wire size of ``payload`` in bytes (excluding envelope overhead).

    * numpy arrays: exact buffer size;
    * bytes-likes and strings: their length (UTF-8 for str);
    * ints/floats/bools/None: 8 bytes (a typical scalar datatype);
    * tuples/lists/dicts: recursive element sum plus 8 bytes per item
      of framing;
    * anything else: pickled length (accurate and always available).
    """
    if payload is None or isinstance(payload, (bool, int, float, complex)):
        return 8
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, np.generic):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(item) + 8 for item in payload)
    if isinstance(payload, dict):
        return sum(
            payload_nbytes(key) + payload_nbytes(value) + 8
            for key, value in payload.items()
        )
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def message_wire_size(payload: Any) -> int:
    """Total bytes on the wire: payload plus envelope overhead."""
    return payload_nbytes(payload) + ENVELOPE_OVERHEAD


def payload_digest(payload: Any) -> int:
    """Order-stable 64-bit digest of a payload.

    Used by the redundancy layer's Msg-PlusHash mode and by its
    corrupt-message voting: two replicas sending "the same" message
    must produce equal digests.  numpy arrays hash their raw C-order
    bytes, then their dtype and shape strings; everything else is
    pickled canonically.
    """
    # blake2b runs at C speed and is deterministic across runs/platforms.
    hasher = hashlib.blake2b(digest_size=8)
    if isinstance(payload, np.ndarray):
        # A C-contiguous array is hashed in place through its buffer;
        # only other layouts pay for a C-order copy.
        hasher.update(payload if payload.flags.c_contiguous else payload.tobytes())
        hasher.update(str(payload.dtype).encode())
        hasher.update(str(payload.shape).encode())
    elif isinstance(payload, (bytes, bytearray, memoryview)):
        hasher.update(bytes(payload))
    elif isinstance(payload, str):
        hasher.update(payload.encode("utf-8"))
    elif payload is None or isinstance(payload, (bool, int, float)):
        hasher.update(repr(payload).encode("utf-8"))
    else:
        hasher.update(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    return int.from_bytes(hasher.digest(), byteorder="little")


#: Size of a digest message in Msg-PlusHash mode.
DIGEST_NBYTES = struct.calcsize("Q")
