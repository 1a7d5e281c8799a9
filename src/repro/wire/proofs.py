"""Wire form of a Merkle multiproof (JSON and binary, auto-detected).

A proof blob rides as one attachment of a ``PlanQueryResult``: the tree's
leaf count plus the one multiproof for the whole reply — the sibling
digests of :meth:`repro.integrity.merkle.MerkleTree.multiproof`, in the
order the verifier consumes them.  The proven indexes are the result's
``row_indexes`` in the message meta, so they are not repeated here.

Binary layout (after the 4-byte magic ``F2P\\x02``)::

    num_leaves(varint) || count(varint) || count * 32 digest bytes

The digests are read with one bounds-checked slice, so a ``count`` larger
than the blob raises before anything is allocated.  The JSON form
(``f2-merkle-proofs/2``) spells the digests as hex inside a self-describing
document.  Like every other codec in :mod:`repro.wire`, decoding
auto-detects the form from the leading bytes.  Proofs are never persisted,
so the per-row layout of version 1 (``F2P\\x01``) has no reader: it is
rejected like any unrecognised blob.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.exceptions import WireError
from repro.wire.binary import ByteReader, ByteWriter

#: Leading bytes of the binary proof form (versioned).
PROOFS_MAGIC = b"F2P\x02"

_PROOFS_FORMAT = "f2-merkle-proofs/2"
_DIGEST_LEN = 32


def encode_merkle_proofs(
    num_leaves: int, siblings: Sequence[bytes], form: str = "binary"
) -> bytes:
    """Serialize one reply's multiproof in the requested wire form."""
    for digest in siblings:
        if len(digest) != _DIGEST_LEN:
            raise WireError(
                f"merkle proof digest must be {_DIGEST_LEN} bytes, got {len(digest)}"
            )
    if form == "json":
        doc = {
            "format": _PROOFS_FORMAT,
            "num_leaves": int(num_leaves),
            "siblings": [digest.hex() for digest in siblings],
        }
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")
    writer = ByteWriter()
    writer.raw(PROOFS_MAGIC)
    writer.uvarint(int(num_leaves))
    writer.uvarint(len(siblings))
    writer.raw(b"".join(siblings))
    return writer.getvalue()


def decode_merkle_proofs(data: bytes) -> tuple[int, list[bytes]]:
    """Inverse of :func:`encode_merkle_proofs` (either form)."""
    if data[:4] == PROOFS_MAGIC:
        reader = ByteReader(data)
        reader.skip(4)
        num_leaves = reader.uvarint()
        count = reader.uvarint()
        packed = reader.raw(count * _DIGEST_LEN)
        reader.expect_end()
        return num_leaves, [
            packed[start : start + _DIGEST_LEN]
            for start in range(0, len(packed), _DIGEST_LEN)
        ]
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("unrecognised merkle proof blob") from exc
    if not isinstance(doc, dict) or doc.get("format") != _PROOFS_FORMAT:
        raise WireError("unrecognised merkle proof document")
    try:
        num_leaves = int(doc["num_leaves"])
        siblings = [bytes.fromhex(digest) for digest in doc["siblings"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError("malformed merkle proof document") from exc
    if any(len(digest) != _DIGEST_LEN for digest in siblings):
        raise WireError("malformed merkle proof digest")
    return num_leaves, siblings
