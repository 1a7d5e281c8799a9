"""The compute-backend contract and backend resolution.

Every hot loop of the library — stripped-partition refinement for TANE,
equivalence-class grouping for the ECGs, false-positive witness search,
frequency analysis — reduces to a handful of array primitives over
*dictionary-encoded* integer columns (see :mod:`repro.relational.coded`).
A :class:`ComputeBackend` supplies exactly those primitives; everything above
it is backend-agnostic and produces identical results whichever backend runs.

Two implementations ship:

* :class:`repro.backend.python_backend.PythonBackend` — pure standard
  library, always available, the default.
* :class:`repro.backend.numpy_backend.NumpyBackend` — vectorised over NumPy
  arrays; available when the ``[perf]`` extra is installed.

Backend selection (first match wins):

1. an explicit ``backend=`` argument / ``--backend`` CLI flag /
   ``F2Config(backend=...)``,
2. the ``REPRO_BACKEND`` environment variable,
3. the pure-Python default.

Requesting ``numpy`` without NumPy installed raises
:class:`repro.exceptions.BackendUnavailableError` with an actionable message.

Determinism contract: both backends MUST return identical values from every
primitive — group lists in the same order, rows within groups ascending —
because the grouping order feeds the fresh-value factory and hence the
ciphertext bytes.  The equivalence test suite pins this property.
"""

from __future__ import annotations

import os
import sys
from abc import ABC, abstractmethod
from array import array as _stdlib_array
from collections.abc import Sequence
from itertools import compress, repeat
from typing import Any

from repro.exceptions import BackendError, BackendUnavailableError

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Name of the always-available reference backend.
DEFAULT_BACKEND = "python"

#: Maps the ASCII digits of ``bin(mask)`` to 0/1 bytes for ``compress``.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class ComputeBackend(ABC):
    """Array primitives over dictionary-encoded (integer-coded) columns.

    The ``codes`` arguments are dense integer arrays (``list[int]`` or a
    NumPy array, backend's choice) of length ``num_rows`` where equal codes
    mean equal original values.  All group lists returned by a backend are
    ordered by their smallest row index, with rows ascending inside each
    group — the canonical order the rest of the library relies on.
    """

    #: Short identifier used by configuration, CLI, and reports.
    name: str = "abstract"
    #: True when the backend operates on vectorised arrays.
    vectorized: bool = False

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    @abstractmethod
    def factorize(self, values: Sequence[Any]) -> tuple[Any, list[Any]]:
        """Dictionary-encode ``values``.

        Returns ``(codes, dictionary)`` where ``dictionary[code]`` is the
        original value and codes are assigned in first-occurrence order
        (``dictionary[0]`` is the first value seen).  Values only need to be
        hashable — cells may be strings, ints, or ciphertext objects.
        """

    @abstractmethod
    def as_code_array(self, codes: Sequence[int]) -> Any:
        """Coerce a plain list of codes into the backend's native array type."""

    def from_code_bytes(self, data: Any, width: int, count: int) -> Any:
        """Codes from ``count * width`` packed little-endian unsigned bytes.

        ``data`` is a bytes-like object (typically a :class:`memoryview`
        over a memory-mapped segment file).  The reference implementation
        copies into a stdlib :mod:`array`; the NumPy backend overrides it
        with a zero-copy ``np.frombuffer`` view, which is what makes
        segment-store loads O(1) in data size on that backend.
        """
        # repro.wire depends on repro.backend, so the width table is
        # duplicated here rather than imported.
        typecode = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(width)
        if typecode is None:
            raise BackendError(f"unknown code width {width}")
        packed = _stdlib_array(typecode)
        packed.frombytes(bytes(data[: count * width]))
        if sys.byteorder == "big":  # pragma: no cover - little-endian CI/dev hosts
            packed.byteswap()
        if len(packed) != count:
            raise BackendError(
                f"code buffer holds {len(packed)} codes, expected {count}"
            )
        return packed

    def concat_code_arrays(self, parts: Sequence[Any]) -> Any:
        """One code array from several, widened so no part's codes clip.

        Used by the segment store to stitch a logically contiguous column
        out of slices whose on-disk widths differ (older segments were
        written while the dictionary was still small).
        """
        joined = _stdlib_array("q")
        for part in parts:
            tolist = getattr(part, "tolist", None)
            joined.extend(tolist() if tolist is not None else part)
        return joined

    # ------------------------------------------------------------------
    # Grouping / counting
    # ------------------------------------------------------------------
    @abstractmethod
    def combine_codes(self, code_arrays: list[Any], cardinalities: list[int]) -> tuple[Any, int]:
        """Fuse per-column code arrays into one code array over row tuples.

        Returns ``(codes, num_groups)``; rows get equal codes iff they agree
        on every input column.  Code numbering is backend-internal (any
        bijection will do) — callers must not rely on its order, only on
        equality.
        """

    @abstractmethod
    def counts(self, codes: Any, num_groups: int) -> list[int]:
        """Occurrences of each code, indexed by code (a frequency histogram)."""

    @abstractmethod
    def has_duplicates(self, codes: Any, num_groups: int) -> bool:
        """True iff any code occurs more than once (the MAS non-unique test)."""

    @abstractmethod
    def group_rows(self, codes: Any, num_groups: int, min_size: int = 1) -> list[list[int]]:
        """Row-index groups per code, canonical order, size >= ``min_size``."""

    # ------------------------------------------------------------------
    # Stripped-partition product (TANE's inner loop)
    # ------------------------------------------------------------------
    @abstractmethod
    def stripped_product(
        self,
        groups_a: list[list[int]],
        groups_b: list[list[int]],
        num_rows: int,
    ) -> list[list[int]]:
        """Product of two stripped partitions.

        Rows share an output group iff they share a group in *both* inputs;
        singleton output groups are stripped.  Canonical order.
        """

    # ------------------------------------------------------------------
    # Flat stripped partitions (optional, vectorised backends only)
    # ------------------------------------------------------------------
    # A *flat* stripped partition is ``(rows, gids, num_groups, gid_limit)``
    # — parallel arrays of member rows and group ids.  Vectorised backends
    # implement these so TANE's product chain never round-trips through
    # python lists; list-based backends simply do not advertise them
    # (``vectorized`` stays False and callers use ``stripped_product``).

    def stripped_from_codes(self, codes: Any, num_values: int) -> tuple:
        """Flat stripped partition straight from a code array."""
        raise NotImplementedError(f"backend {self.name!r} has no flat representation")

    def stripped_product_flat(self, flat_a: tuple, flat_b: tuple, num_rows: int) -> tuple:
        """Flat-to-flat stripped product."""
        raise NotImplementedError(f"backend {self.name!r} has no flat representation")

    def flatten_groups(self, groups: list[list[int]]) -> tuple:
        """Convert row-group lists into the flat representation."""
        raise NotImplementedError(f"backend {self.name!r} has no flat representation")

    def materialize_groups(self, flat: tuple) -> list[list[int]]:
        """Recover canonical row-group lists from the flat representation."""
        raise NotImplementedError(f"backend {self.name!r} has no flat representation")

    # ------------------------------------------------------------------
    # Row masks (bitset algebra for the encrypted query engine)
    # ------------------------------------------------------------------
    # A *row mask* is the backend's representation of a row subset: callers
    # obtain one from ``membership_mask``, combine masks only through
    # ``rows_and`` / ``rows_or`` / ``rows_not``, and read results back with
    # ``mask_count`` / ``mask_to_rows``.  The reference representation is an
    # arbitrary-precision python int (bit ``i`` set iff row ``i`` is in the
    # subset).  The and/or/not algebra and ``mask_count`` are word-parallel
    # int ops, so the pure-python path combines 64 rows at a time; the scan
    # in and the read-back out each cost one C-level pass over the rows (see
    # their docstrings).  The NumPy backend uses boolean arrays.
    # Both backends MUST return identical ``mask_to_rows`` output for the
    # same algebra, like every other primitive.

    def membership_mask(self, codes: Any, wanted: Sequence[int]) -> Any:
        """Row mask of the rows whose code is in ``wanted``.

        The server side of one token leaf of a query plan (an equality
        query is a one-leaf plan): the search token is resolved against a
        column's dictionary to a (typically tiny) set of codes, and the row
        scan happens on the dense code array.

        Cost: O(rows) in one C-level pass.  Each code maps to a ``'1'`` or
        ``'0'`` digit, last row first, and ``int(digits, 2)`` parses the
        whole string at once (a power-of-two base parses in linear time).
        """
        if not len(wanted) or not len(codes):
            return 0
        digit = dict.fromkeys((int(code) for code in wanted), "1")
        return int("".join(map(digit.get, reversed(codes), repeat("0"))), 2)

    def rows_and(self, masks: Sequence[Any]) -> Any:
        """Intersection of one or more row masks."""
        if not masks:
            raise BackendError("rows_and requires at least one mask")
        result = masks[0]
        for mask in masks[1:]:
            result &= mask
        return result

    def rows_or(self, masks: Sequence[Any]) -> Any:
        """Union of one or more row masks."""
        if not masks:
            raise BackendError("rows_or requires at least one mask")
        result = masks[0]
        for mask in masks[1:]:
            result |= mask
        return result

    def rows_not(self, mask: Any, num_rows: int) -> Any:
        """Complement of a row mask within ``num_rows`` rows."""
        return ((1 << num_rows) - 1) & ~mask

    def mask_count(self, mask: Any) -> int:
        """Number of rows in a mask (the match-set cardinality)."""
        return int(mask).bit_count()

    def mask_to_rows(self, mask: Any) -> list[int]:
        """The rows of a mask as ascending indexes.

        The binary string is reversed so that string position ``i`` is row
        ``i``.  A sparse mask is scanned with one ``str.find`` step per
        match; a dense one (more than one row in eight set) is read in a
        single ``itertools.compress`` pass over the digits translated to
        0/1 bytes, which costs O(rows) however many rows match.  Both are
        C-level passes and return the same list.
        """
        mask = int(mask)
        digits = bin(mask)[:1:-1]
        if mask.bit_count() * 8 > mask.bit_length():
            flags = digits.encode("ascii").translate(_DIGIT_FLAGS)
            return list(compress(range(len(flags)), flags))
        find = digits.find
        rows: list[int] = []
        append = rows.append
        row = find("1")
        while row >= 0:
            append(row)
            row = find("1", row + 1)
        return rows

    # ------------------------------------------------------------------
    # Bulk byte XOR (the batched cipher's pad application)
    # ------------------------------------------------------------------
    def xor_blocks(self, first: bytes, second: bytes) -> bytes:
        """Byte-wise XOR of two equal-length byte buffers, in one pass.

        The batched probabilistic cipher concatenates every cell's PRF pad
        into one buffer and every plaintext into another, XORs once, and
        slices the payloads back out — so this primitive is the whole XOR
        cost of materialising a table.  The reference implementation is the
        arbitrary-precision int trick (word-parallel even in pure Python);
        the NumPy backend overrides it with a vectorised ``uint8`` XOR.
        """
        if len(first) != len(second):
            raise BackendError("xor_blocks requires equal-length buffers")
        length = len(first)
        return (
            int.from_bytes(first, "big") ^ int.from_bytes(second, "big")
        ).to_bytes(length, "big")

    # ------------------------------------------------------------------
    # Collision-aware greedy grouping (ECG construction)
    # ------------------------------------------------------------------
    @abstractmethod
    def greedy_collision_free_groups(
        self,
        code_matrix: Sequence[Sequence[int]],
        group_size: int,
    ) -> list[list[int]]:
        """Partition member indexes into greedy collision-free groups.

        ``code_matrix[i]`` is member ``i``'s per-attribute code tuple; two
        members *collide* when they share a code on any attribute
        (Definition 3.4 on dictionary codes).  Reproduces the paper's greedy
        scan exactly: repeatedly seed a group with the first unassigned
        member, then scan the remaining members in order, adding each one
        that does not collide with the group so far, until the group has
        ``group_size`` members; skipped members keep their order for later
        groups.  Groups may come back smaller than ``group_size`` (the caller
        pads them with fake classes).
        """


def factorize_values(values: Sequence[Any]) -> tuple[list[int], list[Any]]:
    """Dictionary-encode ``values`` in first-occurrence order (shared helper).

    Cells need only be hashable (strings, ints, ciphertext objects), so the
    encoding is a hash-map pass for every backend; the backends differ only
    in the array type they wrap the codes in.
    """
    code_of: dict[Any, int] = {}
    dictionary: list[Any] = []
    codes: list[int] = []
    for value in values:
        code = code_of.get(value)
        if code is None:
            code = len(dictionary)
            code_of[value] = code
            dictionary.append(value)
        codes.append(code)
    return codes, dictionary


def available_backends() -> dict[str, bool]:
    """Mapping of backend name -> availability in this environment."""
    from repro.backend.numpy_backend import numpy_available

    return {"python": True, "numpy": numpy_available()}


def get_backend(name: str | ComputeBackend | None = None) -> ComputeBackend:
    """Resolve a backend from an explicit name, ``REPRO_BACKEND``, or default.

    Parameters
    ----------
    name:
        ``"python"``, ``"numpy"``, an already constructed backend (returned
        as-is), or ``None``/``"auto"`` to consult the ``REPRO_BACKEND``
        environment variable and fall back to the pure-Python default.
    """
    if isinstance(name, ComputeBackend):
        return name
    if name is None or name == "auto":
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    name = str(name).strip().lower()
    if name == "python":
        from repro.backend.python_backend import PythonBackend

        return PythonBackend()
    if name == "numpy":
        from repro.backend.numpy_backend import NumpyBackend, numpy_available

        if not numpy_available():
            raise BackendUnavailableError(
                "the numpy backend requires NumPy; install it with "
                "`pip install f2-repro[perf]` (or `pip install numpy`), or "
                "select --backend python"
            )
        return NumpyBackend()
    raise BackendError(
        f"unknown compute backend {name!r}; available: {sorted(available_backends())}"
    )
