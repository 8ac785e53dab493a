"""The searches that name a defect once a check has failed, which model
imports only then, so that building and checking valid input loads neither
this module nor numbers.

_check_real names the first field that is not a real number, after a test
failed with a TypeError; _check_float the first value an int too large for a
float, after an OverflowError; _check_numbers the root or the first branch
id or node that is not a number, after radial_tree's root test, sort or
sending-node lookup failed; and _cycle the cycle that keeps radial_tree's
walk from reaching every node. _row_defect and _base_defect choose the
search for model._check_row and PerUnitBase by the error that a test raised.

An error text that names an int of more digits than str() converts
(sys.get_int_max_str_digits) fails with a ValueError while it is formatted.
The check that raised it then runs again through _rerun_bounded, on equal
values in which every such int shows as a _LongInt, in a bounded form, so the
check raises the typed error it would have raised for a shorter int.
"""
from __future__ import annotations

import math

from .model import BranchRecord, DataError, LoadFlowError, PerUnitBase, TopologyError, _check_row


def _row_defect(exc: Exception, row: tuple) -> None:
    """Raise the DataError naming the defect of row, the nine BranchRecord
    fields, that made model._check_row fail with exc, if one is found: for a
    TypeError the first field that is not a real number (a capacity of None
    takes part in no test, so the field found comes before it), for an
    OverflowError the first value field that float() cannot convert, and for
    a ValueError the check's own text, with each int too long for str()
    shown in a bounded form."""
    prefix = f"branch {_bounded(row[0], [])}: "
    if isinstance(exc, TypeError):
        _check_real(prefix, BranchRecord._fields, row[:8])
    elif isinstance(exc, OverflowError):
        _check_float(prefix, BranchRecord._fields[3:8], row[3:8])
    else:
        _rerun_bounded(_check_row, row)


def _base_defect(exc: Exception, kv_base, mva_base) -> None:
    """Raise the DataError naming the defect of a base that made PerUnitBase
    fail with exc, if one is found, as _row_defect does for a row; an
    OverflowError with both bases convertible is an impedance base that
    overflows."""
    values = (kv_base, mva_base)
    if isinstance(exc, TypeError):
        _check_real("", PerUnitBase._fields, values)
    elif isinstance(exc, OverflowError):
        _check_float("", PerUnitBase._fields, values)
        # each converts, but an int kv_base squared does not
        raise DataError(f"kv_base {kv_base} and mva_base {mva_base} give an impedance "
                        f"base beyond the range of a float") from None
    else:
        _rerun_bounded(PerUnitBase, values)


def _check_real(prefix: str, fields, values) -> None:
    """Raise DataError, its text after prefix, naming the first of fields
    whose value is not a real number. A check calls this only once a test
    has failed with a TypeError, which text in place of a number can make
    fail, so numbers is imported here."""
    from numbers import Real

    for name, value in zip(fields, values):
        if not isinstance(value, Real):
            raise DataError(f"{prefix}{name} is not a number ({value!r})") from None


def _check_float(prefix: str, fields, values) -> None:
    """Raise DataError, its text after prefix, naming the first of fields
    whose value float() cannot convert, an int too large for a float; a
    value of None is passed over. A check calls this only once a test has
    failed with an OverflowError."""
    for name, value in zip(fields, values):
        try:
            float(0.0 if value is None else value)
        except OverflowError:
            raise DataError(f"{prefix}{name} is beyond the range of a float") from None


def _check_numbers(ids, sending, receiving, root) -> None:
    """Raise DataError for the root, or else the first branch id or node in
    column order, that is not a real number; radial_tree calls this only
    once a test has failed, which text in place of a number can make fail."""
    from numbers import Real

    if not isinstance(root, Real):
        raise DataError(f"root {root!r} is not a number")
    for row in zip(ids, sending, receiving):
        _check_real(f"branch {row[0]}: ", BranchRecord._fields, row)


def _cycle(ids, sending, receiving, send, feeding, reached) -> TopologyError:
    """The error for a tree whose walk from the root reached only the node
    positions in reached: a cycle edge met by following feeding branches up
    from the smallest node not reached."""
    i = min(set(range(len(feeding))).difference(reached))
    seen = set()
    while i not in seen:
        seen.add(i)
        i = send[feeding[i]]
    k = feeding[i]
    return TopologyError(f"cycle through branch {ids[k]} ({sending[k]}->{receiving[k]})")


class _LongInt(int):
    """An int that str() refuses, equal to it, shown as its sign, its first
    and last six digits and its digit count: -100000...000000 (5001 digits)
    for -10**5000."""

    __slots__ = ()

    def __repr__(self) -> str:
        magnitude = abs(self)
        # log10 may be off by one digit next to a power of ten; the tests
        # below correct that
        digits = math.floor(math.log10(magnitude)) + 1
        if 10 ** (digits - 1) > magnitude:
            digits -= 1
        elif 10 ** digits <= magnitude:
            digits += 1
        head = magnitude // 10 ** (digits - 6)
        return f"{'-' if self < 0 else ''}{head}...{magnitude % 10**6:06d} ({digits} digits)"

    __str__ = __repr__

    def __format__(self, spec: str) -> str:
        return format(repr(self), spec)


def _bounded(value, long: list):
    """value with every int that str() refuses, in it or in the tuples and
    lists it nests, replaced by an equal _LongInt, each appended to long."""
    if type(value) in (tuple, list):
        return type(value)([_bounded(v, long) for v in value])
    if isinstance(value, int) and type(value) is not _LongInt:
        try:
            str(value)
        except ValueError:
            long.append(value)
            return _LongInt(value)
    return value


def _rerun_bounded(check, args) -> None:
    """Run check(*args) again with every int in args that str() refuses
    shown in a bounded form, so that it raises its typed error from None;
    a check calls this once formatting its error text failed with a
    ValueError. Returns, without running check, when args hold no such int."""
    long = []
    args = _bounded(tuple(args), long)
    if long:
        try:
            check(*args)
        except LoadFlowError as exc:
            raise exc from None
