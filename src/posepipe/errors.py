"""The contract error, and the one check of a JSON record against the
signature it feeds."""

from __future__ import annotations

import functools
import inspect
import sys
import types
import typing


class PoseError(ValueError):
    """Raised for contract violations: bad joint sets, malformed files, shape
    mismatches, non-monotone frame indices, and similar caller errors.

    Subclasses ValueError so generic callers can catch it without importing
    this package. row, unshown, is the index of a stack's failing row.
    """

    def __init__(self, message, *, path=None, frame=None, row=None):
        self.message = message
        self.path = path
        self.frame = frame
        self.row = row
        loc = [f"{key}={v}" for key, v in (("file", path), ("frame", frame)) if v is not None]
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)


def parameters(fn) -> dict:
    """name -> (annotation, inspect.Parameter) for each keyword fn (a function
    or a dataclass) takes."""
    hints = typing.get_type_hints(fn)
    return {name: (hints[name], p) for name, p in inspect.signature(fn).parameters.items()}


def predicate(ann):
    """value -> whether a JSON value fits annotation ann, where a JSON array
    fits a tuple, a bool is never a number and an integer fits a float only if
    it converts to one (NaN and +-inf do fit). Raises TypeError at once for an
    annotation outside int, float, bool, str, dict, dict[str, X], list,
    tuple[X, ...], tuple[X, X, ...] and A | B. A tuple's items are checked in
    one pass over their types, one by one only when some item is not an X."""
    origin, args = typing.get_origin(ann), typing.get_args(ann)
    if origin is types.UnionType:
        tests = [predicate(a) for a in args]
        return lambda v: any(t(v) for t in tests)
    if origin is dict and args[0] is str:
        item = predicate(args[1])
        return lambda v: isinstance(v, dict) and all(map(item, v.values()))
    if origin is tuple and len(set(args) - {Ellipsis}) == 1:
        size = None if args[1:] == (Ellipsis,) else len(args)
        item, exact = predicate(args[0]), {args[0]}
        return lambda v: (isinstance(v, (list, tuple)) and (size is None or len(v) == size)
                          and (set(map(type, v)) <= exact or all(map(item, v))))
    if ann is int:
        return lambda v: isinstance(v, int) and not isinstance(v, bool)
    if ann is float:
        is_int = predicate(int)
        return lambda v: isinstance(v, float) or is_int(v) and abs(v) <= sys.float_info.max
    if ann in (bool, str, dict, list):
        return lambda v: isinstance(v, ann)
    raise TypeError(f"no JSON check for annotation {ann!r}")


@functools.cache   # one entry per record signature in the package
def _fields(fn, exclude: tuple) -> tuple:
    """({name: predicate}, required names) for the keywords of fn less exclude."""
    params = {k: v for k, v in parameters(fn).items() if k not in exclude}
    return ({k: predicate(ann) for k, (ann, _) in params.items()},
            tuple(k for k, (_, p) in params.items() if p.default is p.empty))


def checked(fn, doc, what: str, exclude: tuple = (), required=None) -> dict:
    """doc, checked as the keyword arguments of fn (a function or a dataclass)
    less the parameters named in exclude: a JSON object with no other key,
    every key in required (by default, each parameter without a default),
    and values that fit their parameters' annotations. Ranges are left to
    fn."""
    if not isinstance(doc, dict):
        raise PoseError(f"{what} must be a JSON object")
    fits, needed = _fields(fn, exclude)
    if not doc.keys() <= fits.keys():
        raise PoseError(f"unknown {what} keys {sorted(doc.keys() - fits.keys())}")
    for key in needed if required is None else required:
        if key not in doc:
            raise PoseError(f"{what} needs key {key!r}")
    for key, value in doc.items():
        if not fits[key](value):
            ann = parameters(fn)[key][0]
            name = ann.__name__ if isinstance(ann, type) else ann
            raise PoseError(f"{what} key {key!r} must be {name}, got {type(value).__name__}")
    return doc
