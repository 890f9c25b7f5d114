"""Type and range rules for the fields of the config dataclasses.

A rule is a pair (test, what it expects). Every config section checks its
fields against one table of rules, and an error names the dotted key.
"""

from __future__ import annotations

import math


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and -math.inf < value < math.inf


BOOL = (lambda v: isinstance(v, bool), "true or false")
INT = (is_int, "an integer")
REAL = (is_real, "a number")


def int_at_least(low: int):
    return (lambda v: is_int(v) and v >= low, f"an integer >= {low}")


def real_above(low: float):
    return (lambda v: is_real(v) and v > low, f"a number > {low}")


def real_at_least(low: float):
    return (lambda v: is_real(v) and v >= low, f"a number >= {low}")


def one_of(*choices):
    return (lambda v: v in choices, f"one of {choices}")


def optional(rule):
    valid, expected = rule
    return (lambda v: v is None or valid(v), f"{expected} or null")


def check_fields(obj, rules: dict, prefix: str = "") -> None:
    """Raise ValueError naming the first field of ``obj`` that breaks its rule."""
    for key, (valid, expected) in rules.items():
        value = getattr(obj, key)
        if not valid(value):
            raise ValueError(f"{prefix}{key} must be {expected}, got {value!r}")
