"""R3 fixture: hash-seed-dependent iteration over sets."""


def loop_over_set(hosts: object) -> list[str]:
    """For loop over a set literal."""
    out = []
    for host in {"a", "b", "c"}:
        out.append(host)
    return out


def listify_keys(table: dict[str, int]) -> list[str]:
    """list() over .keys() without sorted()."""
    return list(table.keys())


def comprehension_over_union(left: set[int], right: set[int]) -> list[int]:
    """Comprehension over a set-union result."""
    return [value for value in left.union(right)]


def loop_over_difference(left: list[int], right: list[int]) -> list[int]:
    """For loop over the operator form of set difference."""
    out = []
    for value in set(left) - set(right):
        out.append(value)
    return out


def comprehension_over_operator_union(
    left: list[str], right: list[str]
) -> list[str]:
    """Comprehension over ``|``, the operator form of ``.union()``."""
    return [key for key in set(left) | set(right)]
