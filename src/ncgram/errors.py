"""Shared exception types, the one refusal rule, and the one check of N."""


class ShapeError(ValueError):
    """Operands have incompatible point counts / matrix dimensions."""


class RotationUndefined(ValueError):
    """Rotation requested from an empty row."""


class BudgetError(RuntimeError):
    """A computation exceeds the configured size budget."""


def refuse_past(budget: int, what: str, size, steps: range) -> None:
    """Raise BudgetError at the first of a job's sizes past `budget`.

    `size(k)` is the job's size at k points, for the growing point counts
    `steps`, of which the last is the job's own; no size is smaller than the
    one before. So no size past the first one over the budget is formed, and
    the message says "over" it when it belongs to fewer points than the job.
    """
    for k in steps:
        value = size(k)
        if value > budget:
            over = "over " if k != steps[-1] else ""
            raise BudgetError(f"{what} {over}{value} exceeds budget {budget}")


def check_parameter(N, least: int | None = 1, message: str = "N must be positive") -> None:
    """Raise ValueError unless the loop parameter N is an int, and of at least
    `least` unless that is None. A bool is refused, though `bool` is an int."""
    if not isinstance(N, int) or isinstance(N, bool):
        raise ValueError(f"N must be an integer, not {type(N).__name__}")
    if least is not None and N < least:
        raise ValueError(message)
