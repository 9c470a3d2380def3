"""Shared error types with stable, report-friendly codes."""


class NoVerdict(Exception):
    """A computation stopped without a verdict; reported as its code, then
    the message if there is one."""

    code = ""

    def __str__(self):
        base = super().__str__()
        return f"{self.code}: {base}" if base else self.code


class HorizonExceeded(NoVerdict):
    """A computation would depend on Loewy length at or beyond the finite
    horizon; aborting is preferred to returning a truncation artifact."""

    code = "HORIZON_EXCEEDED"


class Undecided(NoVerdict):
    """A decision procedure found neither a certificate nor a witness for
    the opposite verdict; the question is reported open, not answered."""

    code = "UNDECIDED"


class SquareFailed(Exception):
    """A defining square of a realized tube failed verification."""

    def __init__(self, square_id: str, detail: str = ""):
        super().__init__(square_id)
        self.square_id = square_id
        self.detail = detail

    def __str__(self):
        s = f"SQUARE_FAILED({self.square_id})"
        return f"{s}: {self.detail}" if self.detail else s


class UnclassifiedSummand(Exception):
    """An indecomposable summand matched no label; a bug or a genuine
    grammar redundancy."""
