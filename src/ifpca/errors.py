"""Exception and warning types shared across the package."""


class IfpcaError(Exception):
    """Base class for all package errors."""


class ZeroVarianceColumn(IfpcaError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"column {column} has zero variance")


class DegenerateGapWarning(UserWarning):
    """Trailing singular-value gap below matrix.GAP_TOL * sigma_1; subspace ill-determined."""


class ZeroSpread(IfpcaError):
    """Scale statistic of the score normalization is zero."""


class EmptySelection(IfpcaError):
    """No feature survived the threshold."""


class NoEligibleIndex(IfpcaError):
    """No rank satisfies the Higher-Criticism constraints."""


class InvalidK(IfpcaError):
    pass


class InvalidConfig(IfpcaError):
    pass


class UnknownExperiment(IfpcaError):
    pass
