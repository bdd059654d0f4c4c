"""Exception types shared across the package."""


class QSteerError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QSteerError):
    """An input object violates one of its declared invariants."""


class NotHermitian(ValidationError):
    pass


class NotPSD(ValidationError):
    pass


class TraceNotOne(ValidationError):
    pass


class NotNormalized(ValidationError):
    pass


class ChannelIncomplete(ValidationError):
    pass


class ParameterOutOfRange(QSteerError):
    pass


class IndexOutOfRange(QSteerError):
    pass


class NotRealizable(QSteerError):
    pass
