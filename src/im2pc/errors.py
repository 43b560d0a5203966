"""Exception types shared across the package."""


class Im2pcError(Exception):
    pass


class ShapeMismatch(Im2pcError):
    def __init__(self, a, b, what="shapes"):
        super().__init__(f"incompatible {what}: {tuple(a)} vs {tuple(b)}")


class NotScalar(Im2pcError):
    pass


class GraphConsumed(Im2pcError):
    pass


class NotARotation(Im2pcError):
    pass


class ZeroRange(Im2pcError):
    pass


class ZeroNoise(Im2pcError):
    pass


class MissingSpherical(Im2pcError):
    pass


class EmptyLevel(Im2pcError):
    pass


class OffGrid(Im2pcError):
    pass


class NoCandidates(Im2pcError):
    pass


class IndexMismatch(Im2pcError):
    pass


class DegenerateQuaternion(Im2pcError):
    pass


class MalformedFile(Im2pcError):
    pass


class NonFiniteLoss(Im2pcError):
    pass
