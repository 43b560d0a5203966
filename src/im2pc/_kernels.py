"""The sampler backend's name, for `im2pc bench-knn` and the benchmark."""


def backend() -> str:
    return "numpy"
