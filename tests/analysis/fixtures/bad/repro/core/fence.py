"""R7 fixture: core module importing process-bearing machinery."""

import multiprocessing

from concurrent.futures import ProcessPoolExecutor


def drive() -> None:
    """Uses machinery fenced off the deterministic core."""
    with ProcessPoolExecutor(multiprocessing.cpu_count()) as pool:
        pool.shutdown()
