"""Source module: a "power reading" that is a wall-clock stamp."""

import time


def read_power_w():
    stamp = time.time()
    return stamp
