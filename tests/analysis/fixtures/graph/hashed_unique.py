"""Fixture: trips REP010 (plain np.unique, which hashes on numpy >= 2.3) x2."""

import numpy
import numpy as np


def dedup(keys):
    return np.unique(keys)                  # REP010


def dedup_long_name(keys):
    return numpy.unique(keys, equal_nan=False)  # REP010: no extra output asked


def compact(ids):
    # fine: the inverse (and index/counts/axis) need np.unique itself
    values, inverse = np.unique(ids, return_inverse=True)
    _, first = np.unique(ids, return_index=True)
    _, counts = np.unique(ids, return_counts=True)
    rows = np.unique(ids.reshape(-1, 2), axis=0)
    return values, inverse, first, counts, rows
