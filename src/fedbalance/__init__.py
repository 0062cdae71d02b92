"""Desk-scale simulator of label-skewed federated learning.

Clients holding only a few classes top up the missing ones with two kinds of
pseudo-images: dominant-weight Laplace-noised mixups served by peers over a
bounty protocol, and artificially labeled natural-noise images from an
untrained multi-scale generator. A FedAvg engine with small
hand-differentiated models trains over the augmented datasets.
"""

__version__ = "0.1.0"
