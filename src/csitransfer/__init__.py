"""Uplink-to-downlink channel prediction with transfer and meta-learning.

Modules:
    channel   -- synthetic multipath channel simulator and dataset generation
    net       -- fully-connected network with hand-written exact gradients
    optim     -- plain gradient descent and Adam
    transfer  -- the three training regimes (classical, fine-tune, meta)
    evaluate  -- NMSE metric, testing stages, and the sweep harness
    store     -- versioned binary formats for datasets and checkpoints
    lanes     -- forked lanes, the one way a stage runs its items in parallel
    seeding   -- frozen substream ids and the generators drawn from them
    cli       -- reproducible command-line entry points
"""

__version__ = "0.1.0"
