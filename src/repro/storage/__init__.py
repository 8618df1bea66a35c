"""Log-structured storage primitives for NAND flash.

Implements the tutorial's general framework: every structure is a
sequentially-written log (:class:`PageLog`/:class:`RecordLog`), probabilistic
page summaries are Bloom filters (:class:`BloomFilter`), and the inverted
index of the embedded search engine is a backward-chained bucket log
(:class:`ChainedBucketLog`).
"""

from repro.storage.bloom import BloomFilter, optimal_hash_count
from repro.storage.hashbucket import ChainedBucketLog, bucket_of
from repro.storage.log import PageLog, RecordAddress, RecordLog
from repro.storage.recovery import (
    Manifest,
    MountReport,
    MountSession,
    RecoveredLog,
    RecoveredPage,
    mount,
)

__all__ = [
    "BloomFilter",
    "ChainedBucketLog",
    "Manifest",
    "MountReport",
    "MountSession",
    "PageLog",
    "RecoveredLog",
    "RecoveredPage",
    "RecordAddress",
    "RecordLog",
    "bucket_of",
    "mount",
    "optimal_hash_count",
]
