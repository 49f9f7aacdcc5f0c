"""Object-centric recognition of activities of daily living from egocentric
object/hand-interaction detection records.

Pipeline: per-frame detection records are grouped into labeled one-minute
segments, objects are marked active by overlap with hand-interaction boxes,
segments become row-scaled Bag-of-Objects feature vectors, and from-scratch
classifiers are scored with leave-one-subject-out cross-validation. A seeded
synthetic corpus generator stands in for the private source data.

Each public name lives in the module that defines it and is imported from
there (`adlrec.records`, `adlrec.features`, `adlrec.models`, ...); this
package exports only its version.
"""

__version__ = "0.1.0"
