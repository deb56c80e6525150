"""Driver identification from in-vehicle telemetry.

The package covers the full pipeline: decoding OBD-II sensor payloads
(:mod:`driverid.obd`), loading labeled trip logs (:mod:`driverid.ingest`),
feature selection / normalization / sliding-window statistics
(:mod:`driverid.features`), a family of from-scratch classifiers
(:mod:`driverid.models`), stratified cross-validation with confusion-matrix
metrics (:mod:`driverid.evaluate`), and preset end-to-end runs
(:mod:`driverid.pipeline`).  ``driverid.cli`` exposes all of it as the
``driverid`` command.
"""

from . import errors, evaluate, features, ingest, models, obd, pipeline
from .errors import DriverIdError

__version__ = "1.0.0"
