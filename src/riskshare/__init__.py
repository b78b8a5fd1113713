"""Capital requirements and optimal risk sharing on finite scenario spaces."""

__version__ = "0.1.0"
