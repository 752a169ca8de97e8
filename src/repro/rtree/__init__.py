"""The HAController's input-configuration lookup (Sec. 4.6)."""

from repro.rtree.config_index import ConfigurationIndex

__all__ = ["ConfigurationIndex"]
