"""Attribute encoding utilities.

Provides the ``f_w`` / ``F_w`` mappings of Section 2.2 (node and edge
attribute configurations to integer codes).  Attributes are binary: the
attribute-table reader rejects any other value, so Section 7's conversions of
categorical or continuous attributes happen before the data is loaded.
"""

from repro.attributes.encoding import AttributeEncoder, EdgeConfigurationEncoder

__all__ = [
    "AttributeEncoder",
    "EdgeConfigurationEncoder",
]
