"""The product-reach list names only functions that exist, each with a known reason.

`product_reach.py` checks by trace that the list is exactly the functions the
CLI and the demos never enter; that needs Python 3.11 and takes seconds.
This checks the names and reasons by AST alone.
"""

import json

from product_reach import LISTED, REASONS, defined_functions


def test_every_listed_function_is_defined_with_a_known_reason():
    listed = json.loads(LISTED.read_text())
    assert sorted(set(listed) - defined_functions()) == []
    assert sorted(set(listed.values()) - set(REASONS)) == []
