"""F tables in block form for the tests, through the one row form that
`FSymbolTable` holds: `block_dict` reads a table's rows as blocks, and
`table_of` makes a table of a block dict, whose matrices a test may edit."""

from baxcat.category import FSymbolTable, _block_entries, f_blocks, f_labels


def block_dict(f: FSymbolTable) -> dict:
    """{(x, y, z, w): (us, vs, matrix)} of the entries of `f`, in key order;
    the matrices are read-only."""
    keys, vals = f.flat
    return f_blocks(f_labels(keys[:-1]), vals[:-1])


def table_of(blocks: dict) -> FSymbolTable:
    """The table of the entries of a block dict, in any block order."""
    return FSymbolTable(lambda: _block_entries(blocks))
