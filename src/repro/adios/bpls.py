"""``bpls``-style dataset listing (the paper's Listing 1).

Renders the provenance record of a dataset: every attribute with its
value, every variable with its step count, global shape, and global
min/max — e.g.::

    double   Du      attr = 0.2
    double   U       1000*{1024, 1024, 1024} = Min/Max -0.120795 / 1.46671
    int32_t  step    50*scalar = 20 / 1000
    Attribute visualization schemas: FIDES, VTX
"""

from __future__ import annotations

import sys

from repro.adios.bp5 import check_subfiles, read_index
from repro.adios.variable import dtype_display_name

#: attribute names treated as visualization schemas in the trailer line
SCHEMA_ATTRIBUTES = ("visualization_schemas", "schemas")


def bpls(path, *, show_schema_line: bool = True) -> str:
    """Render the Listing-1-style provenance record of a dataset.

    Raises :class:`~repro.util.errors.CorruptFileError` on a damaged
    index or a data subfile shorter than the blocks it indexes.
    """
    index = read_index(path)
    check_subfiles(path, index)
    rows: list[tuple[str, str, str]] = []

    schema_values: list[str] = []
    for name, attribute in sorted(index.attributes.items()):
        if name in SCHEMA_ATTRIBUTES:
            value = attribute.value
            schema_values.extend(value if isinstance(value, (list, tuple)) else [value])
            continue
        rows.append(
            (attribute.dtype_name(), name, f"attr = {attribute.display_value()}")
        )

    for name, entry in sorted(index.variables.items()):
        nsteps = len(entry.steps)
        vmin, vmax = index.var_minmax(name)
        if entry.shape:
            dims = "{" + ", ".join(str(s) for s in entry.shape) + "}"
            desc = f"{nsteps}*{dims} = Min/Max {vmin:g} / {vmax:g}"
        else:
            desc = f"{nsteps}*scalar = {vmin:g} / {vmax:g}"
        rows.append((dtype_display_name(entry.dtype), name, desc))

    width_type = max((len(r[0]) for r in rows), default=6)
    width_name = max((len(r[1]) for r in rows), default=4)
    lines = [
        f"  {t.ljust(width_type)}  {n.ljust(width_name)}  {d}" for t, n, d in rows
    ]
    if show_schema_line and schema_values:
        lines.append(f"  Attribute visualization schemas: {', '.join(schema_values)}")
    return "\n".join(lines)


def bpls_blocks(path, var: str) -> str:
    """``bpls -v``-style per-block decomposition listing for one variable."""
    index = read_index(path)
    blocks = [b for b in index.blocks if b.var == var]
    if not blocks:
        raise ValueError(f"variable {var!r} not in dataset")
    lines = [f"  {var}: {len(blocks)} blocks"]
    for block in sorted(blocks, key=lambda b: (b.step, b.writer_rank)):
        placement = (
            "scalar"
            if not block.count
            else f"start={list(block.start)} count={list(block.count)}"
        )
        codec = f" codec={block.codec}" if block.codec else ""
        lines.append(
            f"    step {block.step} rank {block.writer_rank}: {placement} "
            f"subfile data.{block.subfile}+{block.offset} ({block.nbytes} B)"
            f" min/max {block.vmin:g}/{block.vmax:g}{codec}"
        )
    return "\n".join(lines)


def bpls_dump(path, var: str, *, step: int | None = None, limit: int = 64) -> str:
    """``bpls -d``-style data dump (first ``limit`` values)."""
    from repro.adios.engines import BP5Reader

    reader = BP5Reader(None, path)
    entry = reader.variables().get(var)
    if entry is None:
        raise ValueError(f"variable {var!r} not in dataset")
    if not entry.shape:
        values = reader.scalar_series(var)
        body = " ".join(f"{v:g}" for v in values[:limit])
        return f"  {var} = {body}"
    data = reader.read(var, step=step)
    flat = data.ravel(order="F")[:limit]
    body = "\n    ".join(
        " ".join(f"{v:.6g}" for v in flat[i: i + 8]) for i in range(0, len(flat), 8)
    )
    return f"  {var} (first {len(flat)} of {data.size} values)\n    {body}"


def main(argv: list[str] | None = None) -> int:
    """CLI: ``repro-bpls [-a] [-v VAR] [-d VAR] <dataset.bp>``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-bpls", description="list a BP5 dataset (Listing 1 format)"
    )
    parser.add_argument("dataset")
    parser.add_argument("-a", "--attrs-only", action="store_true",
                        help="list attributes only")
    parser.add_argument("-v", "--blocks", metavar="VAR",
                        help="show the per-block decomposition of VAR")
    parser.add_argument("-d", "--dump", metavar="VAR",
                        help="dump the leading values of VAR")
    try:
        args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    try:
        if args.blocks:
            print(bpls_blocks(args.dataset, args.blocks))
        elif args.dump:
            print(bpls_dump(args.dataset, args.dump))
        elif args.attrs_only:
            text = bpls(args.dataset, show_schema_line=True)
            print("\n".join(l for l in text.splitlines()
                            if "attr = " in l or "Attribute" in l))
        else:
            print(bpls(args.dataset))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"bpls: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
