"""Legacy ASCII VTK export of polygonal meshes and vertex fields."""

from __future__ import annotations

import numpy as np

from .mesh import PolygonalMesh


def write_vtk(mesh: PolygonalMesh, path, point_data: dict | None = None,
              title: str = "polygonal mesh") -> None:
    """Write an unstructured-grid legacy VTK 3.0 file with polygon cells.

    ``point_data`` maps scalar field names to per-vertex arrays.  Raises
    ValueError, and writes nothing, for a title with a line break, a field
    name that is empty or holds whitespace, or a field of the wrong length:
    the title is one line of the file, and a legacy reader takes a field
    name as one token.
    """
    if "\n" in title or "\r" in title:
        raise ValueError(f"title {title!r} holds a line break")
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    # Python floats from tolist(): formatting a numpy scalar costs several
    # times more and gives the same text
    lines.extend(f"{x:.17g} {y:.17g} 0" for x, y in mesh.vertices.tolist())

    lines.append(f"CELLS {mesh.n_cells} {mesh.n_cells + len(mesh.cell_vertices)}")
    for cyc in mesh.cells:
        lines.append(str(len(cyc)) + " " + " ".join(map(str, cyc)))
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend(["7"] * mesh.n_cells)   # VTK_POLYGON

    if point_data:
        lines.append(f"POINT_DATA {mesh.n_vertices}")
        for name, values in point_data.items():
            if str(name).split() != [str(name)]:
                raise ValueError(f"field name {name!r} is not one token")
            if len(values) != mesh.n_vertices:
                raise ValueError(f"field {name!r} has wrong length")
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.17g}" for v in np.asarray(values, dtype=float).tolist())

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
