"""Reference VTK and CSV writers: one ``write`` call per line.

These are the writers of ``ggnfem.fem`` as they were before they built
each file's text in one piece, kept so that tests can compare the bytes
the two produce.
"""

from __future__ import annotations

__all__ = ["write_mesh_vtk", "write_field_vtk", "write_field_csv"]


def write_mesh_vtk(mesh, path, point_data=None) -> None:
    """Legacy ASCII VTK unstructured grid with VTK_QUAD cells.

    ``point_data`` is an optional (name, values per vertex) pair.
    """
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("quadtree mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.16g} {y:.16g} 0\n")
        fh.write(f"CELLS {mesh.n_cells} {5 * mesh.n_cells}\n")
        for sw, se, nw, ne in mesh.cell_corners:
            fh.write(f"4 {sw} {se} {ne} {nw}\n")
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        fh.write("".join("9\n" for _ in range(mesh.n_cells)))
        if point_data is not None:
            name, values = point_data
            fh.write(f"POINT_DATA {mesh.n_vertices}\n")
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in values:
                fh.write(f"{v:.16g}\n")


def write_field_vtk(field, path, name: str = "value") -> None:
    """Mesh plus point data in legacy ASCII VTK."""
    write_mesh_vtk(field.mesh, path, point_data=(name, field.full_values()))


def write_field_csv(field, path) -> None:
    """CSV of (x, y, value) triples over all vertices."""
    mesh = field.mesh
    full = field.full_values()
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for (x, y), v in zip(mesh.vertices, full):
            fh.write(f"{x:.16g},{y:.16g},{v:.16g}\n")
