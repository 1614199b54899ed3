"""Dimension-ordered (XY) routing and node placement for the 2-D mesh."""

from __future__ import annotations

import enum

from repro.errors import MeshConfigError


class Port(enum.IntEnum):
    """Router ports; LOCAL is the node's inject/eject port."""
    LOCAL = 0
    EAST = 1
    WEST = 2
    NORTH = 3
    SOUTH = 4


def node_xy(node: int, width: int) -> tuple[int, int]:
    if node < 0 or width <= 0:
        raise MeshConfigError("invalid node or mesh width")
    return node % width, node // width


def xy_route(current: int, dst: int, width: int) -> Port:
    """Next output port under XY dimension-ordered routing.

    X is fully resolved before Y, making the route deadlock-free on a
    mesh.  Returns LOCAL when the flit has arrived.
    """
    cx, cy = node_xy(current, width)
    dx, dy = node_xy(dst, width)
    if cx < dx:
        return Port.EAST
    if cx > dx:
        return Port.WEST
    if cy < dy:
        return Port.SOUTH     # y grows downward (row-major node ids)
    if cy > dy:
        return Port.NORTH
    return Port.LOCAL


def neighbor(node: int, port: Port, width: int, height: int) -> int:
    """Node on the other side of ``port``; raises at mesh edges."""
    x, y = node_xy(node, width)
    if port is Port.EAST and x + 1 < width:
        return node + 1
    if port is Port.WEST and x > 0:
        return node - 1
    if port is Port.SOUTH and y + 1 < height:
        return node + width
    if port is Port.NORTH and y > 0:
        return node - width
    raise MeshConfigError(f"no neighbour through {port.name} from node {node}")


def default_mc_nodes(width: int = 6, height: int = 6) -> list:
    """Memory-controller placement: spread along top and bottom edges.

    Columns 1, 3 and 5, those of them inside the mesh.  Each node is
    listed once, in order: on a one-row mesh the top and bottom edges
    are the same row, and a controller listed twice would be two
    controllers on one node.
    """
    cols = [col for col in (1, 3, 5) if col < width]
    if not cols:
        raise MeshConfigError(
            f"no memory-controller column fits a {width}-wide mesh")
    return list(dict.fromkeys(cols + [(height - 1) * width + c
                                      for c in cols]))
