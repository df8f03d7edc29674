"""Seeded RC001 + RC010 violation: a loop over the shared round kernel
with neither a Budget poll nor a fault_point site."""


def unguarded_engine(g, spec, vals, frontier, weights, mark):
    while frontier.size:
        frontier = push_round(  # noqa: F821
            g, spec, vals, frontier, weights, mark
        ).frontier
    return vals
